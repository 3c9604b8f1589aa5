package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"syscall"
	"time"

	"paws/internal/obs"
)

// workload is one named benchmark scenario; run drives it for r.seconds.
type workload struct {
	name string
	run  func(ctx context.Context, r *runner) error
}

// workloads lists the benchmark's scenarios in BENCHMARK.json order.
var workloads = []workload{
	{"serve-warm", runServeWarm},
	{"refresh", runRefresh},
	{"season", runSeason},
	{"scale-1e5", runScale},
}

// setupRepeats is how many times each workload builds its fixture; setup_s
// is the median, so one slow build does not move it.
const setupRepeats = 3

// runner carries one workload run's parameters and accumulates its samples,
// op counts and output digest.
type runner struct {
	seed    int64
	seconds time.Duration
	trace   bool

	s         samples
	attempted int
	failed    int
	digest    hash.Hash
}

func newRunner(seed int64, seconds time.Duration, trace bool) *runner {
	return &runner{seed: seed, seconds: seconds, trace: trace, s: samples{}, digest: sha256.New()}
}

// fail counts one failed op and says why on standard error.
func (r *runner) fail(format string, args ...any) {
	r.failed++
	fmt.Fprintf(os.Stderr, "pawsbench: failed op: "+format+"\n", args...)
}

// setup builds the workload's fixture setupRepeats times, recording each
// build's wall time as a setup_s sample; the last build is the one the
// workload measures. build receives the repeat index.
func (r *runner) setup(build func(i int) error) error {
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		t := time.Now()
		if err := build(i); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		r.s.add("setup_s", time.Since(t).Seconds())
	}
	runtime.GC()
	return nil
}

// loop runs op as a closed loop until the run's duration has elapsed (at
// least once; at least twice when tracing, so both halves have a sample).
// Each op's wall time divided by per is an op_ms sample. Every op starts
// from a collected heap, untimed, so neither its time nor the peak RSS
// depends on where the previous op's garbage happened to be collected.
// When tracing, odd iterations run under an obs trace whose spans go to
// onSpans, and the traced against untraced op times give
// trace.overhead_pct.
func (r *runner) loop(ctx context.Context, per float64, op func(ctx context.Context, i int) error, onSpans func([]obs.Span)) {
	var plain, traced []float64
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < r.seconds || (r.trace && i < 2); i++ {
		withTrace := r.trace && i%2 == 1
		runtime.GC()
		t := time.Now()
		var err error
		var spans []obs.Span
		if withTrace {
			spans, err = collectSpans(ctx, func(ctx context.Context) error { return op(ctx, i) })
		} else {
			err = op(ctx, i)
		}
		ms := msSince(t) / per
		r.attempted++
		if err != nil {
			r.fail("%v", err)
			continue
		}
		if withTrace {
			traced = append(traced, ms)
			if onSpans != nil {
				onSpans(spans)
			}
		} else {
			plain = append(plain, ms)
		}
	}
	for _, ms := range plain {
		r.s.add("op_ms", ms)
	}
	r.overhead(plain, traced)
}

// overhead records trace.overhead_pct: how much slower the traced ops ran
// than the untraced ones, by median.
func (r *runner) overhead(plain, traced []float64) {
	if len(plain) > 0 && len(traced) > 0 {
		r.s.add("trace.overhead_pct", (median(traced)/median(plain)-1)*100)
	}
}

// reference folds one reference output into the run's digest.
func (r *runner) reference(label string, b []byte) {
	fmt.Fprintf(r.digest, "%s %d\n", label, len(b))
	r.digest.Write(b)
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// result is the line the benchmark prints last: exactly these four keys.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one run as appended to an -out run set: the result plus what
// is needed to compare and reproduce it.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    bool   `json:"trace"`
	Host     host   `json:"host"`
	Commit   string `json:"commit"`
	Digest   string `json:"digest"`
	result
}

// host stamps where a run was measured.
type host struct {
	Name       string `json:"name"`
	Arch       string `json:"arch"`
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

func hostStamp() host {
	name, _ := os.Hostname()
	return host{Name: name, Arch: runtime.GOARCH, CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
}

// commitStamp reports the VCS revision the binary was built from, with a
// "+dirty" suffix for uncommitted changes, or "unknown" outside a checkout.
func commitStamp() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

func main() {
	name := flag.String("workload", "", "workload to run: serve-warm, refresh, season, scale-1e5 or all")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := flag.Int("seconds", 12, "how long the measured phase runs, in seconds")
	trace := false
	flag.Func("trace", "1 or true: a traced run printing the per-layer metrics (default 0)", func(v string) error {
		b, err := strconv.ParseBool(v)
		trace = b
		return err
	})
	out := flag.String("out", "", "append one JSON line per run to this file (a run set)")
	compareA := flag.String("compare", "", "compare run set `a` against the run set named by the first argument")
	flag.Parse()

	var err error
	switch {
	case *compareA != "":
		if flag.NArg() != 1 {
			err = errors.New("-compare a.jsonl needs the second run set as its argument")
			break
		}
		err = compareFiles(os.Stdout, "BENCHMARK.json", *compareA, flag.Arg(0))
	case *name == "all":
		err = runAll(*seed, *seconds, trace, *out)
	default:
		err = runOne(*name, *seed, *seconds, trace, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pawsbench:", err)
		os.Exit(1)
	}
}

// runOne runs one workload and prints its result as the last line of
// standard output.
func runOne(name string, seed int64, seconds int, trace bool, out string) error {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q (want serve-warm, refresh, season, scale-1e5 or all)", name)
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds %d must be at least 1", seconds)
	}
	r := newRunner(seed, time.Duration(seconds)*time.Second, trace)
	if err := w.run(context.Background(), r); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	r.s.add("peak_rss_mb", peakRSSMB())
	metrics, err := r.s.metrics(trace)
	if err != nil {
		return err
	}
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: metrics}
	rec := record{
		Workload: name, Seed: seed, Seconds: seconds, Trace: trace,
		Host: hostStamp(), Commit: commitStamp(), Digest: hex.EncodeToString(r.digest.Sum(nil)),
		result: res,
	}
	fmt.Fprintf(os.Stderr, "pawsbench: %s seed %d: %d ops, %d failed, digest %.16s, host %s, commit %.12s\n",
		name, seed, res.Attempted, res.Failed, rec.Digest, rec.Host.Name, rec.Commit)
	if out != "" {
		if err := appendRecord(out, rec); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func appendRecord(path string, rec record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runAll re-executes this binary once per workload, so each starts from a
// fresh heap and reports its own peak RSS. It fails if any workload fails
// or reports a failed op.
func runAll(seed int64, seconds int, trace bool, out string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var failed []string
	for _, w := range workloads {
		args := []string{"-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.Itoa(seconds), "-trace", strconv.FormatBool(trace)}
		if out != "" {
			args = append(args, "-out", out)
		}
		cmd := exec.Command(exe, args...)
		cmd.Stderr = os.Stderr
		line, err := cmd.Output()
		os.Stdout.Write(line)
		var res result
		if err != nil || json.Unmarshal(lastLine(line), &res) != nil || !res.Correct {
			failed = append(failed, w.name)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("workloads failed: %v", failed)
	}
	return nil
}

// lastLine returns the last non-empty line of b.
func lastLine(b []byte) []byte {
	end := len(b)
	for end > 0 && b[end-1] == '\n' {
		end--
	}
	start := end
	for start > 0 && b[start-1] != '\n' {
		start--
	}
	return b[start:end]
}
