package job

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// doneFn returns a job function that publishes n events and returns v.
func doneFn(n int, v any) Fn {
	return func(ctx context.Context, publish func(Event)) (any, error) {
		for i := 0; i < n; i++ {
			publish(Event{Stage: "step", Current: i + 1, Total: n})
		}
		return v, nil
	}
}

// blockingFn returns a job function that signals readiness on started and
// then blocks until release closes or its context is canceled.
func blockingFn(started chan<- string, release <-chan struct{}) Fn {
	return func(ctx context.Context, publish func(Event)) (any, error) {
		if started != nil {
			started <- "running"
		}
		select {
		case <-release:
			return "released", nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

func waitTerminal(t *testing.T, m *Manager, id string) Snapshot {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	snap, err := m.Wait(ctx, id)
	if err != nil {
		t.Fatalf("wait %s: %v (state %s)", id, err, snap.State)
	}
	return snap
}

func TestLifecycleDone(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	sub, err := m.Submit("demo", doneFn(3, 42))
	if err != nil {
		t.Fatal(err)
	}
	snap := waitTerminal(t, m, sub.ID)
	if snap.State != StateDone {
		t.Fatalf("state %s, want done", snap.State)
	}
	if snap.Started.IsZero() || snap.Finished.IsZero() || snap.Created.IsZero() {
		t.Fatalf("missing timestamps: %+v", snap)
	}
	res, _, err := m.Result(sub.ID)
	if err != nil || res != 42 {
		t.Fatalf("result %v, %v; want 42, nil", res, err)
	}
	// 3 published events plus the running and done state events.
	evs, state, _, err := m.EventsSince(sub.ID, 0)
	if err != nil || state != StateDone {
		t.Fatalf("events: %v, state %s", err, state)
	}
	if len(evs) != 5 {
		t.Fatalf("got %d events, want 5: %+v", len(evs), evs)
	}
	for i, e := range evs {
		if e.Seq != i {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
	}
	if evs[0].Stage != "state" || evs[0].Item != "running" {
		t.Fatalf("first event %+v, want running state event", evs[0])
	}
	if last := evs[len(evs)-1]; last.Stage != "state" || last.Item != "done" {
		t.Fatalf("last event %+v, want done state event", last)
	}
	// Replay from the middle.
	evs, _, _, _ = m.EventsSince(sub.ID, 3)
	if len(evs) != 2 || evs[0].Seq != 3 {
		t.Fatalf("replay from 3: %+v", evs)
	}
}

func TestLifecycleFailed(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	boom := errors.New("boom")
	sub, _ := m.Submit("demo", func(ctx context.Context, publish func(Event)) (any, error) {
		return nil, boom
	})
	snap := waitTerminal(t, m, sub.ID)
	if snap.State != StateFailed || snap.Error != "boom" {
		t.Fatalf("snapshot %+v, want failed/boom", snap)
	}
	if _, _, err := m.Result(sub.ID); !errors.Is(err, boom) {
		t.Fatalf("result err %v, want boom", err)
	}
}

func TestPanicBecomesFailure(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	sub, _ := m.Submit("demo", func(ctx context.Context, publish func(Event)) (any, error) {
		panic("kaboom")
	})
	snap := waitTerminal(t, m, sub.ID)
	if snap.State != StateFailed {
		t.Fatalf("state %s, want failed", snap.State)
	}
	if _, _, err := m.Result(sub.ID); err == nil || snap.Error == "" {
		t.Fatalf("panic not surfaced: %+v", snap)
	}
}

func TestBoundedConcurrencyFIFO(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	started := make(chan string, 1)
	release := make(chan struct{})
	first, _ := m.Submit("demo", blockingFn(started, release))
	<-started
	second, _ := m.Submit("demo", doneFn(0, "second"))
	// The second job must stay queued while the first occupies the slot.
	time.Sleep(20 * time.Millisecond)
	snap, err := m.Get(second.ID)
	if err != nil || snap.State != StateQueued {
		t.Fatalf("second job state %s (%v), want queued", snap.State, err)
	}
	close(release)
	if s := waitTerminal(t, m, first.ID); s.State != StateDone {
		t.Fatalf("first ended %s", s.State)
	}
	if s := waitTerminal(t, m, second.ID); s.State != StateDone {
		t.Fatalf("second ended %s", s.State)
	}
}

func TestCancelQueued(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	started := make(chan string, 1)
	release := make(chan struct{})
	defer close(release)
	if _, err := m.Submit("demo", blockingFn(started, release)); err != nil {
		t.Fatal(err)
	}
	<-started
	queued, _ := m.Submit("demo", doneFn(0, nil))
	snap, err := m.Cancel(queued.ID)
	if err != nil || snap.State != StateCanceled {
		t.Fatalf("cancel queued: %+v, %v", snap, err)
	}
	if _, _, err := m.Result(queued.ID); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled result err %v, want context.Canceled", err)
	}
}

func TestCancelRunningLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	m := NewManager(Config{Workers: 2})
	started := make(chan string, 1)
	sub, _ := m.Submit("demo", blockingFn(started, nil))
	<-started
	snap, err := m.Cancel(sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != StateRunning && snap.State != StateCanceled {
		t.Fatalf("state %s right after cancel", snap.State)
	}
	final := waitTerminal(t, m, sub.ID)
	if final.State != StateCanceled {
		t.Fatalf("final state %s, want canceled", final.State)
	}
	if _, _, err := m.Result(sub.ID); !errors.Is(err, context.Canceled) {
		t.Fatalf("result err %v, want context.Canceled", err)
	}
	// The job goroutine must have exited; allow the runtime a moment.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

func TestCancelRacingCompletionKeepsResult(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	// The function ignores its context and completes; a cancel that loses
	// the race must not discard the finished result.
	started := make(chan string, 1)
	release := make(chan struct{})
	sub, _ := m.Submit("demo", func(ctx context.Context, publish func(Event)) (any, error) {
		started <- "running"
		<-release
		return "finished", nil
	})
	<-started
	if _, err := m.Cancel(sub.ID); err != nil {
		t.Fatal(err)
	}
	close(release)
	snap := waitTerminal(t, m, sub.ID)
	if snap.State != StateDone {
		t.Fatalf("state %s, want done (completion beat the cancel)", snap.State)
	}
	if res, _, err := m.Result(sub.ID); err != nil || res != "finished" {
		t.Fatalf("result %v, %v", res, err)
	}
}

func TestResultTTLEviction(t *testing.T) {
	clock := time.Unix(1000, 0)
	now := func() time.Time { return clock }
	m := NewManager(Config{Workers: 1, ResultTTL: time.Minute, now: now})
	sub, _ := m.Submit("demo", doneFn(0, "v"))
	waitTerminal(t, m, sub.ID)
	if _, err := m.Get(sub.ID); err != nil {
		t.Fatalf("fresh job evicted: %v", err)
	}
	clock = clock.Add(2 * time.Minute)
	if _, err := m.Get(sub.ID); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("expired job still present: %v", err)
	}
}

func TestLRURetentionBound(t *testing.T) {
	clock := time.Unix(1000, 0)
	var mu sync.Mutex
	now := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		clock = clock.Add(time.Second)
		return clock
	}
	m := NewManager(Config{Workers: 1, MaxRetained: 2, ResultTTL: -1, now: now})
	var ids []string
	for i := 0; i < 3; i++ {
		sub, err := m.Submit("demo", doneFn(0, i))
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, m, sub.ID)
		ids = append(ids, sub.ID)
	}
	if _, err := m.Get(ids[0]); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("oldest job survived past the retention bound: %v", err)
	}
	for _, id := range ids[1:] {
		if _, err := m.Get(id); err != nil {
			t.Fatalf("recent job %s evicted: %v", id, err)
		}
	}
	if got := len(m.List()); got != 2 {
		t.Fatalf("List holds %d jobs, want 2", got)
	}
}

func TestShutdownDrainsRunningJobs(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	started := make(chan string, 1)
	release := make(chan struct{})
	sub, _ := m.Submit("demo", blockingFn(started, release))
	<-started
	queued, _ := m.Submit("demo", doneFn(0, "q"))
	go func() {
		time.Sleep(30 * time.Millisecond)
		close(release)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// Both the running and the already-queued job drained to done.
	for _, jid := range []string{sub.ID, queued.ID} {
		if snap, err := m.Get(jid); err != nil || snap.State != StateDone {
			t.Fatalf("job %s after drain: %+v, %v", jid, snap, err)
		}
	}
	if _, err := m.Submit("demo", doneFn(0, nil)); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("submit after shutdown: %v, want ErrShuttingDown", err)
	}
}

func TestShutdownExpiredDrainCancels(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	started := make(chan string, 1)
	sub, _ := m.Submit("demo", blockingFn(started, nil)) // never releases
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := m.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shutdown err %v, want deadline", err)
	}
	if snap, err := m.Get(sub.ID); err != nil || snap.State != StateCanceled {
		t.Fatalf("job after expired drain: %+v, %v", snap, err)
	}
	if m.Active() != 0 {
		t.Fatalf("%d jobs still active after shutdown", m.Active())
	}
}

func TestRunMatchesDirectCall(t *testing.T) {
	m := NewManager(Config{Workers: 2})
	got, err := m.Run(context.Background(), "demo", doneFn(2, "hello"))
	if err != nil || got != "hello" {
		t.Fatalf("run: %v, %v", got, err)
	}
	// One-shot jobs are not retained.
	if jobs := m.List(); len(jobs) != 0 {
		t.Fatalf("one-shot job retained: %+v", jobs)
	}
}

func TestRunHonorsCallerContext(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := m.Run(ctx, "demo", blockingFn(nil, nil))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("run err %v, want deadline", err)
	}
	if m.Active() != 0 {
		t.Fatal("canceled one-shot job still active")
	}
}

func TestEventsStreamReplayAcrossSubscribers(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	started := make(chan string, 1)
	release := make(chan struct{})
	sub, _ := m.Submit("demo", func(ctx context.Context, publish func(Event)) (any, error) {
		started <- "running"
		publish(Event{Stage: "step", Current: 1, Total: 2})
		<-release
		publish(Event{Stage: "step", Current: 2, Total: 2})
		return nil, nil
	})
	<-started
	// First subscriber drains what exists so far.
	var from int
	deadline := time.Now().Add(5 * time.Second)
	for from < 2 { // running state event + step 1
		evs, _, ch, err := m.EventsSince(sub.ID, from)
		if err != nil {
			t.Fatal(err)
		}
		from += len(evs)
		if from >= 2 {
			break
		}
		select {
		case <-ch:
		case <-time.After(time.Until(deadline)):
			t.Fatal("timed out waiting for early events")
		}
	}
	close(release)
	waitTerminal(t, m, sub.ID)
	// A later subscriber replays everything from scratch.
	evs, state, _, err := m.EventsSince(sub.ID, 0)
	if err != nil || !state.Terminal() {
		t.Fatalf("late subscribe: %v, %s", err, state)
	}
	if len(evs) != 4 { // running, step1, step2, done
		t.Fatalf("late replay got %d events: %+v", len(evs), evs)
	}
}

func TestConcurrentSubmitters(t *testing.T) {
	m := NewManager(Config{Workers: 4})
	const n = 32
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sub, err := m.Submit("demo", doneFn(1, i))
			if err != nil {
				t.Error(err)
				return
			}
			ids[i] = sub.ID
		}(i)
	}
	wg.Wait()
	for i, id := range ids {
		snap := waitTerminal(t, m, id)
		if snap.State != StateDone {
			t.Fatalf("job %d (%s): %s", i, id, snap.State)
		}
		if res, _, err := m.Result(id); err != nil || res != i {
			t.Fatalf("job %d result %v, %v", i, res, err)
		}
	}
	seen := map[string]bool{}
	for _, id := range ids {
		if id == "" || seen[id] {
			t.Fatalf("duplicate or empty id %q", id)
		}
		seen[id] = true
	}
}

func TestUnknownJobErrors(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	if _, err := m.Get("j-nope"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("get: %v", err)
	}
	if _, err := m.Cancel("j-nope"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("cancel: %v", err)
	}
	if _, _, err := m.Result("j-nope"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("result: %v", err)
	}
	if _, _, _, err := m.EventsSince("j-nope", 0); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("events: %v", err)
	}
	sub, _ := m.Submit("demo", doneFn(0, nil))
	waitTerminal(t, m, sub.ID)
	if _, _, err := m.Result(sub.ID); err != nil {
		t.Fatalf("result: %v", err)
	}
	if err := m.Remove(sub.ID); err != nil {
		t.Fatalf("remove: %v", err)
	}
	if _, err := m.Get(sub.ID); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("removed job still present: %v", err)
	}
}

func TestResultNotFinished(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	started := make(chan string, 1)
	release := make(chan struct{})
	sub, _ := m.Submit("demo", blockingFn(started, release))
	<-started
	if _, _, err := m.Result(sub.ID); !errors.Is(err, ErrNotFinished) {
		t.Fatalf("running result err %v, want ErrNotFinished", err)
	}
	if err := m.Remove(sub.ID); !errors.Is(err, ErrNotFinished) {
		t.Fatalf("remove running err %v, want ErrNotFinished", err)
	}
	close(release)
	waitTerminal(t, m, sub.ID)
}

func TestSnapshotJSONShape(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	sub, _ := m.Submit("simulate", doneFn(0, nil))
	snap := waitTerminal(t, m, sub.ID)
	if snap.ID != sub.ID || snap.Kind != "simulate" {
		t.Fatalf("snapshot identity: %+v", snap)
	}
	if snap.Events != 2 {
		t.Fatalf("events count %d, want 2 (running + done)", snap.Events)
	}
	if fmt.Sprint(snap.State) != "done" {
		t.Fatalf("state renders as %q", snap.State)
	}
}
