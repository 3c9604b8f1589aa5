// Package job is the asynchronous execution layer of the PAWS serving
// stack: a Manager runs long-lived work — multi-season simulations, model
// training, experiment sweeps — as first-class jobs instead of holding an
// HTTP connection open for minutes. Callers submit a function, get an ID
// back immediately, and then observe the job through its lifecycle:
//
//	queued → running → done | failed | canceled
//
// A job function receives a context (canceled by Manager.Cancel and by
// shutdown) and a publish callback for typed Progress events; everything
// the function reports is retained with the job, so a client that
// disconnects mid-run can reconnect and replay the event stream from any
// sequence number (Manager.EventsSince). Results of terminal jobs are
// retained under a TTL and an LRU bound, so a caller can come back for an
// answer later without the Manager growing without bound.
//
// Concurrency is bounded: at most Config.Workers jobs run at once
// (par.Workers semantics, matching every other Workers knob in the repo);
// excess submissions queue in FIFO order. Canceling a queued job removes it
// from the queue without running it. Shutdown stops new submissions and
// drains accepted work — running (and already-queued) jobs finish unless
// the drain context expires, at which point they are canceled and the
// cancellation itself is awaited, so no job goroutine outlives Shutdown.
//
// The Manager is deliberately agnostic about what a job computes: results
// are opaque `any` values chosen by the submitter. The HTTP layer
// (internal/serve) stores exactly the response struct its synchronous
// counterpart would have written, which is what makes async job results
// byte-identical to the blocking endpoints.
package job

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"paws/internal/par"
)

// State is a job lifecycle state.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Event is one typed progress event of a job. Events are retained with the
// job and numbered by Seq (0-based, dense), so streams can resume from any
// position. The Manager itself publishes lifecycle events with Stage
// "state" (Item = the new state); compute layers publish domain stages
// ("season", "train", "cell", "map", …) through the publish callback.
type Event struct {
	Seq     int    `json:"seq"`
	Stage   string `json:"stage"`
	Item    string `json:"item,omitempty"`
	Current int    `json:"current,omitempty"`
	Total   int    `json:"total,omitempty"`
}

// Fn is the work a job performs. ctx is canceled by Manager.Cancel and by
// expired-drain shutdown; publish appends a progress event to the job (it
// is safe to call from multiple goroutines and becomes a no-op once the
// job leaves the running state). The returned value is the job's result.
type Fn func(ctx context.Context, publish func(Event)) (any, error)

// Sentinel errors of the Manager API.
var (
	// ErrUnknownJob is returned for IDs that never existed or were evicted.
	ErrUnknownJob = errors.New("job: unknown job")
	// ErrNotFinished is returned by Result while the job is queued/running.
	ErrNotFinished = errors.New("job: not finished")
	// ErrShuttingDown is returned by Submit after Shutdown began.
	ErrShuttingDown = errors.New("job: manager is shutting down")
	// ErrCanceled wraps context.Canceled in the Result of a canceled job.
	ErrCanceled = fmt.Errorf("job: canceled: %w", context.Canceled)
)

// Config tunes a Manager.
type Config struct {
	// Workers bounds concurrently running jobs (par.Workers semantics:
	// 1 runs jobs strictly one at a time, 0 or negative means one slot per
	// available CPU). Queued jobs start in submission order.
	Workers int
	// ResultTTL bounds how long a terminal job (and its result and events)
	// is retained; 0 selects the 15-minute default, negative disables TTL
	// eviction. Eviction happens lazily on Manager calls.
	ResultTTL time.Duration
	// MaxRetained bounds how many terminal jobs are retained; beyond it the
	// oldest-finished are evicted first. 0 selects the default of 64.
	MaxRetained int
	// IDPrefix namespaces job IDs ("j-<prefix>-000001" instead of
	// "j-000001"). In a fleet every replica sets a distinct prefix so a
	// routing proxy can tell whose job an ID names; empty keeps the
	// single-process format.
	IDPrefix string
	// now is a test hook for TTL eviction; nil means time.Now.
	now func() time.Time
}

// Stats is a point-in-time load summary of a Manager — the signal behind
// pawsd's /statusz (replica load for pawsgate's least-loaded routing) and
// the backlog estimate behind admission control.
type Stats struct {
	// Queued and Running are the jobs currently waiting and executing.
	Queued  int `json:"queued"`
	Running int `json:"running"`
	// Completed counts jobs that reached a terminal state over the
	// Manager's lifetime (evictions included).
	Completed int64 `json:"completed"`
	// MeanJobSeconds is an exponentially-weighted moving average of
	// wall-clock job runtime (α = 0.3; 0 until the first job finishes) —
	// the per-job cost estimate admission control multiplies queue depth
	// by.
	MeanJobSeconds float64 `json:"mean_job_seconds"`
}

// Snapshot is a point-in-time view of a job, safe to serialize.
type Snapshot struct {
	ID       string    `json:"id"`
	Kind     string    `json:"kind"`
	State    State     `json:"state"`
	Created  time.Time `json:"created"`
	Started  time.Time `json:"started,omitzero"`
	Finished time.Time `json:"finished,omitzero"`
	// Events is the number of events published so far (replay with
	// GET …/events?from=N or Manager.EventsSince).
	Events int    `json:"events"`
	Error  string `json:"error,omitempty"`
}

// rec is the Manager's mutable record of one job. All fields are guarded by
// the Manager mutex; the job function runs outside the lock.
type rec struct {
	id                         string
	kind                       string
	fn                         Fn
	state                      State
	created, started, finished time.Time
	events                     []Event
	result                     any
	err                        error
	cancel                     context.CancelFunc
	// canceled records that cancellation was requested while running; the
	// terminal state becomes canceled only if the function actually gave up
	// (a job that completes despite a racing cancel keeps its result).
	canceled bool
	// pinned exempts the job from retention eviction — set for one-shot
	// jobs (Run) so a result can never be evicted between the job turning
	// terminal and its owner collecting it. Pinned jobs are removed
	// explicitly by their owner.
	pinned bool
	// change is closed and replaced on every observable mutation of THIS
	// job; per-job waiters (Wait, event streams) block on it so one job's
	// progress never wakes another job's observers.
	change chan struct{}
}

// notifyLocked wakes this job's waiters; callers hold the Manager lock.
func (r *rec) notifyLocked() {
	close(r.change)
	r.change = make(chan struct{})
}

// Manager runs jobs with bounded concurrency and retains terminal results.
// All methods are safe for concurrent use.
type Manager struct {
	cfg     Config
	workers int

	mu      sync.Mutex
	jobs    map[string]*rec
	queue   []*rec
	running int
	nextID  int
	closed  bool
	// completed / meanRunSeconds feed Stats; updated as jobs turn terminal.
	completed      int64
	meanRunSeconds float64
	// change is closed and replaced when the set of active jobs shrinks;
	// Shutdown blocks on it to detect quiescence. Per-job observers use the
	// rec's own change channel instead.
	change chan struct{}
}

// NewManager builds a Manager.
func NewManager(cfg Config) *Manager {
	if cfg.ResultTTL == 0 {
		cfg.ResultTTL = 15 * time.Minute
	}
	if cfg.MaxRetained <= 0 {
		cfg.MaxRetained = 64
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	return &Manager{
		cfg:     cfg,
		workers: par.Workers(cfg.Workers),
		jobs:    map[string]*rec{},
		change:  make(chan struct{}),
	}
}

// broadcastLocked wakes the manager-level (quiescence) waiters; callers
// hold the lock.
func (m *Manager) broadcastLocked() {
	close(m.change)
	m.change = make(chan struct{})
}

// publishLocked appends an event with the next sequence number and wakes
// the job's own observers.
func (m *Manager) publishLocked(r *rec, e Event) {
	e.Seq = len(r.events)
	r.events = append(r.events, e)
	r.notifyLocked()
}

// submitLocked creates and enqueues a job record; callers hold the lock.
func (m *Manager) submitLocked(kind string, fn Fn, pinned bool) (*rec, error) {
	if fn == nil {
		return nil, errors.New("job: nil job function")
	}
	if m.closed {
		return nil, ErrShuttingDown
	}
	m.evictLocked()
	m.nextID++
	id := fmt.Sprintf("j-%06d", m.nextID)
	if m.cfg.IDPrefix != "" {
		id = fmt.Sprintf("j-%s-%06d", m.cfg.IDPrefix, m.nextID)
	}
	r := &rec{
		id:      id,
		kind:    kind,
		fn:      fn,
		state:   StateQueued,
		created: m.cfg.now(),
		pinned:  pinned,
		change:  make(chan struct{}),
	}
	m.jobs[r.id] = r
	m.queue = append(m.queue, r)
	m.startLocked()
	return r, nil
}

// Submit queues fn as a new job of the given kind and returns the job's
// initial snapshot, taken atomically with the submission, so the caller's
// view cannot race with retention eviction of a job that finished
// immediately. The job starts at once if a worker slot is free.
func (m *Manager) Submit(kind string, fn Fn) (Snapshot, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, err := m.submitLocked(kind, fn, false)
	if err != nil {
		return Snapshot{}, err
	}
	return r.snapshotLocked(), nil
}

// startLocked launches queued jobs while worker slots are free.
func (m *Manager) startLocked() {
	for m.running < m.workers && len(m.queue) > 0 {
		r := m.queue[0]
		m.queue = m.queue[1:]
		ctx, cancel := context.WithCancel(context.Background())
		r.state = StateRunning
		r.started = m.cfg.now()
		r.cancel = cancel
		m.running++
		m.publishLocked(r, Event{Stage: "state", Item: string(StateRunning)})
		go m.run(r, ctx)
	}
}

// run executes one job function and records its terminal state.
func (m *Manager) run(r *rec, ctx context.Context) {
	publish := func(e Event) {
		m.mu.Lock()
		if r.state == StateRunning {
			m.publishLocked(r, e)
		}
		m.mu.Unlock()
	}
	result, err := runSafely(r.fn, ctx, publish)

	m.mu.Lock()
	defer m.mu.Unlock()
	m.running--
	r.cancel = nil
	r.finished = m.cfg.now()
	m.noteFinishedLocked(r.finished.Sub(r.started).Seconds())
	switch {
	case err == nil:
		// A job that completed despite a racing cancel keeps its result.
		r.state = StateDone
		r.result = result
	case r.canceled:
		r.state = StateCanceled
		r.err = err
	default:
		r.state = StateFailed
		r.err = err
	}
	m.publishLocked(r, Event{Stage: "state", Item: string(r.state)})
	m.startLocked()
	m.evictLocked()
	m.broadcastLocked() // active count shrank: wake Shutdown
}

// runSafely calls fn, converting a panic into an error so one bad job
// cannot take the serving process down.
func runSafely(fn Fn, ctx context.Context, publish func(Event)) (result any, err error) {
	defer func() {
		if p := recover(); p != nil {
			result, err = nil, fmt.Errorf("job: panic: %v", p)
		}
	}()
	return fn(ctx, publish)
}

// lookupLocked resolves a job ID; callers hold the lock. A miss while the
// Manager is draining reports ErrShuttingDown, not ErrUnknownJob: during
// shutdown, terminal jobs are being evicted while clients (e.g. an NDJSON
// event stream reconnecting after a disconnect) may still hold valid IDs,
// and telling such a client its job "never existed" is wrong — the honest
// answer is that the server is going away.
func (m *Manager) lookupLocked(id string) (*rec, error) {
	if r, ok := m.jobs[id]; ok {
		return r, nil
	}
	if m.closed {
		return nil, fmt.Errorf("%w (job %q unknown or already drained)", ErrShuttingDown, id)
	}
	return nil, fmt.Errorf("%w %q", ErrUnknownJob, id)
}

// snapshotLocked builds a Snapshot; callers hold the lock.
func (r *rec) snapshotLocked() Snapshot {
	s := Snapshot{
		ID:       r.id,
		Kind:     r.kind,
		State:    r.state,
		Created:  r.created,
		Started:  r.started,
		Finished: r.finished,
		Events:   len(r.events),
	}
	if r.err != nil {
		s.Error = r.err.Error()
	}
	return s
}

// Get returns a job's snapshot.
func (m *Manager) Get(id string) (Snapshot, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.evictLocked()
	r, err := m.lookupLocked(id)
	if err != nil {
		return Snapshot{}, err
	}
	return r.snapshotLocked(), nil
}

// List returns snapshots of every retained job in submission order.
func (m *Manager) List() []Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.evictLocked()
	out := make([]Snapshot, 0, len(m.jobs))
	for _, r := range m.jobs {
		out = append(out, r.snapshotLocked())
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// Cancel requests cancellation: a queued job is removed from the queue and
// becomes canceled immediately; a running job has its context canceled and
// becomes canceled when its function returns. Canceling a terminal job is
// a no-op. The returned snapshot reflects the state after the call.
func (m *Manager) Cancel(id string) (Snapshot, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, err := m.lookupLocked(id)
	if err != nil {
		return Snapshot{}, err
	}
	switch r.state {
	case StateQueued:
		for i, q := range m.queue {
			if q == r {
				m.queue = append(m.queue[:i], m.queue[i+1:]...)
				break
			}
		}
		r.state = StateCanceled
		r.finished = m.cfg.now()
		r.err = ErrCanceled
		m.noteFinishedLocked(0) // never ran: counts, contributes no runtime
		m.publishLocked(r, Event{Stage: "state", Item: string(StateCanceled)})
		m.broadcastLocked() // active count shrank: wake Shutdown
	case StateRunning:
		r.canceled = true
		r.cancel()
	}
	return r.snapshotLocked(), nil
}

// Result returns a terminal job's result. A queued or running job returns
// ErrNotFinished; a failed job returns its error; a canceled job returns
// an error wrapping context.Canceled.
func (m *Manager) Result(id string) (any, Snapshot, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.evictLocked()
	r, err := m.lookupLocked(id)
	if err != nil {
		return nil, Snapshot{}, err
	}
	snap := r.snapshotLocked()
	switch r.state {
	case StateDone:
		return r.result, snap, nil
	case StateFailed:
		return nil, snap, r.err
	case StateCanceled:
		err := r.err
		if err == nil {
			err = ErrCanceled
		}
		return nil, snap, err
	default:
		return nil, snap, fmt.Errorf("%w: job %s is %s", ErrNotFinished, id, r.state)
	}
}

// EventsSince returns a copy of the job's events from sequence number
// `from`, its current state, and a channel that closes on the next
// observable change — the building block for replayable streams:
//
//	for {
//		evs, state, ch, err := m.EventsSince(id, from)
//		… emit evs; from += len(evs) …
//		if state.Terminal() && len(evs) == 0 { break }
//		select { case <-ctx.Done(): return; case <-ch: }
//	}
func (m *Manager) EventsSince(id string, from int) ([]Event, State, <-chan struct{}, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, err := m.lookupLocked(id)
	if err != nil {
		return nil, "", nil, err
	}
	var evs []Event
	if from < 0 {
		from = 0
	}
	if from < len(r.events) {
		evs = append(evs, r.events[from:]...)
	}
	return evs, r.state, r.change, nil
}

// Wait blocks until the job is terminal (returning its snapshot) or ctx is
// done (returning ctx.Err()).
func (m *Manager) Wait(ctx context.Context, id string) (Snapshot, error) {
	for {
		m.mu.Lock()
		r, err := m.lookupLocked(id)
		var snap Snapshot
		var ch <-chan struct{}
		if err == nil {
			snap = r.snapshotLocked()
			ch = r.change
		}
		m.mu.Unlock()
		if err != nil {
			return Snapshot{}, err
		}
		if snap.State.Terminal() {
			return snap, nil
		}
		select {
		case <-ctx.Done():
			return snap, ctx.Err()
		case <-ch:
		}
	}
}

// Run is the one-shot synchronous wrapper the blocking endpoints are built
// on: submit fn, wait for it, return its result, and retain nothing. The
// job is pinned against retention eviction for the duration of the call,
// so a finished result cannot be TTL/LRU-evicted before Run collects it.
// If ctx is done first the job is canceled and awaited (so fn never
// outlives the call's cancellation semantics) and ctx's error is returned.
func (m *Manager) Run(ctx context.Context, kind string, fn Fn) (any, error) {
	m.mu.Lock()
	r, err := m.submitLocked(kind, fn, true)
	m.mu.Unlock()
	if err != nil {
		return nil, err
	}
	id := r.id
	defer m.Remove(id)
	if _, err := m.Wait(ctx, id); err != nil {
		m.Cancel(id)
		// Await the terminal state so in-flight work has fully drained
		// before we report the context error; cancellation propagates
		// through internal/par, so this is prompt.
		m.Wait(context.Background(), id)
		return nil, err
	}
	result, _, err := m.Result(id)
	return result, err
}

// Remove drops a terminal job from retention (ErrNotFinished otherwise).
func (m *Manager) Remove(id string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, err := m.lookupLocked(id)
	if err != nil {
		return err
	}
	if !r.state.Terminal() {
		return fmt.Errorf("%w: job %s is %s", ErrNotFinished, id, r.state)
	}
	delete(m.jobs, id)
	m.broadcastLocked()
	return nil
}

// noteFinishedLocked folds one terminal job into the load statistics;
// callers hold the lock. Only jobs that actually ran contribute a runtime
// sample (a queued job canceled before starting has no runtime).
func (m *Manager) noteFinishedLocked(runSeconds float64) {
	m.completed++
	if runSeconds <= 0 {
		return
	}
	if m.meanRunSeconds == 0 {
		m.meanRunSeconds = runSeconds
		return
	}
	const alpha = 0.3
	m.meanRunSeconds = alpha*runSeconds + (1-alpha)*m.meanRunSeconds
}

// Active returns how many jobs are queued or running.
func (m *Manager) Active() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.activeLocked()
}

// Stats returns the Manager's current load summary.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{
		Queued:         len(m.queue),
		Running:        m.running,
		Completed:      m.completed,
		MeanJobSeconds: m.meanRunSeconds,
	}
}

func (m *Manager) activeLocked() int { return m.running + len(m.queue) }

// Shutdown stops new submissions and drains accepted work: queued and
// running jobs finish normally. If ctx expires first, every remaining job
// is canceled and the cancellations are awaited (without a deadline —
// cancellation drains promptly through internal/par), then ctx's error is
// returned. After Shutdown returns no job goroutine is left.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	for {
		m.mu.Lock()
		active := m.activeLocked()
		ch := m.change
		m.mu.Unlock()
		if active == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			m.cancelAll()
			m.awaitQuiescent()
			return ctx.Err()
		case <-ch:
		}
	}
}

// cancelAll requests cancellation of every non-terminal job, in ID
// order so shutdown behavior never depends on map iteration order.
func (m *Manager) cancelAll() {
	m.mu.Lock()
	ids := make([]string, 0, len(m.jobs))
	for id, r := range m.jobs {
		if !r.state.Terminal() {
			ids = append(ids, id)
		}
	}
	m.mu.Unlock()
	sort.Strings(ids)
	for _, id := range ids {
		m.Cancel(id)
	}
}

// awaitQuiescent blocks until no job is queued or running.
func (m *Manager) awaitQuiescent() {
	for {
		m.mu.Lock()
		active := m.activeLocked()
		ch := m.change
		m.mu.Unlock()
		if active == 0 {
			return
		}
		<-ch
	}
}

// evictLocked applies result retention: terminal jobs past the TTL go
// first, then the oldest-finished beyond MaxRetained. Callers hold the
// lock. Queued, running and pinned (one-shot) jobs are never evicted.
func (m *Manager) evictLocked() {
	now := m.cfg.now()
	var terminal []*rec
	for id, r := range m.jobs {
		if !r.state.Terminal() || r.pinned {
			continue
		}
		if m.cfg.ResultTTL > 0 && now.Sub(r.finished) > m.cfg.ResultTTL {
			delete(m.jobs, id)
			continue
		}
		terminal = append(terminal, r)
	}
	if len(terminal) <= m.cfg.MaxRetained {
		return
	}
	sort.Slice(terminal, func(a, b int) bool {
		if !terminal[a].finished.Equal(terminal[b].finished) {
			return terminal[a].finished.Before(terminal[b].finished)
		}
		return terminal[a].id < terminal[b].id
	})
	for _, r := range terminal[:len(terminal)-m.cfg.MaxRetained] {
		delete(m.jobs, r.id)
	}
}
