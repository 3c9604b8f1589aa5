package env

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock is the Manager's TTL test hook: time only moves when the test
// says so.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// managerFixture is the shared config/cell-count pair the manager tests
// build their sessions from (park generation is deterministic, so every
// call sees the same park).
type managerFixture struct {
	cfg   Config
	cells int
}

func testFixture(t *testing.T) managerFixture {
	t.Helper()
	cfg := testConfig(t)
	return managerFixture{cfg: cfg, cells: cfg.Park.Grid.NumCells()}
}

// newSessionEnv builds a fresh Env over the fixture config.
func newSessionEnv(t *testing.T) *Env {
	t.Helper()
	e, err := New(testFixture(t).cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestManagerLifecycleAndIDs(t *testing.T) {
	ctx := context.Background()
	f := testFixture(t)
	m := NewManager(ManagerConfig{IDPrefix: "alpha"})
	snap, err := m.Create(newSessionEnv(t))
	if err != nil {
		t.Fatal(err)
	}
	if snap.ID != "e-alpha-000001" {
		t.Fatalf("session ID %q, want e-alpha-000001", snap.ID)
	}
	if snap.Done || snap.Season != 0 {
		t.Fatalf("fresh session snapshot: %+v", snap)
	}
	eff := uniformEffort(f.cells)
	for season := 0; season < f.cfg.Seasons; season++ {
		_, st, done, err := m.Step(ctx, snap.ID, eff)
		if err != nil {
			t.Fatalf("season %d: %v", season, err)
		}
		if st.Season != season {
			t.Fatalf("season index %d, want %d", st.Season, season)
		}
		if wantDone := season == f.cfg.Seasons-1; done != wantDone {
			t.Fatalf("season %d: done=%v, want %v", season, done, wantDone)
		}
	}
	if _, _, _, err := m.Step(ctx, snap.ID, eff); !errors.Is(err, ErrDone) {
		t.Fatalf("step after done: err %v, want ErrDone", err)
	}
	got, err := m.Get(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Done || got.Season != f.cfg.Seasons {
		t.Fatalf("finished snapshot: %+v", got)
	}
	st := m.Stats()
	if st.Active != 0 || st.Sessions != 1 || st.Created != 1 || st.Steps != int64(f.cfg.Seasons) {
		t.Fatalf("stats after one episode: %+v", st)
	}
	if _, err := m.Remove(snap.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Get(snap.ID); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("get after remove: err %v, want ErrUnknownSession", err)
	}
	if _, _, _, err := m.Step(ctx, "e-alpha-999999", eff); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("step of never-created ID: err %v, want ErrUnknownSession", err)
	}
}

// TestManagerTTLEviction: with the fake clock, a session idle past the TTL
// is evicted — live or done — and the idle clock refreshes on use.
func TestManagerTTLEviction(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	m := NewManager(ManagerConfig{TTL: time.Minute, now: clock.now})
	snap, err := m.Create(newSessionEnv(t))
	if err != nil {
		t.Fatal(err)
	}
	clock.advance(45 * time.Second)
	if _, err := m.Get(snap.ID); err != nil {
		t.Fatalf("45s idle with a 60s TTL: %v", err)
	}
	// The Get refreshed lastUsed, so another 45s keeps it alive...
	clock.advance(45 * time.Second)
	if _, err := m.Get(snap.ID); err != nil {
		t.Fatalf("idle clock did not refresh on Get: %v", err)
	}
	// ...but 61s of silence evicts even a live episode.
	clock.advance(61 * time.Second)
	if _, err := m.Get(snap.ID); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("TTL-expired session: err %v, want ErrUnknownSession", err)
	}
	if st := m.Stats(); st.Sessions != 0 {
		t.Fatalf("evicted session still retained: %+v", st)
	}
}

// TestManagerCapacity: live sessions shed creates with ErrCapacity (and a
// sane RetryAfter), while finished sessions are LRU-evicted to make room.
func TestManagerCapacity(t *testing.T) {
	ctx := context.Background()
	f := testFixture(t)
	clock := &fakeClock{t: time.Unix(1000, 0)}
	m := NewManager(ManagerConfig{TTL: 10 * time.Minute, MaxSessions: 2, now: clock.now})
	a, err := m.Create(newSessionEnv(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create(newSessionEnv(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create(newSessionEnv(t)); !errors.Is(err, ErrCapacity) {
		t.Fatalf("create over capacity with all-live sessions: err %v, want ErrCapacity", err)
	}
	if ra := m.RetryAfter(); ra < time.Second || ra > 10*time.Minute {
		t.Fatalf("RetryAfter %v outside [1s, TTL]", ra)
	}
	// Finish session a; the next create LRU-evicts it.
	eff := uniformEffort(f.cells)
	for season := 0; season < f.cfg.Seasons; season++ {
		if _, _, _, err := m.Step(ctx, a.ID, eff); err != nil {
			t.Fatal(err)
		}
	}
	clock.advance(time.Second)
	c, err := m.Create(newSessionEnv(t))
	if err != nil {
		t.Fatalf("create after finishing a session: %v", err)
	}
	if _, err := m.Get(a.ID); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("done session not LRU-evicted at capacity: err %v", err)
	}
	if _, err := m.Get(c.ID); err != nil {
		t.Fatal(err)
	}
}

// TestManagerDrainVsUnknown: after Shutdown, both creates and lookups of
// drained IDs answer "shutting down" — never "unknown", which would tell a
// client holding a valid ID that its session never existed.
func TestManagerDrainVsUnknown(t *testing.T) {
	ctx := context.Background()
	f := testFixture(t)
	m := NewManager(ManagerConfig{})
	snap, err := m.Create(newSessionEnv(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create(newSessionEnv(t)); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("create after shutdown: err %v, want ErrShuttingDown", err)
	}
	for name, err := range map[string]error{
		"get":    errOf(func() error { _, e := m.Get(snap.ID); return e }),
		"step":   errOf(func() error { _, _, _, e := m.Step(ctx, snap.ID, uniformEffort(f.cells)); return e }),
		"remove": errOf(func() error { _, e := m.Remove(snap.ID); return e }),
	} {
		if !errors.Is(err, ErrShuttingDown) {
			t.Fatalf("%s of drained ID: err %v, want ErrShuttingDown", name, err)
		}
		if errors.Is(err, ErrUnknownSession) || strings.Contains(err.Error(), "unknown session") {
			t.Fatalf("%s of drained ID claims unknown: %v", name, err)
		}
	}
}

func errOf(f func() error) error { return f() }

// TestManagerConcurrentStorm drives many goroutines against shared and
// distinct sessions under -race: steps on one session serialize, totals
// add up, and nothing panics.
func TestManagerConcurrentStorm(t *testing.T) {
	ctx := context.Background()
	f := testFixture(t)
	cfg := f.cfg
	cfg.Seasons = 8
	m := NewManager(ManagerConfig{})
	const sessions = 3
	ids := make([]string, sessions)
	for i := range ids {
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := m.Create(e)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = snap.ID
	}
	eff := uniformEffort(f.cells)
	var wg sync.WaitGroup
	errCh := make(chan error, sessions*4*cfg.Seasons)
	for _, id := range ids {
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(id string) {
				defer wg.Done()
				for {
					_, _, done, err := m.Step(ctx, id, eff)
					if errors.Is(err, ErrDone) {
						return
					}
					if err != nil {
						errCh <- err
						return
					}
					if done {
						return
					}
					if _, err := m.Get(id); err != nil {
						errCh <- err
						return
					}
				}
			}(id)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Steps != int64(sessions*cfg.Seasons) {
		t.Fatalf("stats count %d steps, want %d (each session exactly Seasons times)", st.Steps, sessions*cfg.Seasons)
	}
	if st.Active != 0 {
		t.Fatalf("%d sessions still active after every episode finished", st.Active)
	}
}

// TestManagerShutdownWaitsForInflight: Shutdown returns only after the
// in-flight step completes. The test holds the session's mutex so the step
// parks inside Step, past its lookup, before Shutdown starts.
func TestManagerShutdownWaitsForInflight(t *testing.T) {
	ctx := context.Background()
	f := testFixture(t)
	clock := &fakeClock{t: time.Unix(1000, 0)}
	m := NewManager(ManagerConfig{now: clock.now})
	snap, err := m.Create(newSessionEnv(t))
	if err != nil {
		t.Fatal(err)
	}
	m.mu.Lock()
	s := m.sessions[snap.ID]
	m.mu.Unlock()
	s.mu.Lock()
	clock.advance(time.Second)
	stamp := clock.now()
	stepped := make(chan error, 1)
	go func() {
		_, _, _, err := m.Step(ctx, snap.ID, uniformEffort(f.cells))
		stepped <- err
	}()
	// Step stamps lastUsed in the critical section that counts the step in
	// flight, so once the stamp shows, Shutdown has a step to wait for.
	for {
		m.mu.Lock()
		inflight := s.lastUsed.Equal(stamp)
		m.mu.Unlock()
		if inflight {
			break
		}
		time.Sleep(time.Millisecond)
	}
	shut := make(chan error, 1)
	go func() { shut <- m.Shutdown(ctx) }()
	select {
	case err := <-shut:
		t.Fatalf("Shutdown returned (%v) while a step was in flight", err)
	case <-time.After(20 * time.Millisecond):
	}
	s.mu.Unlock()
	if err := <-stepped; err != nil {
		t.Fatalf("in-flight step failed across shutdown: %v", err)
	}
	if err := <-shut; err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.Sessions != 0 {
		t.Fatalf("sessions survived shutdown: %+v", st)
	}
}
