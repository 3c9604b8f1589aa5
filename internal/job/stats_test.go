package job

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestIDPrefixNamespacesJobs(t *testing.T) {
	m := NewManager(Config{Workers: 1, IDPrefix: "r1"})
	sub, err := m.Submit("noop", doneFn(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if sub.ID != "j-r1-000001" {
		t.Fatalf("prefixed id %q, want j-r1-000001", sub.ID)
	}
	if _, err := m.Wait(context.Background(), sub.ID); err != nil {
		t.Fatal(err)
	}
	// Default format is unchanged.
	m2 := NewManager(Config{Workers: 1})
	sub2, err := m2.Submit("noop", doneFn(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if sub2.ID != "j-000001" {
		t.Fatalf("unprefixed id %q, want j-000001", sub2.ID)
	}
}

func TestStatsTracksLoadAndMeanCost(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	if s := m.Stats(); s != (Stats{}) {
		t.Fatalf("fresh manager stats %+v, want zero", s)
	}
	release := make(chan struct{})
	started := make(chan struct{})
	blocker := func(ctx context.Context, publish func(Event)) (any, error) {
		close(started)
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, nil
	}
	sub1, err := m.Submit("block", blocker)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := m.Submit("queued", doneFn(0, 1)); err != nil {
		t.Fatal(err)
	}
	if s := m.Stats(); s.Running != 1 || s.Queued != 1 || s.Completed != 0 {
		t.Fatalf("mid-run stats %+v, want running=1 queued=1 completed=0", s)
	}
	close(release)
	if _, err := m.Wait(context.Background(), sub1.ID); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		s := m.Stats()
		if s.Completed == 2 && s.Running == 0 && s.Queued == 0 {
			if s.MeanJobSeconds <= 0 {
				t.Fatalf("mean job cost %v after two completions, want > 0", s.MeanJobSeconds)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stats never settled: %+v", s)
		}
		time.Sleep(time.Millisecond)
	}
	// A queued job canceled before running counts as completed but cannot
	// poison the runtime average.
	m2 := NewManager(Config{Workers: 1})
	rel2 := make(chan struct{})
	defer close(rel2)
	if _, err := m2.Submit("block", func(ctx context.Context, publish func(Event)) (any, error) {
		<-rel2
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	q, err := m2.Submit("queued", doneFn(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Cancel(q.ID); err != nil {
		t.Fatal(err)
	}
	if s := m2.Stats(); s.Completed != 1 || s.MeanJobSeconds != 0 {
		t.Fatalf("after queued-cancel: %+v, want completed=1 mean=0", s)
	}
}

// TestDrainReportsShuttingDownNotUnknown is the regression test for the
// reconnect-during-drain bug: once Shutdown begins, an event stream (or
// any lookup) naming a job that has already been drained away must see
// ErrShuttingDown — previously it saw ErrUnknownJob, telling a client with
// a perfectly valid job ID that its job never existed.
func TestDrainReportsShuttingDownNotUnknown(t *testing.T) {
	var clockMu sync.Mutex
	offset := time.Duration(0)
	clock := func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return time.Now().Add(offset)
	}
	m := NewManager(Config{Workers: 1, ResultTTL: time.Minute, now: clock})
	sub, err := m.Submit("quick", doneFn(0, "r"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Wait(context.Background(), sub.ID); err != nil {
		t.Fatal(err)
	}
	// Before shutdown an evicted ID is honestly unknown. (Get applies lazy
	// TTL eviction before the lookup.)
	clockMu.Lock()
	offset = 2 * time.Minute // jump past the TTL
	clockMu.Unlock()
	if _, err := m.Get(sub.ID); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("pre-shutdown evicted lookup: %v, want ErrUnknownJob", err)
	}
	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	// After shutdown the same lookup reports the drain, consistently with
	// what Submit would say.
	if _, _, _, err := m.EventsSince(sub.ID, 0); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("EventsSince during drain: %v, want ErrShuttingDown", err)
	}
	if _, err := m.Get(sub.ID); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("Get during drain: %v, want ErrShuttingDown", err)
	}
	if _, _, err := m.Result(sub.ID); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("Result during drain: %v, want ErrShuttingDown", err)
	}
	if _, err := m.Cancel(sub.ID); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("Cancel during drain: %v, want ErrShuttingDown", err)
	}
	if _, err := m.Wait(context.Background(), sub.ID); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("Wait during drain: %v, want ErrShuttingDown", err)
	}
	if err := m.Remove(sub.ID); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("Remove during drain: %v, want ErrShuttingDown", err)
	}
	if _, _, _, err := m.EventsSince("j-999999", 0); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("never-existed lookup during drain: %v, want ErrShuttingDown", err)
	}
}
