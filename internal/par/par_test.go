package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"paws/internal/rng"
)

func TestWorkersResolution(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Fatalf("Workers(3) = %d", got)
	}
	if got := Workers(1); got != 1 {
		t.Fatalf("Workers(1) = %d", got)
	}
	want := runtime.GOMAXPROCS(0)
	if got := Workers(0); got != want {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS %d", got, want)
	}
	if got := Workers(-5); got != want {
		t.Fatalf("Workers(-5) = %d, want GOMAXPROCS %d", got, want)
	}
}

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		n := 101
		counts := make([]atomic.Int64, n)
		ForEach(workers, n, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForEachZeroAndTinyN(t *testing.T) {
	ran := 0
	ForEach(8, 0, func(i int) { ran++ })
	if ran != 0 {
		t.Fatalf("n=0 ran %d tasks", ran)
	}
	ForEach(8, 1, func(i int) { ran++ })
	if ran != 1 {
		t.Fatalf("n=1 ran %d tasks", ran)
	}
}

func TestMapIsIndexOrdered(t *testing.T) {
	for _, workers := range []int{1, 4} {
		got := Map(workers, 50, func(i int) int { return i * i })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
}

func TestForEachErrReturnsLowestIndexError(t *testing.T) {
	errAt := func(bad ...int) error {
		isBad := map[int]bool{}
		for _, b := range bad {
			isBad[b] = true
		}
		return ForEachErrCtx(context.Background(), 4, 20, func(i int) error {
			if isBad[i] {
				return fmt.Errorf("task %d failed", i)
			}
			return nil
		})
	}
	if err := errAt(); err != nil {
		t.Fatalf("no failures: %v", err)
	}
	// Regardless of scheduling, the lowest failing index wins.
	for trial := 0; trial < 20; trial++ {
		err := errAt(17, 3, 11)
		if err == nil || err.Error() != "task 3 failed" {
			t.Fatalf("trial %d: got %v, want task 3's error", trial, err)
		}
	}
}

func TestMapErrDiscardsPartialResults(t *testing.T) {
	sentinel := errors.New("boom")
	out, err := MapErrCtx(context.Background(), 2, 10, func(i int) (int, error) {
		if i == 5 {
			return 0, sentinel
		}
		return i, nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	if out != nil {
		t.Fatalf("expected nil results on error, got %v", out)
	}
}

func TestSeedsDeterministicAndIndexStable(t *testing.T) {
	a := SeedsFrom(rng.New(42), 8)
	b := SeedsFrom(rng.New(42), 8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("Seeds not deterministic at %d", i)
		}
	}
	// A longer drain shares the prefix: task i's seed does not depend on n.
	long := SeedsFrom(rng.New(42), 16)
	for i := range a {
		if a[i] != long[i] {
			t.Fatalf("seed %d depends on n", i)
		}
	}
	if SeedsFrom(rng.New(42), 4)[0] == SeedsFrom(rng.New(43), 4)[0] {
		t.Fatal("different roots should give different seeds")
	}
}
