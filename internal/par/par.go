// Package par is the deterministic parallel-execution substrate of the PAWS
// pipeline. It provides a bounded worker pool over index spaces with
// index-ordered results, so every caller gets byte-identical output no matter
// how many workers run, plus seed pre-derivation helpers that let random
// work fan out without perturbing the sequential draw order.
//
// The determinism contract has two halves:
//
//  1. Results are written to slots owned by their task index, never appended
//     in completion order, so output layout is independent of scheduling.
//  2. Any randomness a task needs is derived BEFORE fan-out by draining seeds
//     from the parent stream in index order (SeedsFrom). Task i
//     therefore sees the same seed whether it runs first, last, or alone.
//
// Under this contract, Workers(1) and Workers(N) runs of the same
// computation produce identical floats, which the determinism tests in the
// root package assert for every model kind.
//
// Worker-count semantics, shared by every Workers/Config.Workers field in
// the repo: a value ≥ 1 is used as-is (1 means inline sequential execution,
// no goroutines); 0 or negative means one worker per available CPU
// (runtime.GOMAXPROCS(0)), so `GOMAXPROCS=4 go test` or `-cpu 4` scale the
// whole pipeline without touching any option struct.
//
// The Ctx variants (ForEachCtx, ForEachErrCtx, MapErrCtx, ForEachSliceCtx)
// additionally observe a context.Context between tasks: once the context is
// done no new task starts, tasks already in flight are drained (they run to
// completion before the call returns, and no worker goroutine outlives the
// call), and the context's error is returned. This is how request deadlines
// reach mid-sweep into training and map generation.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"paws/internal/rng"
)

// Workers resolves a requested worker count: n ≥ 1 is used as-is; 0 or
// negative selects one worker per available CPU (GOMAXPROCS).
func Workers(n int) int {
	if n >= 1 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// ForEach runs fn(i) for every i in [0, n) on up to workers goroutines
// (resolved by Workers). With one worker it runs inline on the calling
// goroutine. fn must confine its writes to data owned by index i; under that
// discipline the result is identical for any worker count.
func ForEach(workers, n int, fn func(i int)) {
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// ForEachCtx is ForEach under a context: no new task starts once ctx is
// done, but tasks already in flight run to completion before the call
// returns (callers may free task-owned memory immediately after), and every
// worker goroutine has exited by then — cancellation never leaks goroutines.
// It returns nil when all n tasks ran, or ctx.Err() when the sweep was cut
// short (and, racily, when cancellation lands after the last task; callers
// treat both as a canceled sweep). A nil ctx runs uncancelled.
func ForEachCtx(ctx context.Context, workers, n int, fn func(i int)) error {
	if ctx == nil {
		ForEach(workers, n, fn)
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(i)
		}
		return nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	// Drain: wait for in-flight tasks even after cancellation, so fn never
	// runs concurrently with whatever the caller does on error return.
	wg.Wait()
	if int(next.Load()) < n {
		return ctx.Err()
	}
	return nil
}

// ForEachErrCtx is ForEachCtx for fallible tasks. Every task that starts
// runs regardless of other tasks' failures; the returned error is the one
// from the lowest failing index, so error reporting is deterministic under
// any interleaving. The context error takes precedence over task errors:
// once the sweep is cut short, which tasks ran (and therefore which task
// errors exist) depends on scheduling, so reporting ctx.Err() is the only
// deterministic choice.
func ForEachErrCtx(ctx context.Context, workers, n int, fn func(i int) error) error {
	errs := make([]error, n)
	if err := ForEachCtx(ctx, workers, n, func(i int) { errs[i] = fn(i) }); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Map collects fn(i) for i in [0, n) into a slice in index order.
func Map[T any](workers, n int, fn func(i int) T) []T {
	out := make([]T, n)
	ForEach(workers, n, func(i int) { out[i] = fn(i) })
	return out
}

// MapErrCtx is Map for fallible tasks under a context, with
// ForEachErrCtx's error precedence. On any error the partial results are
// discarded.
func MapErrCtx[T any](ctx context.Context, workers, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEachErrCtx(ctx, workers, n, func(i int) error {
		v, err := fn(i)
		out[i] = v
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ForEachSliceCtx runs fn(lo, hi) over [0, n) in contiguous chunks of at
// most `chunk` indices, scheduled dynamically over the worker pool with
// cancellation observed between chunks. The fixed chunk size, not one chunk
// per worker, bounds how much work starts after ctx is canceled, which is
// what gives long batch sweeps (risk maps, batched prediction) a deadline
// with useful granularity.
// Chunk boundaries must not affect fn's per-index output; every batch
// prediction path in this repo satisfies that (per-row arithmetic is
// independent of batch composition), so results stay byte-identical for any
// chunk size and worker count.
func ForEachSliceCtx(ctx context.Context, workers, n, chunk int, fn func(lo, hi int)) error {
	if chunk <= 0 {
		chunk = 256
	}
	nChunks := (n + chunk - 1) / chunk
	return ForEachCtx(ctx, workers, nChunks, func(c int) {
		lo := c * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		fn(lo, hi)
	})
}

// SeedsFrom drains n seeds from an existing stream in index order. Drawing
// all seeds before fan-out is what keeps parallel execution byte-identical
// to sequential: task i receives the same seed regardless of worker count
// or completion order. Because it draws from the caller's stream, a parent
// that interleaves seed draws with other sampling keeps its historical draw
// order exactly.
func SeedsFrom(r *rng.RNG, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = r.Int63()
	}
	return out
}
