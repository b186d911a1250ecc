package engine

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEach runs fn(i) for i in [0, n) on a bounded pool of worker
// goroutines and waits for all of them — the one worker-pool loop shared
// by the archive store's fan-outs, core.Pool and the experiment harness.
// workers <= 0 selects GOMAXPROCS; fn must be safe for concurrent
// invocation on distinct indices.
func ForEach(n, workers int, fn func(int)) {
	_ = ForEachCtx(context.Background(), n, workers, fn)
}

// ForEachCtx is ForEach with cooperative cancellation: once ctx is done
// no further indices are dispatched (indices already running finish —
// fn is never interrupted mid-call) and the context's error is
// returned. Indices that were never dispatched are simply skipped;
// callers that need per-index disposition should check ctx in fn.
//
// Dispatch needs no channel: each worker, the calling goroutine among
// them, checks ctx and then claims the next index from one shared
// atomic counter, so handing out an index costs one atomic add.
func ForEachCtx(ctx context.Context, n, workers int, fn func(int)) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	done := ctx.Done()
	var next atomic.Int64
	work := func() {
		for {
			select {
			case <-done:
				return
			default:
			}
			i := next.Add(1) - 1
			if i >= int64(n) {
				return
			}
			fn(int(i))
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return ctx.Err()
}
