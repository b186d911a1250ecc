package engine

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

// TestForEachCtx pins the worker pool's contract at every small size
// and worker count: each index runs exactly once, a context cancelled
// before the call runs nothing, and a cancel from inside fn stops
// further claims, returns context.Canceled and never runs an index
// twice.
func TestForEachCtx(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 1000} {
		for _, workers := range []int{0, 1, 2, 8} {
			t.Run(fmt.Sprintf("n=%d/workers=%d", n, workers), func(t *testing.T) {
				runs := make([]atomic.Int32, n)
				if err := ForEachCtx(context.Background(), n, workers, func(i int) { runs[i].Add(1) }); err != nil {
					t.Fatalf("uncancelled run returned %v", err)
				}
				for i := range runs {
					if c := runs[i].Load(); c != 1 {
						t.Fatalf("index %d ran %d times, want 1", i, c)
					}
				}

				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				var ran atomic.Int32
				if err := ForEachCtx(ctx, n, workers, func(int) { ran.Add(1) }); !errors.Is(err, context.Canceled) {
					t.Fatalf("pre-cancelled run returned %v, want context.Canceled", err)
				}
				if c := ran.Load(); c != 0 {
					t.Fatalf("pre-cancelled run ran %d indices, want 0", c)
				}

				if n == 0 {
					return
				}
				ctx, cancel = context.WithCancel(context.Background())
				defer cancel()
				runs = make([]atomic.Int32, n)
				at := n / 2
				err := ForEachCtx(ctx, n, workers, func(i int) {
					runs[i].Add(1)
					if i == at {
						cancel()
					}
				})
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("run cancelled from fn returned %v, want context.Canceled", err)
				}
				for i := range runs {
					if c := runs[i].Load(); c > 1 {
						t.Fatalf("index %d ran %d times after a cancel, want at most 1", i, c)
					}
				}
				if runs[at].Load() != 1 {
					t.Fatalf("cancelling index %d did not run", at)
				}
			})
		}
	}
}
