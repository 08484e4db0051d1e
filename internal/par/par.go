// Package par holds the dependency-free parallel fan-out primitive the
// engine's cell sweeps run on. It is the one place deterministic code
// may spawn goroutines (arrowlint's determinism check exempts only this
// package), so the dynamic work claiming exists once.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ParallelMap invokes fn(i) for every i in [0, n) across a pool of
// workers (0 or negative = GOMAXPROCS) and returns once all calls
// finished. Calls are claimed dynamically, so uneven costs balance
// across workers; fn must write its result into its own index of a
// pre-sized slice (no two calls share an index, so no locking is needed).
func ParallelMap(n, workers int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
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

// ParallelMapErr is ParallelMap for fallible work: it collects every
// call's error and returns the first one in index order (nil when all
// succeeded).
func ParallelMapErr(n, workers int, fn func(i int) error) error {
	errs := make([]error, n)
	ParallelMap(n, workers, func(i int) { errs[i] = fn(i) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
