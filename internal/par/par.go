// Package par runs independent indexed work on all available cores
// without letting the worker count show in the results.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// For calls f(i) for every i in [0, n) on runtime.GOMAXPROCS(0)
// workers and returns the error of the smallest failing i. Indices are
// handed out in increasing order and workers stop taking new ones after
// a failure, so every index below a failing one still runs: the error
// returned does not depend on the worker count or on scheduling, and
// with one worker the calls are the serial loop's. Callers store each
// result by its index.
func For(n int, f func(i int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if errs[i] = f(i); errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
