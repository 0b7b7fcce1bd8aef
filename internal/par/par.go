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
	return ForWith(n, func() struct{} { return struct{}{} }, func(_ struct{}, i int) error { return f(i) })
}

// ForWith is For with per-worker state: each worker calls newState
// once and passes the state to every f call it makes, so f can reuse
// storage (a simulated device, say) from one index to the next. f's
// result must not depend on which indices the state served before.
func ForWith[S any](n int, newState func() S, f func(s S, i int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := newState()
			for !failed.Load() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if errs[i] = f(s, i); errs[i] != nil {
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
