package mediator

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// fanOut runs task(0..n-1) across at most workers goroutines and waits
// for all of them. With workers <= 1 (or n <= 1) the tasks run inline
// on the calling goroutine, in index order, with no synchronization.
// Tasks must communicate results positionally (each task i writing only
// slot i of shared slices); fanOut itself imposes no ordering between
// tasks.
//
// A panic inside a task is captured and re-raised on the calling
// goroutine after all workers drain, so callers see the same crash
// semantics as a serial loop.
func fanOut(n, workers int, task func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			task(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var panicOnce sync.Once
	var panicked any
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() { panicked = r })
					// Drain the remaining indices so sibling workers
					// are not left waiting on work this goroutine
					// claimed but will never run.
					next.Store(int64(n))
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				task(i)
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(fmt.Sprintf("fanOut: task panicked: %v", panicked))
	}
}
