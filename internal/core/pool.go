package core

import (
	"sync"
	"sync/atomic"
)

// fanOut calls fn(i) for the slots i in [0, n) on up to workers
// goroutines, handing slots out in index order. Once a call returns
// false no further slot is handed out (calls already running finish),
// so the slots that ran always form a prefix of [0, n). With one worker
// or one slot it runs inline on the caller's goroutine. fn must write
// only state owned by its slot.
func fanOut(n, workers int, fn func(i int) bool) {
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if !fn(i) {
				return
			}
		}
		return
	}
	var stop atomic.Bool
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if !fn(i) {
					stop.Store(true)
				}
			}
		}()
	}
	for i := 0; i < n && !stop.Load(); i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}
