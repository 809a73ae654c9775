package memctrl

// Synchronous writes are the simulator hot path; only asynchronous
// contexts are checked.
func synchronousWrite(c *Controller) {
	c.dirty = true
	c.items = append(c.items, 7)
}

func guardedGoroutineWrite(c *Controller) {
	go func() {
		c.mu.Lock()
		c.dirty = true
		c.items = c.items[:0]
		c.mu.Unlock()
	}()
}

func guardedCallbackWrite(c *Controller, each func(fn func())) {
	each(func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.items = append(c.items, 1)
	})
}

// Reads are not writes: publishing a snapshot needs no guard here.
func readInGoroutine(c *Controller, out chan int) {
	go func() {
		out <- len(c.items)
	}()
}

// Unregistered types are out of scope however they are shared.
type scratch struct{ n int }

func unregisteredType(s *scratch) {
	go func() {
		s.n = 1
	}()
}

// A waiver records the synchronization the analyzer cannot see.
func externallySerialized(c *Controller) {
	go func() {
		c.dirty = true //shadowvet:ignore sharedflow -- the spawner joins this goroutine before any other access
	}()
}
