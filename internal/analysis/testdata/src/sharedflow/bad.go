// Package memctrl masquerades as the real memory controller: sharedflow
// matches hot-path types by declaring-package name plus type name, so
// this fixture's Controller stands in for shadow/internal/memctrl.Controller.
package memctrl

import "sync"

type Controller struct {
	mu    sync.Mutex
	items []int
	dirty bool
}

func goroutineWrite(c *Controller) {
	go func() {
		c.dirty = true // want:sharedflow
	}()
}

func callbackWrite(c *Controller, each func(fn func())) {
	each(func() {
		c.items = append(c.items, 1) // want:sharedflow
	})
}

func incDecThroughIndex(c *Controller) {
	go func() {
		c.items[0]++ // want:sharedflow
	}()
}

func lockReleasedTooEarly(c *Controller) {
	go func() {
		c.mu.Lock()
		c.items = c.items[:0]
		c.mu.Unlock()
		c.dirty = false // want:sharedflow
	}()
}
