package lockflow

// A waived lockflow finding: the lock is handed to the caller on purpose,
// and the directive names the analyzer it suppresses.

func handedToCaller(c *counter) {
	c.mu.Lock() //shadowvet:ignore lockflow -- acquired for the caller; released by releaseCounter when the batch completes
	c.n++
}

func releaseCounter(c *counter) {
	c.mu.Unlock()
}
