package main

import (
	"sync"
	"time"
)

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// calILP runs four independent xorshift chains: throughput-bound integer
// work that slows when the core's other hardware thread is busy.
func calILP() uint64 {
	a, b, c, d := uint64(1), uint64(2), uint64(3), uint64(4)
	for i := 0; i < 6_000_000; i++ {
		a, b, c, d = xorshift(a), xorshift(b), xorshift(c), xorshift(d)
	}
	return a ^ b ^ c ^ d
}

// calHeap pushes and pops an array min-heap: branchy, cache-resident work
// like the simulator's event queues.
func calHeap() uint64 {
	h := make([]uint64, 0, 4096)
	x := uint64(11)
	push := func(v uint64) {
		h = append(h, v)
		for i := len(h) - 1; i > 0; {
			p := (i - 1) / 2
			if h[p] <= h[i] {
				break
			}
			h[p], h[i] = h[i], h[p]
			i = p
		}
	}
	pop := func() uint64 {
		top := h[0]
		n := len(h) - 1
		h[0] = h[n]
		h = h[:n]
		for i := 0; ; {
			l, m := 2*i+1, i
			if l < n && h[l] < h[m] {
				m = l
			}
			if l+1 < n && h[l+1] < h[m] {
				m = l + 1
			}
			if m == i {
				break
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
		return top
	}
	for i := 0; i < 4096; i++ {
		x = xorshift(x)
		push(x)
	}
	for i := 0; i < 300_000; i++ {
		x = xorshift(x)
		push(pop() + x%4096)
	}
	return h[0]
}

// calSink keeps the calibration kernels' results live.
var calSink uint64

// calibrate times a fixed piece of work on the given number of goroutines
// at once and returns the mean host seconds one goroutine took. The work
// never changes, so the result measures how fast the host runs code like the
// simulator's at that moment. On a shared machine that speed changes with
// other tenants' load, often by 1.5x within a minute.
func calibrate(workers int) float64 {
	var wg sync.WaitGroup
	times := make([]float64, workers)
	sinks := make([]uint64, workers)
	for w := range times {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			sinks[w] = calILP() ^ calHeap()
			times[w] = time.Since(start).Seconds()
		}()
	}
	wg.Wait()
	sum := 0.0
	for w, t := range times {
		sum += t
		calSink ^= sinks[w]
	}
	return sum / float64(workers)
}
