// Package determinism is a shadowvet test fixture. The test harness
// analyzes it under the import path of a simulation package, so every
// seeded violation below must be flagged.
package determinism

import (
	"math/rand" // want:determinism
	"time"
)

func wallClock() int64 {
	return time.Now().UnixNano() // want:determinism
}

func elapsed(t0 time.Time) time.Duration {
	return time.Since(t0) // want:determinism
}

func globalRand() int {
	rand.Seed(42)     // want:determinism
	return rand.Int() // want:determinism
}

func reduceUnordered(m map[int]int) int {
	total := 0
	for _, v := range m {
		total += v // want:determinism
	}
	return total
}

func appendUnordered(m map[int]int) []int {
	var order []int
	for k := range m {
		order = append(order, k) // want:determinism
	}
	return order
}

type state struct{ last int }

func fieldWrite(s *state, m map[int]int) {
	for k := range m {
		s.last = k // want:determinism
	}
}

func earlyReturn(m map[int]int) int {
	for k := range m {
		return k // want:determinism
	}
	return -1
}

// The runtime picks among ready select cases pseudo-randomly.
func waitTwo(a, b chan int) int {
	select { // want:determinism
	case v := <-a:
		return v
	case v := <-b:
		return v
	}
}
