package determinism

import (
	"sort"
	"time"
)

// Duration arithmetic is fine; only wall-clock reads are banned.
const tick = 5 * time.Millisecond

// Keyed writes are order-independent: building one map from another is
// deterministic regardless of iteration order.
func copyMap(m map[int]int) map[int]int {
	out := make(map[int]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// The sanctioned pattern for ordered iteration: collect keys (waived — the
// sort directly below restores determinism), sort, then walk the slice.
func sortedSum(m map[int]int) int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k) //shadowvet:ignore determinism -- sorted immediately below
	}
	sort.Ints(keys)
	total := 0
	for _, k := range keys {
		total += m[k]
	}
	return total
}

// Slice iteration is ordered; reductions over it are fine.
func sliceSum(xs []int) int {
	total := 0
	for _, v := range xs {
		total += v
	}
	return total
}

// Loop-local accumulation inside a map range is fine.
func countLarge(m map[int]int) map[int]bool {
	out := map[int]bool{}
	for k, v := range m {
		big := v > 100
		out[k] = big
	}
	return out
}

// A single-case select with a default is a deterministic poll.
func tryRecv(c chan int) (int, bool) {
	select {
	case v := <-c:
		return v, true
	default:
		return 0, false
	}
}
