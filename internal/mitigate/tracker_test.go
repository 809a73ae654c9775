package mitigate

import (
	"fmt"
	"testing"

	"shadow/internal/rng"
)

// mapTracker is the map-based Space-Saving tracker the heap replaced: every
// eviction, Top and Mitigated walks the whole table. It is the reference
// that TestTrackerMatchesMapOracle holds Tracker to.
type mapTracker struct {
	cap    int
	counts map[int]int64
	total  int64
}

func newMapTracker(capacity int) *mapTracker {
	return &mapTracker{cap: capacity, counts: make(map[int]int64, capacity)}
}

func (t *mapTracker) Observe(row int) int64 {
	t.total++
	if c, ok := t.counts[row]; ok {
		t.counts[row] = c + 1
		return c + 1
	}
	if len(t.counts) < t.cap {
		t.counts[row] = 1
		return 1
	}
	minRow, minCount := -1, int64(1)<<62
	for r, c := range t.counts {
		if c < minCount || (c == minCount && r < minRow) {
			minRow, minCount = r, c //shadowvet:ignore determinism -- order-independent min reduction (key tie-break)
		}
	}
	delete(t.counts, minRow)
	t.counts[row] = minCount + 1
	return minCount + 1
}

func (t *mapTracker) Top() (row int, count int64, ok bool) {
	best, bestC := -1, int64(-1)
	for r, c := range t.counts {
		if c > bestC || (c == bestC && r < best) {
			best, bestC = r, c //shadowvet:ignore determinism -- order-independent max reduction (key tie-break)
		}
	}
	if best < 0 {
		return 0, 0, false
	}
	return best, bestC, true
}

func (t *mapTracker) Mitigated(row int) {
	if _, ok := t.counts[row]; !ok {
		return
	}
	min := int64(1) << 62
	for _, c := range t.counts {
		if c < min {
			min = c //shadowvet:ignore determinism -- pure min over values, order-independent
		}
	}
	t.counts[row] = min
}

func (t *mapTracker) Remove(row int) { delete(t.counts, row) }

func (t *mapTracker) Reset() {
	t.counts = make(map[int]int64, t.cap)
	t.total = 0
}

// checkHeap fails t unless tr is a min-heap on (count, row) whose index
// names every entry's slot.
func checkHeap(t *testing.T, tr *Tracker) {
	t.Helper()
	if len(tr.rows) != len(tr.counts) || len(tr.index) != len(tr.rows) {
		t.Fatalf("sizes: %d rows, %d counts, %d indexed", len(tr.rows), len(tr.counts), len(tr.index))
	}
	for i, r := range tr.rows {
		if tr.index[r] != i {
			t.Fatalf("row %d at slot %d indexed at %d", r, i, tr.index[r])
		}
		if i > 0 && tr.less(i, (i-1)/2) {
			t.Fatalf("slot %d (count %d, row %d) orders before its parent", i, tr.counts[i], r)
		}
	}
}

// TestTrackerMatchesMapOracle drives the heap tracker and the map oracle
// with one generated operation sequence per capacity and requires equal
// return values and equal Count, Len and Total after every operation. Rows
// come from four times the capacity, a fifth of the Observes from a small
// hot set, so the stream mixes hits, evictions and diverging counts. Each
// sequence must fill its table, so evictions are exercised at every size.
func TestTrackerMatchesMapOracle(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 8, 256, 2048} {
		t.Run(fmt.Sprint(capacity), func(t *testing.T) {
			src := rng.NewCSPRNG(uint64(capacity))
			tr, ref := NewTracker(capacity), newMapTracker(capacity)
			span := 4 * capacity
			hot := capacity/4 + 1
			ops := 4000 + 8*capacity
			full := false
			for op := 0; op < ops; op++ {
				row := rng.Intn(src, span)
				var what string
				switch k := rng.Intn(src, 1000); {
				case k < 850:
					if k < 170 {
						row = rng.Intn(src, hot)
					}
					what = "Observe"
					if got, want := tr.Observe(row), ref.Observe(row); got != want {
						t.Fatalf("op %d: Observe(%d) = %d, want %d", op, row, got, want)
					}
				case k < 900:
					what = "Top"
					gr, gc, gok := tr.Top()
					wr, wc, wok := ref.Top()
					if gr != wr || gc != wc || gok != wok {
						t.Fatalf("op %d: Top = (%d, %d, %v), want (%d, %d, %v)", op, gr, gc, gok, wr, wc, wok)
					}
				case k < 940:
					what = "Mitigated"
					if r, _, ok := ref.Top(); ok && k%2 == 0 {
						row = r // Mithril mitigates the top row
					}
					tr.Mitigated(row)
					ref.Mitigated(row)
				case k < 999:
					what = "Remove"
					tr.Remove(row)
					ref.Remove(row)
				default:
					what = "Reset"
					tr.Reset()
					ref.Reset()
				}
				full = full || tr.Len() == capacity
				probe := rng.Intn(src, span)
				if tr.Count(row) != ref.counts[row] || tr.Count(probe) != ref.counts[probe] ||
					tr.Len() != len(ref.counts) || tr.Total() != ref.total {
					t.Fatalf("op %d (%s %d): Count %d/%d, Count(%d) %d/%d, Len %d/%d, Total %d/%d (heap/oracle)",
						op, what, row, tr.Count(row), ref.counts[row], probe, tr.Count(probe), ref.counts[probe],
						tr.Len(), len(ref.counts), tr.Total(), ref.total)
				}
				if op%64 == 0 || op == ops-1 {
					checkHeap(t, tr)
					for r, c := range ref.counts {
						if tr.Count(r) != c {
							t.Fatalf("op %d: Count(%d) = %d, want %d", op, r, tr.Count(r), c)
						}
					}
				}
			}
			if !full {
				t.Fatalf("the table never filled to %d entries", capacity)
			}
		})
	}
}

// fullTracker returns a 256-entry tracker warmed by a miss-heavy stream over
// 4096 rows, and that stream for further use.
func fullTracker() (*Tracker, []int) {
	src := rng.NewCSPRNG(99)
	rows := make([]int, 1<<16)
	for i := range rows {
		rows[i] = rng.Intn(src, 4096)
	}
	tr := NewTracker(256)
	for _, r := range rows {
		tr.Observe(r)
	}
	return tr, rows
}

// TestTrackerSteadyStateAllocs: once full, Observe allocates nothing, and a
// Reset followed by a refill reuses the table's storage.
func TestTrackerSteadyStateAllocs(t *testing.T) {
	tr, rows := fullTracker()
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		tr.Observe(rows[i%len(rows)])
		i++
	}); n != 0 {
		t.Errorf("Observe on a full tracker: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() {
		tr.Reset()
		for r := 0; r < tr.Cap(); r++ {
			tr.Observe(r)
		}
	}); n != 0 {
		t.Errorf("Reset and refill: %v allocs/op, want 0", n)
	}
}

// BenchmarkTrackerObserve times Observe on a full Mithril-area-sized table
// (256 entries) under a miss-heavy stream, the case that evicts.
func BenchmarkTrackerObserve(b *testing.B) {
	tr, rows := fullTracker()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Observe(rows[i%len(rows)])
	}
}
