package mitigate

// Tracker is a Counter-based-Summary frequent-items tracker (the
// Space-Saving variant of the Misra-Gries family) as used per bank by
// Mithril (its "CbS algorithm") and by RRS's aggressor tracker. It
// guarantees that any row activated more than N/capacity times since the
// last reset is present in the table.
//
// The table is an indexed binary min-heap on (count, row): rows[0] and
// counts[0] hold the minimum count, the lowest row among equal counts, and
// index maps each tracked row to its slot. Eviction and the table minimum
// are the root, and a count change re-sifts one entry, so every operation
// but Top costs O(log capacity). The slices and the map grow as rows
// arrive, and Reset keeps their storage: a table sized for the worst case
// is mostly empty in short runs.
type Tracker struct {
	cap    int
	rows   []int
	counts []int64
	index  map[int]int
	total  int64
}

// NewTracker returns a tracker with the given entry capacity (the CAM size
// of the hardware implementation).
func NewTracker(capacity int) *Tracker {
	if capacity <= 0 {
		panic("mitigate: tracker capacity must be positive")
	}
	return &Tracker{cap: capacity, index: map[int]int{}}
}

// Cap returns the entry capacity.
func (t *Tracker) Cap() int { return t.cap }

// Total returns the number of Observe calls since the last Reset.
func (t *Tracker) Total() int64 { return t.total }

// Len returns the number of occupied entries.
func (t *Tracker) Len() int { return len(t.rows) }

// Observe records one activation of row and returns the row's current
// estimated count.
func (t *Tracker) Observe(row int) int64 {
	t.total++
	if i, ok := t.index[row]; ok {
		c := t.counts[i] + 1
		t.counts[i] = c
		t.down(i)
		return c
	}
	if len(t.rows) < t.cap {
		t.rows = append(t.rows, row)
		t.counts = append(t.counts, 1)
		t.up(len(t.rows) - 1)
		return 1
	}
	// Space-Saving replacement: evict a minimum-count entry and take over
	// its count + 1 (an overestimate, never an underestimate). The root is
	// the minimum count with the lowest row on ties, so the evicted entry
	// is a function of the table's contents alone.
	c := t.counts[0] + 1
	delete(t.index, t.rows[0])
	t.rows[0], t.counts[0] = row, c
	t.down(0)
	return c
}

// Count returns the estimated count of a row (0 if untracked).
func (t *Tracker) Count(row int) int64 {
	if i, ok := t.index[row]; ok {
		return t.counts[i]
	}
	return 0
}

// Top returns the row with the highest estimated count (the lowest row on
// ties), or ok=false when the table is empty.
func (t *Tracker) Top() (row int, count int64, ok bool) {
	best := -1
	for i, c := range t.counts {
		if best < 0 || c > t.counts[best] || (c == t.counts[best] && t.rows[i] < t.rows[best]) {
			best = i
		}
	}
	if best < 0 {
		return 0, 0, false
	}
	return t.rows[best], t.counts[best], true
}

// Mitigated informs the tracker that row received a mitigating action:
// per Mithril, its counter drops to the current table minimum so it must
// re-earn its position before being mitigated again.
func (t *Tracker) Mitigated(row int) {
	if i, ok := t.index[row]; ok {
		t.counts[i] = t.counts[0]
		t.up(i)
	}
}

// Remove drops a row from the table (RRS removes a row after swapping it).
func (t *Tracker) Remove(row int) {
	i, ok := t.index[row]
	if !ok {
		return
	}
	delete(t.index, row)
	last := len(t.rows) - 1
	moved, c := t.rows[last], t.counts[last]
	t.rows, t.counts = t.rows[:last], t.counts[:last]
	if i == last {
		return
	}
	// The last entry fills the hole and re-sifts from it.
	t.rows[i], t.counts[i] = moved, c
	t.up(i)
	t.down(t.index[moved])
}

// Reset clears the table (refresh-window boundary).
func (t *Tracker) Reset() {
	clear(t.index)
	t.rows, t.counts = t.rows[:0], t.counts[:0]
	t.total = 0
}

// less orders slots i and j by (count, row).
func (t *Tracker) less(i, j int) bool {
	return t.counts[i] < t.counts[j] || (t.counts[i] == t.counts[j] && t.rows[i] < t.rows[j])
}

// swap exchanges slots i and j and records the new slot of the entry that
// moved to i. The sifting entry, now at j, is recorded once it settles.
func (t *Tracker) swap(i, j int) {
	t.rows[i], t.rows[j] = t.rows[j], t.rows[i]
	t.counts[i], t.counts[j] = t.counts[j], t.counts[i]
	t.index[t.rows[i]] = i
}

// up sifts the entry at slot i toward the root and records its final slot.
func (t *Tracker) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !t.less(i, p) {
			break
		}
		t.swap(i, p)
		i = p
	}
	t.index[t.rows[i]] = i
}

// down sifts the entry at slot i toward the leaves and records its final
// slot.
func (t *Tracker) down(i int) {
	n := len(t.rows)
	for {
		m := i
		if l := 2*i + 1; l < n && t.less(l, m) {
			m = l
		}
		if r := 2*i + 2; r < n && t.less(r, m) {
			m = r
		}
		if m == i {
			break
		}
		t.swap(i, m)
		i = m
	}
	t.index[t.rows[i]] = i
}
