package sim

import "testing"

type poolRec struct{ a, b int }

// TestPoolNewAfterPutIsLIFOUnreset: New hands back the records most
// recently Put, last in first out, exactly as they were left.
func TestPoolNewAfterPutIsLIFOUnreset(t *testing.T) {
	var p Pool[poolRec]
	r1, r2 := p.New(), p.New()
	r1.a, r2.a = 1, 2
	p.Put(r1)
	p.Put(r2)
	if got := p.New(); got != r2 || got.a != 2 {
		t.Fatalf("first New after Put = %p %+v, want r2 %p unreset", got, *got, r2)
	}
	if got := p.New(); got != r1 || got.a != 1 {
		t.Fatalf("second New after Put = %p %+v, want r1 %p unreset", got, *got, r1)
	}
	if got := p.New(); got == r1 || got == r2 || *got != (poolRec{}) {
		t.Fatalf("New on an empty freelist = %p %+v, want a fresh zero record", got, *got)
	}
}

// TestPoolNeverReissuesUnreturnedRecords: without Put, every New is a
// distinct zeroed record, so a pointer a caller still holds stays that
// record's however many more are drawn.
func TestPoolNeverReissuesUnreturnedRecords(t *testing.T) {
	var p Pool[poolRec]
	p.Reserve(10)
	seen := make(map[*poolRec]bool)
	for i := range 3*poolBlock + 10 {
		r := p.New()
		if seen[r] {
			t.Fatalf("New %d reissued a record that was never Put", i)
		}
		if *r != (poolRec{}) {
			t.Fatalf("New %d returned %+v, want a zero record", i, *r)
		}
		seen[r] = true
		r.a = i + 1
	}
}

// TestPoolCarvesBlocks: fresh records cost one malloc per block, and a
// Reserve makes the next n one malloc.
func TestPoolCarvesBlocks(t *testing.T) {
	var p Pool[poolRec]
	sink := make([]*poolRec, 10*poolBlock)
	if total := testing.AllocsPerRun(1, func() {
		p = Pool[poolRec]{}
		for i := range sink {
			sink[i] = p.New()
		}
	}); total != 10 {
		t.Errorf("%d fresh records cost %.0f mallocs, want 10", len(sink), total)
	}
	const n = 1000
	sink = make([]*poolRec, n)
	if total := testing.AllocsPerRun(1, func() {
		p = Pool[poolRec]{}
		p.Reserve(n)
		for i := range sink {
			sink[i] = p.New()
		}
	}); total != 1 {
		t.Errorf("Reserve(%d) then %d fresh records cost %.0f mallocs, want 1", n, n, total)
	}
}

// TestPoolAuditCountsLiveAndDoubledRecords: Audit reports the records
// handed out and not given back, and a record Put twice.
func TestPoolAuditCountsLiveAndDoubledRecords(t *testing.T) {
	var p Pool[poolRec]
	r1, r2, r3 := p.New(), p.New(), p.New()
	p.Put(r1)
	if a := p.Audit("recs"); a != (PoolAudit{Name: "recs", Live: 2}) {
		t.Fatalf("after 3 New and 1 Put: %+v, want 2 live and none doubled", a)
	}
	p.Put(r2)
	p.Put(r3)
	if a := p.Audit("recs"); a.Live != 0 || a.Doubled {
		t.Fatalf("after every record came back: %+v, want 0 live and none doubled", a)
	}
	p.Put(r2)
	if a := p.Audit("recs"); !a.Doubled {
		t.Fatalf("after r2 was Put twice: %+v, want doubled", a)
	}
}

// TestPoolLiveCountDoesNotAllocate: the live count New and Put keep costs
// no allocation once the freelist has room.
func TestPoolLiveCountDoesNotAllocate(t *testing.T) {
	var p Pool[poolRec]
	p.Put(p.New())
	if n := testing.AllocsPerRun(100, func() { p.Put(p.New()) }); n != 0 {
		t.Errorf("a New and Put cycle allocates %.0f times, want 0", n)
	}
}

// TestRowSlabGrowKeepsRowsApart: a row grown from the slab keeps its
// entries, at least doubles its room and never overlaps another row, and
// rows growing one entry at a time allocate once per chunk, not once per
// doubling.
func TestRowSlabGrowKeepsRowsApart(t *testing.T) {
	var s RowSlab
	rows := make([][]int32, 16)
	for i := range 64 {
		for r := range rows {
			before := cap(rows[r])
			rows[r] = append(s.Grow(rows[r], 1), int32(r*1000+i))
			if c := cap(rows[r]); c != before && c < 2*before {
				t.Fatalf("row %d grew from room %d to %d, want at least double", r, before, c)
			}
		}
	}
	for r, row := range rows {
		for i, v := range row {
			if v != int32(r*1000+i) {
				t.Fatalf("row %d entry %d = %d, want %d: rows overlap or lost entries", r, i, v, r*1000+i)
			}
		}
	}
	if got := s.Grow(rows[0][:2], 1); &got[0] != &rows[0][0] {
		t.Error("a row with room was moved")
	}
	if got := s.Grow(nil, 40); cap(got) < 40 {
		t.Errorf("Grow(nil, 40) has room %d, want at least 40", cap(got))
	}

	var fresh RowSlab
	total := testing.AllocsPerRun(1, func() {
		fresh = RowSlab{}
		rs := make([][]int32, 64)
		for i := range 64 {
			for r := range rs {
				rs[r] = append(fresh.Grow(rs[r], 1), int32(i))
			}
		}
	})
	// 64 rows of 64 entries hold 4 096 entries in less than 8 192 room:
	// at most eight chunks, plus the row headers' slice.
	if total > 9 {
		t.Errorf("64 rows growing to 64 entries allocate %.0f objects, want one per chunk", total)
	}
}
