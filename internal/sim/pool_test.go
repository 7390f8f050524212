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
