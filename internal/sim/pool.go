package sim

// poolBlock is how many records one Pool refill allocates.
const poolBlock = 64

// Pool is a single-goroutine record freelist over block-carved storage:
// fresh records come from blocks, one allocation per poolBlock records
// rather than one per record, and a record given back with Put is the
// next one New returns. The kernel's events, netsim's delivery records,
// the protocol layer's per-query and per-round records and item states
// all come from one. A record is Put exactly once, where its work is
// resolved (DESIGN.md "Record lifecycle"): the resolver cancels the
// record's pending timeout, and a cancelled timer never fires, so no
// firing reaches a record that was Put. One that is never Put is never
// handed out again, and a block is collected once nothing points into
// it. The zero Pool is ready to use.
type Pool[T any] struct {
	free  []*T
	block []T
	// live counts the records New handed out that were not Put back.
	live int
}

// Reserve makes the next n fresh records come from one block, for a
// caller that knows how many it is about to draw.
func (p *Pool[T]) Reserve(n int) {
	if len(p.block) < n {
		p.block = make([]T, n)
	}
}

// New returns the record most recently Put, exactly as Put left it (the
// caller resets what it reuses), or else a fresh zeroed one.
func (p *Pool[T]) New() *T {
	p.live++
	if last := len(p.free) - 1; last >= 0 {
		r := p.free[last]
		p.free[last] = nil
		p.free = p.free[:last]
		return r
	}
	if len(p.block) == 0 {
		p.block = make([]T, poolBlock)
	}
	r := &p.block[0]
	p.block = p.block[1:]
	return r
}

// Put gives r back for New to hand out again. The caller must hold no
// pointer to r that it will read after the next New.
func (p *Pool[T]) Put(r *T) {
	p.live--
	p.free = append(p.free, r)
}

// PoolAudit is one pool's lifecycle check: how many records New handed
// out that were not Put back, and whether some record sits in the
// freelist twice — it was Put twice, so New would give it to two holders.
type PoolAudit struct {
	Name    string
	Live    int
	Doubled bool
}

// Audit checks the pool's lifecycle under name. It walks the freelist
// with a set, so it is for tests and end-of-run checks, not hot paths.
func (p *Pool[T]) Audit(name string) PoolAudit {
	a := PoolAudit{Name: name, Live: p.live}
	seen := make(map[*T]bool, len(p.free))
	for _, r := range p.free {
		if seen[r] {
			a.Doubled = true
			break
		}
		seen[r] = true
	}
	return a
}

// Carve returns the next n elements of *chunk, zeroed, first starting a
// fresh chunk of capacity max(n, size) when fewer than n are left: many
// small slices from one allocation. A full chunk is left to the slices
// that point into it; nothing carved is handed out twice.
func Carve[T any](chunk *[]T, n, size int) []T {
	if cap(*chunk)-len(*chunk) < n {
		*chunk = make([]T, 0, max(n, size))
	}
	start := len(*chunk)
	*chunk = (*chunk)[:start+n]
	return (*chunk)[start : start+n : start+n]
}

// rowChunk is the least number of entries one RowSlab chunk holds.
const rowChunk = 1024

// RowSlab carves growing int32 rows (cell lists, adjacency rows, relay
// sets, a broadcast's hearers) from shared chunks: a row that outgrows
// its room moves into at least twice the room at the end of the newest
// chunk, so rows that grow cost an allocation per chunk, not one per
// doubling. A row's old room is not handed out again; since a row's room
// at least doubles, what it left behind is less than the room it holds.
// The zero RowSlab is ready to use.
type RowSlab struct {
	chunk []int32
}

// Grow returns row, or a copy of it in fresh room, with room for at
// least n more entries.
func (s *RowSlab) Grow(row []int32, n int) []int32 {
	if cap(row)-len(row) >= n {
		return row
	}
	room := max(2*cap(row), len(row)+n, 4)
	return append(Carve(&s.chunk, room, rowChunk)[:0], row...)
}
