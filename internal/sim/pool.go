package sim

// poolBlock is how many records one Pool refill allocates.
const poolBlock = 64

// Pool is a single-goroutine record freelist over block-carved storage:
// fresh records come from blocks, one allocation per poolBlock records
// rather than one per record, and a record given back with Put is the
// next one New returns. The kernel's events, netsim's delivery records and
// the protocol layer's per-query and per-round state and item states all
// come from one. A record that is never Put is never handed out again, so
// a pointer a pending timer or a late reply still holds stays that
// record's; a block is collected once nothing points into it. The zero
// Pool is ready to use.
type Pool[T any] struct {
	free  []*T
	block []T
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
func (p *Pool[T]) Put(r *T) { p.free = append(p.free, r) }
