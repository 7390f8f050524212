package sim

// slabBlock is how many records one Slab refill allocates.
const slabBlock = 64

// Slab hands out zeroed records of type T carved from blocks, one
// allocation per slabBlock records rather than one per record. It is how
// the protocol layer keeps its per-query and per-round state (queries,
// fetches, poll rounds) and its item states off the allocation path. A slot is
// never handed out twice, so a pointer a pending timer or a late reply
// still holds stays that record's; a block is collected once nothing
// points into it. The zero Slab is ready to use.
type Slab[T any] struct {
	block []T
}

// Reserve makes the next n records come from one block, for a caller that
// knows how many it is about to draw.
func (s *Slab[T]) Reserve(n int) {
	if len(s.block) < n {
		s.block = make([]T, n)
	}
}

// New returns a fresh zeroed record.
func (s *Slab[T]) New() *T {
	if len(s.block) == 0 {
		s.block = make([]T, slabBlock)
	}
	r := &s.block[0]
	s.block = s.block[1:]
	return r
}
