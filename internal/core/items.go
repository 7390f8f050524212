package core

import (
	"slices"

	"github.com/manetlab/rpcc/internal/data"
)

// itemTable is one node's per-item protocol state: parallel slices kept
// strictly ascending by item id, which is the order coeffTick must walk
// (anything that sends messages per item has to visit them in an order
// that is a pure function of the seed). A node caches about ten items, so
// lookups scan; nothing depends on that size but the cost. Ids are held
// in four bytes: a state exists only for an item its node's store holds,
// and the store refuses ids beyond int32.
type itemTable struct {
	ids []int32
	sts []*itemState
}

// find returns the position of id in t, or the position it would be
// inserted at. An id beyond int32 (a malformed frame) is never found.
func (t *itemTable) find(id data.ItemID) (int, bool) {
	if int64(id) != int64(int32(id)) {
		return len(t.ids), false
	}
	id32 := int32(id)
	for i, have := range t.ids {
		if have >= id32 {
			return i, have == id32
		}
	}
	return len(t.ids), false
}

// sigBit is id's bit in a node's signature word.
func sigBit(id data.ItemID) uint64 { return 1 << (uint64(id) & 63) }

// getItem returns nd's state for id. A flood reaches thousands of nodes
// that do not hold the item, so the common answer is "no" and it is given
// from e.sigs alone: one word per node, dense enough to stay in cache where
// the nodes' own state does not. The word is a superset filter — bit id&63
// is set iff nd holds some id with that residue — so a clear bit is a
// certain miss and a set bit falls through to the table.
func (e *Engine) getItem(nd int, id data.ItemID) (*itemState, bool) {
	if e.sigs[nd]&sigBit(id) == 0 {
		return nil, false
	}
	t := &e.peers[nd].items
	if i, ok := t.find(id); ok {
		return t.sts[i], true
	}
	return nil, false
}

// putItem installs st as nd's state for id, replacing any previous one.
func (e *Engine) putItem(nd int, id data.ItemID, st *itemState) {
	t := &e.peers[nd].items
	i, ok := t.find(id)
	if ok {
		t.sts[i] = st
		return
	}
	t.ids = slices.Insert(t.ids, i, int32(id))
	t.sts = slices.Insert(t.sts, i, st)
	e.sigs[nd] |= sigBit(id)
}

// delItem removes and returns nd's state for id. Another held id may share
// the residue, so the signature word is rebuilt from what remains rather
// than having the bit cleared.
func (e *Engine) delItem(nd int, id data.ItemID) (*itemState, bool) {
	t := &e.peers[nd].items
	i, ok := t.find(id)
	if !ok {
		return nil, false
	}
	st := t.sts[i]
	t.ids = slices.Delete(t.ids, i, i+1)
	t.sts = slices.Delete(t.sts, i, i+1) // zeroes the vacated tail slot
	var sig uint64
	for _, have := range t.ids {
		sig |= sigBit(data.ItemID(have))
	}
	e.sigs[nd] = sig
	return st, true
}

// resetItems empties nd's table and signature word (crash: the node
// restarts cold), keeping the table's storage.
func (e *Engine) resetItems(nd int) {
	t := &e.peers[nd].items
	clear(t.sts)
	t.ids, t.sts = t.ids[:0], t.sts[:0]
	e.sigs[nd] = 0
}
