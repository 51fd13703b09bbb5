package core

import (
	"iter"
	"math/bits"
)

// CLUSTER_i and CHILDREN_i are sets of participants, and the host keeps
// them as sets: one bit per participant index in Host.sets, in pairs of
// words — word 2w holds the cluster's bits of indices 64w to 64w+63 and
// word 2w+1 the children's, so a participant's two bits sit side by
// side. They are the only record of either set. A walk over a set visits
// its bits in ascending index order — the table's own order, so no walk's
// order moved when the sets left the peer records — and reaches the few
// members a wide host has without reading the records of everyone else.

// members names a set a walk can visit. The neighbours are the host's
// parent-graph neighbours: its children and its parent.
type members uint8

const (
	cluster members = iota
	children
	neighbors
	localNeighbors  // neighbours in CLUSTER_i
	remoteNeighbors // neighbours outside CLUSTER_i
)

// bitOf returns where p's bits sit: i is the index of its cluster word in
// Host.sets (its children word is i+1) and b its bit in both.
func bitOf(p *peer) (i int, b uint64) { return int(p.idx>>6) << 1, 1 << (p.idx & 63) }

// inCluster reports whether p is in CLUSTER_i.
func (h *Host) inCluster(p *peer) bool {
	i, b := bitOf(p)
	return h.sets[i]&b != 0
}

// isChild reports whether p is in CHILDREN_i.
func (h *Host) isChild(p *peer) bool {
	i, b := bitOf(p)
	return h.sets[i+1]&b != 0
}

// setCluster puts p in CLUSTER_i, or takes it out.
func (h *Host) setCluster(p *peer, in bool) {
	i, b := bitOf(p)
	setBit(&h.sets[i], b, in)
}

// setChild puts p in CHILDREN_i, or takes it out.
func (h *Host) setChild(p *peer, in bool) {
	i, b := bitOf(p)
	setBit(&h.sets[i+1], b, in)
}

// setBit sets b in *w when in holds, and clears it otherwise.
func setBit(w *uint64, b uint64, in bool) {
	if in {
		*w |= b
	} else {
		*w &^= b
	}
}

// each visits the members of s in ascending index order. It reads a
// word when the walk reaches it; nothing a walk does changes either set —
// its sends are queued, and Env.Send never calls back into the host
// (DESIGN.md decision 9) — so it visits what a walk of the table reading
// each record's flags visited, in the same order.
func (h *Host) each(s members) iter.Seq[*peer] {
	return func(yield func(*peer) bool) {
		for w := 0; 2*w < len(h.sets); w++ {
			for word := h.word(s, w); word != 0; word &= word - 1 {
				if !yield(h.table[w<<6|bits.TrailingZeros64(word)]) {
					return
				}
			}
		}
	}
}

// outside visits, in ascending order, the indices of the participants in
// neither CLUSTER_i nor the host's parent-graph neighbourhood — whom a
// leader's global sweeps address — reading the membership words and not
// one record. The cluster includes the host itself.
func (h *Host) outside() iter.Seq[int] {
	return func(yield func(int) bool) {
		for w := 0; 2*w < len(h.sets); w++ {
			for word := ^(h.word(cluster, w) | h.word(neighbors, w)); word != 0; word &= word - 1 {
				i := w<<6 | bits.TrailingZeros64(word)
				if i >= len(h.peers) || !yield(i) {
					return
				}
			}
		}
	}
}

// word returns word w of the set s.
func (h *Host) word(s members, w int) uint64 {
	in, ch := h.sets[2*w], h.sets[2*w+1]
	if p := h.parent; s >= neighbors && p != nil && int(p.idx>>6) == w {
		ch |= 1 << (p.idx & 63)
	}
	switch s {
	case cluster:
		return in
	case localNeighbors:
		return ch & in
	case remoteNeighbors:
		return ch &^ in
	}
	return ch
}
