package core

import (
	"cmp"
	"fmt"
	"slices"
)

// Roster is the participant set of a run and its static linear order:
// facts about the run, not about one host ("hosts know the identity of
// all participants"). NewRoster checks them once, and a roster never
// changes afterwards, so every host of a run reads its membership from
// one Roster instead of holding a copy. ids is ascending and order[i] is
// the order of ids[i]; NewHost points Host.peers and Host.order at them.
type Roster struct {
	ids   []HostID
	order []int
}

// NewRoster builds the roster of peers, which need be neither sorted nor
// contiguous; its inputs are left as they were. order runs parallel to
// peers, and nil means order(i) = int(i). Ids must be positive and
// distinct, and so must orders.
func NewRoster(peers []HostID, order []int) (*Roster, error) {
	r := new(Roster)
	if err := r.build(peers, order); err != nil {
		return nil, err
	}
	return r, nil
}

// build is NewRoster into r: NewHost builds a Peers-only roster into one
// on its stack.
func (r *Roster) build(peers []HostID, order []int) error {
	if order != nil && len(order) != len(peers) {
		return fmt.Errorf("core: %d orders for %d peers", len(order), len(peers))
	}
	r.ids, r.order = slices.Clone(peers), make([]int, len(peers))
	if order == nil {
		slices.Sort(r.ids)
	} else {
		// Sort the positions by id, and read both rows through them.
		byID := make([]int, len(peers))
		for i := range byID {
			byID[i] = i
		}
		slices.SortFunc(byID, func(a, b int) int { return cmp.Compare(peers[a], peers[b]) })
		for i, k := range byID {
			r.ids[i], r.order[i] = peers[k], order[k]
		}
	}
	for i, p := range r.ids {
		switch {
		case p <= 0:
			return fmt.Errorf("core: invalid peer id %d", p)
		case i > 0 && p == r.ids[i-1]:
			return fmt.Errorf("core: duplicate peer %d", p)
		case order == nil:
			r.order[i] = int(p)
		}
	}
	// Without an override the orders are the ids, distinct already; an
	// override is checked pair by pair, once per run.
	for a := range order {
		if b := slices.Index(r.order[a+1:], r.order[a]); b >= 0 {
			return fmt.Errorf("core: peers %d and %d share order %d", r.ids[a], r.ids[a+1+b], r.order[a])
		}
	}
	return nil
}

// Peers returns the participants, ascending, in a slice of the caller's.
func (r *Roster) Peers() []HostID { return slices.Clone(r.ids) }

// has reports whether j is a participant.
func (r *Roster) has(j HostID) bool {
	_, ok := slices.BinarySearch(r.ids, j)
	return ok
}

// SharesRoster reports whether h and o read their participants from one
// Roster.
func (h *Host) SharesRoster(o *Host) bool { return &h.peers[0] == &o.peers[0] }
