package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"rbcast/internal/seqset"
)

// flagRows is CLUSTER_i, CHILDREN_i and the parent as the peer records
// held them before they became bitsets: one flag per participant index,
// walked front to back.
type flagRows struct {
	parent         int // -1 for none
	cluster, child []bool
}

func (m *flagRows) neighbor(i int) bool { return m.child[i] || i == m.parent }

// ids lists peers[i] for every index keep accepts, front to back.
func (m *flagRows) ids(peers []HostID, keep func(i int) bool) []HostID {
	var out []HostID
	for i := range peers {
		if keep(i) {
			out = append(out, peers[i])
		}
	}
	return out
}

// TestMembershipWalksFollowIndexOrder: every walk over CLUSTER_i and
// CHILDREN_i reaches the same hosts in the same order as a walk of plain
// flag rows fed the same membership changes — at widths on both sides of
// a 64-bit word, with the host at the first and last bit of a word, the
// parent in another word than its children, and the parent inside the
// cluster and outside it.
func TestMembershipWalksFollowIndexOrder(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 128, 129, 512} {
		for _, me := range []int{0, 63, 64} {
			if me < n {
				t.Run(fmt.Sprintf("n=%d/me=%d", n, me), func(t *testing.T) { checkMembershipWalks(t, n, me) })
			}
		}
	}
}

func checkMembershipWalks(t *testing.T, n, me int) {
	peers := make([]HostID, n)
	for i := range peers {
		peers[i] = HostID(i + 1)
	}
	id := peers[me]
	var queue []fleetMsg
	h, err := NewHost(Config{ID: id, Source: peers[n-1], Peers: peers, Params: DefaultParams()}, fleetEnv{id: id, queue: &queue})
	if err != nil {
		t.Fatal(err)
	}
	h.Start(0)
	payload := []byte("held")
	for q := seqset.Seq(1); q <= 2; q++ {
		h.changeInfo().Add(q)
		h.store.Put(q, payload)
	}
	m := &flagRows{parent: -1, cluster: make([]bool, n), child: make([]bool, n)}
	m.cluster[me] = true
	const now = time.Second

	// Each membership change reaches the host through the handler that
	// makes it, and the rows by hand. A reject with no attachment in
	// progress does nothing but carry its cost bit.
	setCluster := func(j int, in bool) {
		h.HandleMessage(now, peers[j], !in, Message{Kind: MsgAttachReject})
		m.cluster[j] = in
	}
	report := func(j int, in bool, parent HostID) {
		h.HandleMessage(now, peers[j], !in, Message{Kind: MsgInfo, Parent: parent})
		m.cluster[j], m.child[j] = in, parent == id
	}
	detach := func(j int, in bool) {
		h.HandleMessage(now, peers[j], !in, Message{Kind: MsgDetach})
		m.cluster[j], m.child[j] = in, false
		if m.parent == j {
			m.parent = -1
		}
	}
	adopt := func(j int) { // what an accepted attachment leaves
		h.parent, m.parent = h.at(j), j
	}

	check := func(when string) {
		t.Helper()
		if got, want := h.Cluster(), m.ids(peers, func(i int) bool { return m.cluster[i] }); !slices.Equal(got, want) {
			t.Fatalf("%s: Cluster() = %v, the rows give %v", when, got, want)
		}
		if got, want := h.Children(), m.ids(peers, func(i int) bool { return m.child[i] }); !slices.Equal(got, want) {
			t.Fatalf("%s: Children() = %v, the rows give %v", when, got, want)
		}
		if got, want := h.IsLeader(), m.parent < 0 || !m.cluster[m.parent]; got != want {
			t.Fatalf("%s: IsLeader() = %v, the rows give %v", when, got, want)
		}
		// Every record holds {2} of the host's {1, 2}, so each walk sends
		// one frame to each host it reaches, parented or not.
		from := h.parent
		for _, w := range []struct {
			name string
			walk func()
			want func(i int) bool
		}{
			{"sendInfoLocal", h.sendInfoLocal, func(i int) bool { return m.cluster[i] && i != me }},
			{"sendInfoRemoteNeighbors", h.sendInfoRemoteNeighbors, func(i int) bool { return m.neighbor(i) && !m.cluster[i] }},
			{"cluster gap fill", func() { h.fillGapsOfAll(localNeighbors) }, func(i int) bool { return m.neighbor(i) && m.cluster[i] }},
			{"remote gap fill", func() { h.fillGapsOfAll(remoteNeighbors) }, func(i int) bool { return m.neighbor(i) && !m.cluster[i] }},
			{"forwardData downward", func() { h.forwardData(from, 1, payload, true) }, func(i int) bool { return m.child[i] && i != m.parent }},
			{"forwardData gap fill", func() { h.forwardData(from, 1, payload, false) }, func(i int) bool { return m.neighbor(i) && i != m.parent }},
		} {
			for _, p := range h.table {
				if p != nil {
					p.view = seqset.FromRange(2, 2)
				}
			}
			queue = queue[:0]
			w.walk()
			var got []HostID
			for _, msg := range queue {
				got = append(got, msg.to)
			}
			if want := m.ids(peers, w.want); !slices.Equal(got, want) {
				t.Fatalf("%s: %s sent to %v, the rows give %v", when, w.name, got, want)
			}
		}
		// The attachment options pick from the cluster: half the records
		// hold more than the host, half as much.
		for i, p := range h.table {
			if p != nil {
				p.view = seqset.FromRange(1, seqset.Seq(2+i%2))
			}
		}
		leader := func(j *peer) bool {
			pj := h.lookup(j.parentView)
			return pj == nil || !m.cluster[pj.idx]
		}
		for _, opt := range []struct {
			name string
			pick func(time.Duration) *peer
			keep func(j *peer) bool
		}{
			{"optSameClusterLeaderGreater", h.optSameClusterLeaderGreater, func(j *peer) bool { return seqset.Less(h.info, j.view) }},
			{"optSameClusterLeaderSimilarHigherOrder", h.optSameClusterLeaderSimilarHigherOrder,
				func(j *peer) bool { return seqset.Similar(h.info, j.view) && h.orderOf(h.me) < h.orderOf(j) }},
		} {
			var want *peer
			for i, in := range m.cluster {
				if j := h.table[i]; in && h.eligible(now, j) && leader(j) && opt.keep(j) {
					want = h.better(want, j)
				}
			}
			if got := opt.pick(now); got != want {
				t.Fatalf("%s: %s picked %d, the rows give %d", when, opt.name, idOf(got), idOf(want))
			}
		}
	}

	check("fresh host")
	if n == 1 {
		return
	}
	// The parent sits in the last word; the children, inside the cluster
	// and out, in the others where there are others.
	var others []int
	for _, i := range []int{0, 1, 62, 63, 64, 65, 127, 128, 129, n - 1} {
		if i < n && i != me && !slices.Contains(others, i) {
			others = append(others, i)
		}
	}
	parent := others[len(others)-1]
	for k, c := range others[:len(others)-1] {
		if c>>6 != parent>>6 || parent < 64 {
			report(c, k%2 == 0, id)
		}
	}
	check("children placed")
	adopt(parent)
	report(parent, true, Nil)
	check("parent inside the cluster")
	setCluster(parent, false)
	check("parent outside the cluster")

	rng := rand.New(rand.NewSource(int64(n<<8 | me)))
	for step := range 80 {
		j := rng.Intn(n - 1)
		if j >= me {
			j++
		}
		in := rng.Intn(2) == 0
		switch rng.Intn(4) {
		case 0:
			setCluster(j, in)
		case 1:
			report(j, in, []HostID{id, Nil, peers[rng.Intn(n)]}[rng.Intn(3)])
		case 2:
			detach(j, in)
		case 3:
			if in {
				adopt(j)
			} else {
				h.parent, m.parent = nil, -1
			}
		}
		check(fmt.Sprintf("step %d", step))
	}
}
