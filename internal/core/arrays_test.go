package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"rbcast/internal/allocs"
	"rbcast/internal/seqset"
)

// White-box coverage of the state the paper writes as arrays over the
// participant set: that the package keeps it in index space, and that
// the rows, flags and window behave as the maps they replaced did.

// TestCoreDeclaresNoMaps: the package's non-test code mentions no map
// type. A map keyed by HostID brings an iteration order with it that
// every loop then has to remember not to use; a row parallel to
// Host.peers cannot be walked in any order but the table's.
func TestCoreDeclaresNoMaps(t *testing.T) {
	names, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if m, ok := n.(*ast.MapType); ok {
				t.Errorf("%s: map type in package core; keep per-participant state in a row parallel to Host.peers or on the peer record",
					fset.Position(m.Pos()))
			}
			return true
		})
	}
}

// TestPeerRecordStaysInItsSizeClass: a run holds n² peer records, packed
// into slabs, so every word added to the record costs 8 n² bytes. The
// record is two cache lines, 128 bytes, with no slack: the exclusion flags
// sit in padding, the Delta-INFO state behind a pointer and the static
// order in Host.order. This is the check that the next field does too, or
// is worth what it costs.
func TestPeerRecordStaysInItsSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(peer{}); got > 128 {
		t.Errorf("peer record is %d bytes, was 128", got)
	}
}

// newHostCost is what NewHost allocates for a host over n participants:
// on a shared roster, or from a Peers list in descending order, which
// NewHost has to sort into a roster of its own.
func newHostCost(t *testing.T, n int, shared bool) (mallocs, bytes uint64) {
	t.Helper()
	peers := make([]HostID, n)
	for i := range peers {
		peers[i] = HostID(n - i)
	}
	cfg := Config{ID: 1, Source: 1, Peers: peers, Params: DefaultParams()}
	if shared {
		r, err := NewRoster(peers, nil)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Peers, cfg.Roster = nil, r
	}
	build := func() func() {
		return func() {
			if _, err := NewHost(cfg, nopEnv{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return allocs.Min(3, 1, build), allocs.MinBytes(3, 1, build)
}

// TestNewHostWideBudget: building a host over 512 participants from a
// Peers list sorts and checks the list in place — the roster's two rows,
// the table, the host, its own record and the words of its membership
// sets, and nothing proportional to n beyond them. (Two hash maps of n
// entries each used to be built and dropped here: 11 allocations, 51 KB,
// and most of harness.Prepare's time at 512 hosts.) On a shared roster
// the table is the host's only n-wide row: the host's 1 024 bytes, 8 per
// peer, and a KiB for its own record, the membership words and the
// allocator's rounding.
func TestNewHostWideBudget(t *testing.T) {
	for _, n := range []int{65, 512} {
		mallocs, bytes := newHostCost(t, n, false)
		if mallocs > 6 {
			t.Errorf("NewHost at %d peers: %d allocations, budget 6", n, mallocs)
		}
		if bytes > 20<<10 {
			t.Errorf("NewHost at %d peers allocated %d bytes, budget %d", n, bytes, 20<<10)
		}
		mallocs, bytes = newHostCost(t, n, true)
		if mallocs > 4 {
			t.Errorf("NewHost at %d peers on a shared roster: %d allocations, budget 4", n, mallocs)
		}
		if limit := uint64(2048 + 8*n); bytes > limit {
			t.Errorf("NewHost at %d peers on a shared roster allocated %d bytes, budget %d", n, bytes, limit)
		}
	}
}

// TestNewHostSmallBudget: up to 64 participants the membership sets are
// words inside Host, so a small host costs what it did when they were
// flags on the peer records — five allocations from a Peers list: the
// Host in its 1 024-byte size class, the roster's two rows, the table and
// the own record, 2 688 bytes at 64 peers (2 800 while the record took a
// 240-byte object). On a shared roster the two rows are not the host's:
// three allocations, 1 664 bytes at 64 peers. Every host of a soak seed
// is this small.
func TestNewHostSmallBudget(t *testing.T) {
	for _, n := range []int{1, 6, 64} {
		if mallocs, _ := newHostCost(t, n, false); mallocs != 5 {
			t.Errorf("NewHost at %d peers: %d allocations, want 5", n, mallocs)
		}
		if mallocs, _ := newHostCost(t, n, true); mallocs != 3 {
			t.Errorf("NewHost at %d peers on a shared roster: %d allocations, want 3", n, mallocs)
		}
	}
	if _, bytes := newHostCost(t, 64, false); bytes != 2688 {
		t.Errorf("NewHost at 64 peers allocated %d bytes, want 2 688", bytes)
	}
	if _, bytes := newHostCost(t, 64, true); bytes != 1664 {
		t.Errorf("NewHost at 64 peers on a shared roster allocated %d bytes, want 1 664", bytes)
	}
}

// TestHostsShareTheirRoster: a host built on a roster reads its
// participants and their orders from the roster's rows, not from copies,
// and so does every other host built on it; a host built from Peers has
// rows of its own.
func TestHostsShareTheirRoster(t *testing.T) {
	r, err := NewRoster([]HostID{3, 1, 2}, []int{30, 10, 20})
	if err != nil {
		t.Fatal(err)
	}
	var hosts []*Host
	for _, id := range []HostID{1, 2, 3} {
		h, err := NewHost(Config{ID: id, Source: 1, Roster: r}, nopEnv{})
		if err != nil {
			t.Fatal(err)
		}
		if &h.peers[0] != &r.ids[0] || &h.order[0] != &r.order[0] {
			t.Errorf("host %d copied the roster's rows", id)
		}
		hosts = append(hosts, h)
	}
	if !hosts[0].SharesRoster(hosts[2]) {
		t.Error("two hosts on one roster do not share it")
	}
	own, err := NewHost(Config{ID: 1, Source: 1, Peers: []HostID{1, 2, 3}}, nopEnv{})
	if err != nil {
		t.Fatal(err)
	}
	if own.SharesRoster(hosts[0]) {
		t.Error("a host built from Peers shares another host's roster")
	}
}

// TestPeerRecordsComeFromSlabs: a started host that touches every one of
// 512 participants — hearing from each does, in a cold wide run — allocates
// two 32 KiB slabs, not 511 records; the slabs hold exactly the records
// needed, 128 bytes each, and the last is rounded up by less than one
// record. A six-peer host makes one slab for the other five, in the size
// class their 640 bytes and the allocator's 8-byte header fall into.
func TestPeerRecordsComeFromSlabs(t *testing.T) {
	for _, tc := range []struct {
		n, budget int
		bytes     uint64
	}{{512, 2, 2 * 32 << 10}, {6, 1, 704}} {
		peers := make([]HostID, tc.n)
		for i := range peers {
			peers[i] = HostID(i + 1)
		}
		var h *Host
		touchAll := func() func() {
			var err error
			if h, err = NewHost(Config{ID: 2, Source: 1, Peers: peers, Params: DefaultParams()}, nopEnv{}); err != nil {
				t.Fatal(err)
			}
			h.Start(0)
			return func() {
				for i := range h.table {
					h.at(i)
				}
			}
		}
		if got := allocs.Min(3, 1, touchAll); got > uint64(tc.budget) {
			t.Errorf("touching all %d records: %v allocations in at, budget %d", tc.n, got, tc.budget)
		}
		if got := allocs.MinBytes(3, 1, touchAll); got > tc.bytes {
			t.Errorf("touching all %d records allocated %d bytes, budget %d", tc.n, got, tc.bytes)
		}
		if len(h.slab) != 0 {
			t.Errorf("%d records of the last slab are left over at %d peers", len(h.slab), tc.n)
		}
		seen := make(map[*peer]bool, tc.n)
		for i, p := range h.table {
			if p == nil || p.id != peers[i] || h.orderOf(p) != h.order[i] || seen[p] {
				t.Fatalf("table[%d] = %+v: want a record of its own for peer %d", i, p, peers[i])
			}
			seen[p] = true
		}
		if h.me != h.table[h.index(2)] || !h.inCluster(h.me) {
			t.Errorf("at %d peers the host's own record moved or lost its state", tc.n)
		}
	}
}

// TestPeerSetsComeFromSlabs: a 512-peer host that hears INFO from
// everyone gives the 1 022 MAP and confirmed sets their first storage
// from 64 run slabs of eight peers each — 64 bytes a peer — and from
// nothing at all while the INFO it hears is still empty. A set that
// outgrows its two carved runs moves to an array of its own: its
// neighbours in the slab keep reading what they were told.
func TestPeerSetsComeFromSlabs(t *testing.T) {
	const n = 512
	peers := make([]HostID, n)
	for i := range peers {
		peers[i] = HostID(i + 1)
	}
	newHost := func() *Host {
		h, err := NewHost(Config{ID: 2, Source: 1, Peers: peers, Params: DefaultParams()}, nopEnv{})
		if err != nil {
			t.Fatal(err)
		}
		h.Start(0)
		for i := range h.table {
			h.at(i)
		}
		return h
	}
	hearAll := func(h *Host, info seqset.Set) {
		for _, j := range peers {
			h.HandleMessage(time.Second, j, false, Message{Kind: MsgInfo, Info: info})
		}
	}
	const runs = 3
	var fresh []*Host
	for i := 0; i < 2*(runs+1)+1; i++ {
		fresh = append(fresh, newHost())
	}
	var h *Host
	next := func() { h, fresh = fresh[0], fresh[1:] }

	if got := testing.AllocsPerRun(runs, func() { next(); hearAll(h, seqset.Set{}) }); got != 0 {
		t.Errorf("hearing an empty INFO from all %d peers: %v allocations, want 0", n, got)
	}
	if h.runSlab != nil || h.lookup(3).carved {
		t.Error("an empty INFO made a run slab")
	}
	one := seqset.FromRange(1, 3)
	if got, want := testing.AllocsPerRun(runs, func() { next(); hearAll(h, one) }), float64((n-1+setSlab-1)/setSlab); got != want {
		t.Errorf("hearing one run from all %d peers: %v allocations, want %v run slabs", n, got, want)
	}
	next()
	if got, budget := allocatedBytes(func() { hearAll(h, one) }), uint64(n*64); got > budget {
		t.Errorf("hearing one run from all %d peers allocated %d bytes, budget %d", n, got, budget)
	}
	if len(h.runSlab) != 0 {
		t.Errorf("%d runs of the last slab are left over", len(h.runSlab))
	}

	// Peer 5 now advertises three runs, then receives data that adds more.
	three := seqset.FromSlice([]seqset.Seq{1, 3, 5})
	h.HandleMessage(2*time.Second, 5, false, Message{Kind: MsgInfo, Info: three})
	p5 := h.lookup(5)
	for q := seqset.Seq(7); q <= 15; q += 2 {
		h.learnHas(p5, q)
	}
	if want := seqset.FromSlice([]seqset.Seq{1, 3, 5, 7, 9, 11, 13, 15}); !p5.view.Equal(want) || !p5.confirmed.Equal(want) {
		t.Errorf("peer 5 after outgrowing its carved storage: view %v, confirmed %v, want %v", p5.view, p5.confirmed, want)
	}
	for _, j := range peers {
		if p := h.lookup(j); p != h.me && p != p5 && (!p.view.Equal(one) || !p.confirmed.Equal(one)) {
			t.Fatalf("peer %d reads view %v, confirmed %v after peer 5 outgrew its slots; want %v", j, p.view, p.confirmed, one)
		}
	}
}

// voteHost is host 2 of seven under EchoReady, so f = 2, the echo quorum
// is 5 and ready amplification takes 3. Its sends land on the returned
// queue.
func voteHost(t *testing.T) (*Host, *[]fleetMsg) {
	t.Helper()
	p := DefaultParams()
	p.EchoReady = true
	var queue []fleetMsg
	h, err := NewHost(Config{ID: 2, Source: 1, Peers: []HostID{1, 2, 3, 4, 5, 6, 7}, Params: p},
		fleetEnv{id: 2, queue: &queue})
	if err != nil {
		t.Fatal(err)
	}
	h.Start(0)
	if h.echoQuorum() != 5 || h.readyAmplify() != 3 {
		t.Fatalf("echo quorum %d, amplification %d: the cases below assume 5 and 3", h.echoQuorum(), h.readyAmplify())
	}
	return h, &queue
}

// votesSent lists the destinations of the host's own votes of one kind
// for (seq, d) on the queue.
func votesSent(queue []fleetMsg, kind MsgKind, seq seqset.Seq, d uint64) []HostID {
	var to []HostID
	for _, msg := range queue {
		if msg.m.Kind == kind && msg.m.Seq == seq && msg.m.CheckLen == d {
			to = append(to, msg.to)
		}
	}
	return to
}

var everyoneBut2 = []HostID{1, 3, 4, 5, 6, 7}

// TestVoteRowCountsFirstVotesOnly: a receiver counts one echo and one
// ready per participant. The same vote again changes nothing; a vote for
// another digest changes nothing either, except that it is evidence.
func TestVoteRowCountsFirstVotesOnly(t *testing.T) {
	h, _ := voteHost(t)
	const a, b = 0xA, 0xB
	for _, kind := range []MsgKind{MsgEcho, MsgReady} {
		ph := echoPhase
		if kind == MsgReady {
			ph = readyPhase
		}
		before := h.Equivocations()
		h.HandleMessage(0, 3, false, Message{Kind: kind, Seq: 1, CheckLen: a})
		h.HandleMessage(0, 3, false, Message{Kind: kind, Seq: 1, CheckLen: a})
		st := h.echoSt(1)
		if got := st.count(ph, a); got != 1 {
			t.Errorf("%v: the same vote twice counts %d, want 1", kind, got)
		}
		if h.Equivocations() != before {
			t.Errorf("%v: a repeated vote was flagged as equivocation", kind)
		}
		h.HandleMessage(0, 3, false, Message{Kind: kind, Seq: 1, CheckLen: b})
		if got, other := st.count(ph, a), st.count(ph, b); got != 1 || other != 0 {
			t.Errorf("%v: after a second digest from the same voter the counts are %d and %d, want 1 and 0", kind, got, other)
		}
		if got := h.Equivocations() - before; got != 1 {
			t.Errorf("%v: a changed vote raised Equivocations by %d, want 1", kind, got)
		}
		// Another participant's vote for the second digest is a first
		// vote: it opens that digest's tally.
		h.HandleMessage(0, 4, false, Message{Kind: kind, Seq: 1, CheckLen: b})
		if got := st.count(ph, b); got != 1 {
			t.Errorf("%v: a first vote for the second digest counts %d, want 1", kind, got)
		}
	}
	if st := h.echoSt(1); len(st.votes) != len(h.peers) || len(st.tallies) != 2 {
		t.Errorf("vote row has %d entries for %d participants, %d tallies for 2 digests",
			len(st.votes), len(h.peers), len(st.tallies))
	}
}

// TestReadyFiresAtItsThresholds: the host casts its ready on the echo
// that completes the echo quorum, or on the ready that completes the
// amplification threshold — not one vote earlier, and once.
func TestReadyFiresAtItsThresholds(t *testing.T) {
	const d = 0xD
	for _, tc := range []struct {
		kind   MsgKind
		voters []HostID // the last one completes the threshold
	}{
		{MsgEcho, []HostID{1, 3, 4, 5, 6}},
		{MsgReady, []HostID{3, 4, 5}},
	} {
		h, queue := voteHost(t)
		last := len(tc.voters) - 1
		for _, j := range tc.voters[:last] {
			h.HandleMessage(0, j, false, Message{Kind: tc.kind, Seq: 1, CheckLen: d})
		}
		if to := votesSent(*queue, MsgReady, 1, d); to != nil {
			t.Errorf("%v: ready sent to %v one vote short of the threshold", tc.kind, to)
		}
		h.HandleMessage(0, tc.voters[last], false, Message{Kind: tc.kind, Seq: 1, CheckLen: d})
		if to := votesSent(*queue, MsgReady, 1, d); !slices.Equal(to, everyoneBut2) {
			t.Errorf("%v: the completing vote sent ready to %v, want %v", tc.kind, to, everyoneBut2)
		}
		*queue = nil
		h.HandleMessage(0, 7, false, Message{Kind: tc.kind, Seq: 1, CheckLen: d})
		if to := votesSent(*queue, MsgReady, 1, d); to != nil {
			t.Errorf("%v: ready sent again, to %v", tc.kind, to)
		}
	}
}

// TestResendEchoMetaRepeatsOwnFirstVotes: what the host re-advertises for
// a pending sequence number is its own entry of the vote row — here the
// digest of the payload its parent sent, echoed on receipt and readied
// when the echo quorum formed.
func TestResendEchoMetaRepeatsOwnFirstVotes(t *testing.T) {
	h, queue := voteHost(t)
	h.parent = h.lookup(3)
	payload := []byte("pending")
	d := PayloadDigest(payload)
	h.HandleMessage(0, 3, false, Message{Kind: MsgData, Seq: 1, Payload: payload})
	for _, j := range []HostID{1, 3, 4, 5} { // with the host's own echo: 5
		h.HandleMessage(0, j, false, Message{Kind: MsgEcho, Seq: 1, CheckLen: d})
	}
	st := h.echoSt(1)
	if !st.echoed || !st.readySent || h.info.Contains(1) {
		t.Fatalf("want seq 1 pending with both votes cast: echoed %v, readySent %v, delivered %v",
			st.echoed, st.readySent, h.info.Contains(1))
	}
	*queue = nil
	h.resendEchoMeta()
	if to := votesSent(*queue, MsgEcho, 1, d); !slices.Equal(to, everyoneBut2) {
		t.Errorf("echo re-advertised to %v, want %v", to, everyoneBut2)
	}
	if to := votesSent(*queue, MsgReady, 1, d); !slices.Equal(to, everyoneBut2) {
		t.Errorf("ready re-advertised to %v, want %v", to, everyoneBut2)
	}
}

// syncHost is host 2 of five with a three-request window of two sequence
// numbers each, and host 3's INFO {1..6} to catch up on.
func syncHost(t *testing.T) (*Host, *[]fleetMsg) {
	t.Helper()
	p := DefaultParams()
	p.SyncBatch = 2
	p.SyncWindow = 3
	p.SyncTimeout = time.Second
	p.SyncPeriod = time.Second
	var queue []fleetMsg
	h, err := NewHost(Config{ID: 2, Source: 1, Peers: []HostID{1, 2, 3, 4, 5}, Params: p},
		fleetEnv{id: 2, queue: &queue})
	if err != nil {
		t.Fatal(err)
	}
	h.HandleMessage(0, 3, false, Message{Kind: MsgInfo, Info: seqset.FromRange(1, 6)})
	return h, &queue
}

// requestIDs lists the MsgSyncReq ids on the queue in send order, and
// empties the queue.
func requestIDs(queue *[]fleetMsg) []seqset.Seq {
	var ids []seqset.Seq
	for _, msg := range *queue {
		if msg.m.Kind == MsgSyncReq {
			ids = append(ids, msg.m.Seq)
		}
	}
	*queue = nil
	return ids
}

// TestInflightWindowKeepsIDOrder: the in-flight window is in ascending
// request-id order however the requests were issued, so a pump pass
// retries timed-out requests in that order; and a request that runs out
// of retries mid-pass fails the source over, which drops the requests
// the pass had not reached yet along with the rest.
func TestInflightWindowKeepsIDOrder(t *testing.T) {
	var st syncState
	for _, id := range []seqset.Seq{5, 1, 9, 3} {
		st.issue(&syncReq{id: id})
	}
	st.retire(st.find(9))
	var ids []seqset.Seq
	for _, req := range st.inflight {
		ids = append(ids, req.id)
	}
	if !slices.Equal(ids, []seqset.Seq{1, 3, 5}) || st.find(9) != -1 {
		t.Fatalf("window after issuing 5, 1, 9, 3 and retiring 9: %v", ids)
	}

	h, queue := syncHost(t)
	h.pumpRanges(10*time.Second, h.catchup)
	if ids := requestIDs(queue); !slices.Equal(ids, []seqset.Seq{1, 3, 5}) {
		t.Fatalf("first pass requested %v, want 1, 3, 5", ids)
	}
	// A response to request 1 that serves nothing but reports its range
	// snapshot-covered retires it; the next pass re-requests the range and
	// the new request takes its place at the front of the window.
	h.HandleMessage(10*time.Second, 3, false, Message{Kind: MsgSyncResp, Seq: 1, Info: seqset.FromRange(1, 2)})
	h.pumpRanges(10*time.Second+time.Millisecond, h.catchup)
	if ids := requestIDs(queue); !slices.Equal(ids, []seqset.Seq{1}) {
		t.Fatalf("re-request after a retired request 1: %v, want 1", ids)
	}
	h.pumpRanges(20*time.Second, h.catchup)
	if ids := requestIDs(queue); !slices.Equal(ids, []seqset.Seq{1, 3, 5}) {
		t.Errorf("timed-out requests retried in order %v, want 1, 3, 5", ids)
	}
	// Request 3 is on its last retry: the next pass retries 1, fails over
	// at 3 and never reaches 5.
	h.catchup.inflight[h.catchup.find(3)].retries = syncMaxRetries
	h.pumpRanges(30*time.Second, h.catchup)
	if ids := requestIDs(queue); !slices.Equal(ids, []seqset.Seq{1}) {
		t.Errorf("the failing pass sent %v, want only the retry of 1", ids)
	}
	if got := h.SyncStats().Failovers; got != 1 || len(h.catchup.inflight) != 0 || h.catchup.source != nil {
		t.Errorf("after failover: %d failovers, %d requests in flight, source %v",
			got, len(h.catchup.inflight), idOf(h.catchup.source))
	}
}

// excludedFrom lists the members of one exclusion set, ascending.
func excludedFrom(h *Host, set exclusion) []HostID {
	return h.collect(func(p *peer) bool { return p.excluded&set != 0 })
}

// TestExclusionSetsAreFlags: candidates excluded by a reject and by a
// timeout stay excluded through the retry chain, whichever way each retry
// was triggered; the next periodic activation readmits them all, and
// leaves the sync layer's set alone.
func TestExclusionSetsAreFlags(t *testing.T) {
	p := DefaultParams()
	var queue []fleetMsg
	h, err := NewHost(Config{ID: 2, Source: 1, Peers: []HostID{1, 2, 3, 4, 5}, Params: p},
		fleetEnv{id: 2, queue: &queue})
	if err != nil {
		t.Fatal(err)
	}
	// Three candidates in other clusters, fresher first: 5, 4, 3.
	for _, j := range []HostID{3, 4, 5} {
		h.HandleMessage(0, j, true, Message{Kind: MsgInfo, Info: seqset.FromRange(1, 2*seqset.Seq(j))})
	}
	h.exclude(h.lookup(1), noSync)

	h.runAttachment(time.Second, true)
	h.HandleMessage(time.Second, 5, true, Message{Kind: MsgAttachReject})
	if got := excludedFrom(h, noAttach); !slices.Equal(got, []HostID{5}) || h.attach.candidate.id != 4 {
		t.Fatalf("after 5 rejected: excluded %v, trying %d; want [5], 4", got, h.attach.candidate.id)
	}
	h.Start(time.Second)
	h.Tick(time.Second + p.AttachTimeout) // 4 times out
	if got := excludedFrom(h, noAttach); !slices.Equal(got, []HostID{4, 5}) || h.attach.candidate.id != 3 {
		t.Fatalf("after 4 timed out: excluded %v, trying %d; want [4 5], 3", got, h.attach.candidate.id)
	}
	h.HandleMessage(2*time.Second, 3, true, Message{Kind: MsgAttachReject})
	if got := excludedFrom(h, noAttach); !slices.Equal(got, []HostID{3, 4, 5}) || h.attach.inProgress {
		t.Fatalf("after 3 rejected: excluded %v, attaching %v; want all three and no attempt", got, h.attach.inProgress)
	}

	h.attach.exhausted = false
	h.runAttachment(3*time.Second, true)
	if got := excludedFrom(h, noAttach); got != nil || h.excluding&noAttach != 0 {
		t.Errorf("a fresh activation left %v excluded", got)
	}
	if h.attach.candidate.id != 5 {
		t.Errorf("the fresh activation tries %d, want the best candidate again, 5", h.attach.candidate.id)
	}
	if got := excludedFrom(h, noSync); !slices.Equal(got, []HostID{1}) {
		t.Errorf("emptying the attachment set left the sync set at %v, want [1]", got)
	}
}
