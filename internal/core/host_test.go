package core_test

import (
	"slices"
	"testing"
	"time"

	"rbcast/internal/core"
	"rbcast/internal/seqset"
)

type sentMsg struct {
	to core.HostID
	m  core.Message
}

type fakeEnv struct {
	sent      []sentMsg
	delivered []seqset.Seq
}

func (f *fakeEnv) Send(to core.HostID, m core.Message) {
	f.sent = append(f.sent, sentMsg{to: to, m: m})
}

func (f *fakeEnv) Deliver(seq seqset.Seq, _ []byte) {
	f.delivered = append(f.delivered, seq)
}

// ofKind returns sent messages of the given kind, looking inside bundled
// packets so assertions work with piggybacking on or off.
func (f *fakeEnv) ofKind(k core.MsgKind) []sentMsg {
	var out []sentMsg
	for _, s := range f.sent {
		if s.m.Kind == core.MsgBundle {
			for _, part := range s.m.Parts {
				if part.Kind == k {
					out = append(out, sentMsg{to: s.to, m: part})
				}
			}
			continue
		}
		if s.m.Kind == k {
			out = append(out, s)
		}
	}
	return out
}

func (f *fakeEnv) reset() { f.sent = nil; f.delivered = nil }

// quietParams puts every periodic activity far in the future so targeted
// tests see only the traffic they provoke.
func quietParams() core.Params {
	p := core.DefaultParams()
	hour := time.Hour
	p.InfoClusterPeriod = hour
	p.InfoRemotePeriod = hour
	p.InfoGlobalPeriod = hour
	p.GapClusterPeriod = hour
	p.GapRemotePeriod = hour
	p.GapGlobalPeriod = hour
	p.AttachPeriod = hour
	p.ParentTimeout = 2 * hour
	return p
}

func newTestHost(t *testing.T, id core.HostID, params core.Params, env core.Env) *core.Host {
	t.Helper()
	h, err := core.NewHost(core.Config{
		ID:     id,
		Source: 1,
		Peers:  []core.HostID{1, 2, 3, 4, 5},
		Params: params,
	}, env)
	if err != nil {
		t.Fatalf("NewHost: %v", err)
	}
	h.Start(0)
	return h
}

// infoFrom injects an Info message from peer j carrying the given INFO
// max (as a 1..max range) and parent pointer; costBit controls cluster
// inference.
func infoFrom(h *core.Host, now time.Duration, j core.HostID, costBit bool, infoMax seqset.Seq, parent core.HostID) {
	var s seqset.Set
	if infoMax > 0 {
		s = seqset.FromRange(1, infoMax)
	}
	h.HandleMessage(now, j, costBit, core.Message{Kind: core.MsgInfo, Info: s, Parent: parent})
}

func TestConfigValidation(t *testing.T) {
	env := &fakeEnv{}
	echoBudget := core.DefaultParams()
	echoBudget.EchoReady = true
	echoBudget.EchoMaxFaulty = 2
	roster, err := core.NewRoster([]core.HostID{1, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cfg  core.Config
		want string
	}{
		{"zero id", core.Config{ID: 0, Source: 1, Peers: []core.HostID{1}},
			"core: invalid host id 0"},
		{"zero source", core.Config{ID: 1, Source: 0, Peers: []core.HostID{1}},
			"core: invalid source id 0"},
		{"bad peer id", core.Config{ID: 1, Source: 1, Peers: []core.HostID{1, 2, -3}},
			"core: invalid peer id -3"},
		{"self not in peers", core.Config{ID: 2, Source: 1, Peers: []core.HostID{1, 3}},
			"core: host 2 not in Peers"},
		{"source not in peers", core.Config{ID: 2, Source: 1, Peers: []core.HostID{2, 3}},
			"core: source 1 not in Peers"},
		{"duplicate peers", core.Config{ID: 1, Source: 1, Peers: []core.HostID{1, 2, 2}},
			"core: duplicate peer 2"},
		{"peers and roster", core.Config{ID: 1, Source: 1, Peers: []core.HostID{1, 2}, Roster: roster},
			"core: Config sets both Peers and Roster"},
		{"self not on roster", core.Config{ID: 3, Source: 1, Roster: roster},
			"core: host 3 not in Peers"},
		{"initial cluster outside peers", core.Config{
			ID: 1, Source: 1, Peers: []core.HostID{1, 2},
			InitialCluster: []core.HostID{2, 9},
		}, "core: InitialCluster member 9 not in Peers"},
		{"explicit echo budget without its quorum", core.Config{
			ID: 1, Source: 1, Peers: []core.HostID{1, 2, 3, 4, 5, 6}, Params: echoBudget,
		}, "core: EchoMaxFaulty 2 needs more than 6 participants, have 6"},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := core.NewHost(tt.cfg, env); err == nil {
				t.Errorf("NewHost accepted bad config %+v", tt.cfg)
			} else if err.Error() != tt.want {
				t.Errorf("NewHost rejected %+v with %q, want %q", tt.cfg, err, tt.want)
			}
		})
	}
	if _, err := core.NewHost(core.Config{ID: 1, Source: 1, Peers: []core.HostID{1, 2}}, nil); err == nil {
		t.Error("NewHost accepted nil Env")
	}
	if _, err := core.NewHost(core.Config{ID: 1, Source: 1, Peers: []core.HostID{1, 2, 3, 4, 5, 6, 7}, Params: echoBudget}, env); err != nil {
		t.Errorf("NewHost rejected EchoMaxFaulty 2 at 7 participants: %v", err)
	}
	// Peers need be neither sorted nor contiguous, and the caller's slice
	// is left as it was.
	peers := []core.HostID{40, 7, 1000, 12}
	h, err := core.NewHost(core.Config{
		ID: 12, Source: 1000, Peers: peers,
		InitialCluster: []core.HostID{1000, 7},
	}, env)
	if err != nil {
		t.Fatalf("NewHost rejected unsorted, non-contiguous Peers: %v", err)
	}
	if got := h.Cluster(); !slices.Equal(got, []core.HostID{7, 12, 1000}) {
		t.Errorf("Cluster = %v, want [7 12 1000]", got)
	}
	if !slices.Equal(peers, []core.HostID{40, 7, 1000, 12}) {
		t.Errorf("NewHost reordered the caller's Peers: %v", peers)
	}
}

// TestNewRoster: a roster is checked once, when it is built — ids
// positive and distinct, an order row as long as the peers and without
// collisions — and neither input is changed by it.
func TestNewRoster(t *testing.T) {
	cases := []struct {
		name  string
		peers []core.HostID
		order []int
		want  string
	}{
		{"bad peer id", []core.HostID{1, 2, -3}, nil, "core: invalid peer id -3"},
		{"zero peer id", []core.HostID{0, 1}, nil, "core: invalid peer id 0"},
		{"duplicate peers", []core.HostID{1, 2, 2}, nil, "core: duplicate peer 2"},
		{"duplicate peers with orders", []core.HostID{2, 1, 2}, []int{1, 2, 3}, "core: duplicate peer 2"},
		{"order length mismatch", []core.HostID{1, 2}, []int{1}, "core: 1 orders for 2 peers"},
		{"order collision", []core.HostID{1, 2}, []int{7, 7}, "core: peers 1 and 2 share order 7"},
		// Named in ascending id order, whatever the order of the input.
		{"order collision unsorted", []core.HostID{40, 9, 12}, []int{5, 3, 5}, "core: peers 12 and 40 share order 5"},
		{"valid", []core.HostID{1, 2}, nil, ""},
		{"valid with orders", []core.HostID{40, 7, 1000, 12}, []int{0, 3, 9, -1}, ""},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			peers, order := slices.Clone(tt.peers), slices.Clone(tt.order)
			_, err := core.NewRoster(peers, order)
			switch {
			case tt.want == "" && err != nil:
				t.Errorf("NewRoster(%v, %v) rejected a valid roster: %v", tt.peers, tt.order, err)
			case tt.want != "" && err == nil:
				t.Errorf("NewRoster(%v, %v) accepted a bad roster", tt.peers, tt.order)
			case tt.want != "" && err.Error() != tt.want:
				t.Errorf("NewRoster(%v, %v) rejected with %q, want %q", tt.peers, tt.order, err, tt.want)
			}
			if !slices.Equal(peers, tt.peers) || !slices.Equal(order, tt.order) {
				t.Errorf("NewRoster changed its inputs: %v, %v", peers, order)
			}
		})
	}
}

func TestParamsValidation(t *testing.T) {
	p := core.DefaultParams()
	if err := p.Validate(); err != nil {
		t.Fatalf("DefaultParams invalid: %v", err)
	}
	bad := p
	bad.TickInterval = 0
	if bad.Validate() == nil {
		t.Error("zero TickInterval accepted")
	}
	bad = p
	bad.GapFillBatch = 0
	if bad.Validate() == nil {
		t.Error("zero GapFillBatch accepted")
	}
	bad = p
	bad.ParentTimeout = bad.InfoClusterPeriod
	if bad.Validate() == nil {
		t.Error("ParentTimeout <= InfoClusterPeriod accepted")
	}
	bad = p
	bad.EchoReady = true
	bad.EchoMaxFaulty = core.MaxEchoFaulty + 1
	if bad.Validate() == nil {
		t.Error("EchoMaxFaulty above MaxEchoFaulty accepted")
	}
	bad.EchoMaxFaulty = core.MaxEchoFaulty
	if err := bad.Validate(); err != nil {
		t.Errorf("EchoMaxFaulty == MaxEchoFaulty rejected: %v", err)
	}
}

func TestSourceBroadcast(t *testing.T) {
	env := &fakeEnv{}
	src := newTestHost(t, 1, quietParams(), env)
	if !src.IsSource() {
		t.Fatal("host 1 is not the source")
	}
	// Adopt two children.
	src.HandleMessage(0, 2, false, core.Message{Kind: core.MsgAttachReq})
	src.HandleMessage(0, 3, true, core.Message{Kind: core.MsgAttachReq})
	env.reset()

	seq := src.Broadcast(time.Second, []byte("m1"))
	if seq != 1 {
		t.Errorf("first Broadcast seq = %d, want 1", seq)
	}
	if seq := src.Broadcast(time.Second, []byte("m2")); seq != 2 {
		t.Errorf("second Broadcast seq = %d, want 2", seq)
	}
	data := env.ofKind(core.MsgData)
	if len(data) != 4 { // 2 messages × 2 children
		t.Fatalf("sent %d data messages, want 4", len(data))
	}
	targets := map[core.HostID]int{}
	for _, s := range data {
		targets[s.to]++
		if s.m.GapFill {
			t.Error("fresh broadcast marked as gap fill")
		}
	}
	if targets[2] != 2 || targets[3] != 2 {
		t.Errorf("per-child data counts = %v, want 2 each", targets)
	}
	if len(env.delivered) != 2 {
		t.Errorf("source delivered %d locally, want 2", len(env.delivered))
	}
	if got := src.Info().Max(); got != 2 {
		t.Errorf("source INFO max = %d, want 2", got)
	}
}

func TestBroadcastOnNonSourcePanics(t *testing.T) {
	env := &fakeEnv{}
	h := newTestHost(t, 2, quietParams(), env)
	defer func() {
		if recover() == nil {
			t.Error("Broadcast on non-source did not panic")
		}
	}()
	h.Broadcast(0, nil)
}

func TestClusterInferenceFromCostBit(t *testing.T) {
	env := &fakeEnv{}
	h := newTestHost(t, 2, quietParams(), env)
	if got := h.Cluster(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("initial cluster = %v, want [2]", got)
	}
	infoFrom(h, 0, 3, false, 0, core.Nil) // cheap → same cluster
	infoFrom(h, 0, 4, true, 0, core.Nil)  // expensive → different cluster
	cl := h.Cluster()
	if len(cl) != 2 || cl[0] != 2 || cl[1] != 3 {
		t.Errorf("cluster = %v, want [2 3]", cl)
	}
	// An expensive message from 3 evicts it.
	infoFrom(h, 0, 3, true, 0, core.Nil)
	if cl := h.Cluster(); len(cl) != 1 {
		t.Errorf("cluster after eviction = %v, want [2]", cl)
	}
	// A cheap message from 4 admits it.
	infoFrom(h, 0, 4, false, 0, core.Nil)
	if cl := h.Cluster(); len(cl) != 2 || cl[1] != 4 {
		t.Errorf("cluster after admission = %v, want [2 4]", cl)
	}
}

func TestInitialClusterSeed(t *testing.T) {
	env := &fakeEnv{}
	h, err := core.NewHost(core.Config{
		ID: 2, Source: 1, Peers: []core.HostID{1, 2, 3},
		InitialCluster: []core.HostID{3},
		Params:         quietParams(),
	}, env)
	if err != nil {
		t.Fatal(err)
	}
	cl := h.Cluster()
	if len(cl) != 2 || cl[0] != 2 || cl[1] != 3 {
		t.Errorf("seeded cluster = %v, want [2 3]", cl)
	}
}

func hInCluster(h *core.Host, j core.HostID) bool {
	for _, c := range h.Cluster() {
		if c == j {
			return true
		}
	}
	return false
}

func TestDataAcceptanceRules(t *testing.T) {
	env := &fakeEnv{}
	h := newTestHost(t, 2, quietParams(), env)

	// New-max data from a non-parent is rejected and answered with a
	// corrective detach.
	h.HandleMessage(0, 3, false, core.Message{Kind: core.MsgData, Seq: 1, Payload: []byte("x")})
	if len(env.delivered) != 0 {
		t.Fatal("accepted new-max data from non-parent")
	}
	if det := env.ofKind(core.MsgDetach); len(det) != 1 || det[0].to != 3 {
		t.Errorf("expected corrective detach to 3, got %v", env.sent)
	}
	env.reset()

	// Adopt parent 3 via handshake; then new-max from parent is accepted.
	base := makeParent(t, h, env, 3)
	env.reset()
	h.HandleMessage(base, 3, true, core.Message{Kind: core.MsgData, Seq: 5, Payload: []byte("m5")})
	if len(env.delivered) != 1 || env.delivered[0] != 5 {
		t.Fatalf("delivered = %v, want [5]", env.delivered)
	}

	// Duplicate is dropped silently.
	h.HandleMessage(base, 3, true, core.Message{Kind: core.MsgData, Seq: 5, Payload: []byte("m5")})
	if len(env.delivered) != 1 {
		t.Error("duplicate delivered twice")
	}

	// A lower-numbered (gap-fill) message is accepted from anyone.
	h.HandleMessage(base, 4, false, core.Message{Kind: core.MsgData, Seq: 2, Payload: []byte("m2"), GapFill: true})
	if len(env.delivered) != 2 || env.delivered[1] != 2 {
		t.Fatalf("gap fill from non-parent not accepted: %v", env.delivered)
	}

	// But a new-max gap-fill from a non-parent is still rejected (it
	// would alter the INFO maximum) — without a corrective detach.
	env.reset()
	h.HandleMessage(base, 4, false, core.Message{Kind: core.MsgData, Seq: 9, Payload: []byte("m9"), GapFill: true})
	if len(env.delivered) != 0 {
		t.Error("new-max gap fill accepted from non-parent")
	}
	if len(env.ofKind(core.MsgDetach)) != 0 {
		t.Error("gap-fill rejection sent a corrective detach")
	}
}

// makeParent wires host h (currently parentless) to parent p by
// simulating the handshake: p is made attractive as an out-of-cluster
// host with greater INFO (Case I option 3), the attachment procedure is
// fired by ticking past the (staggered) attach period, and the request is
// answered. It returns the virtual time after the handshake; callers must
// use times at or after it. Periodic schedules are re-anchored there.
func makeParent(t *testing.T, h *core.Host, env *fakeEnv, p core.HostID) time.Duration {
	t.Helper()
	bigger := h.Info().Max() + 10
	infoFrom(h, 0, p, true, bigger, core.Nil)
	// The first periodic attach fires within 2×AttachPeriod of Start.
	base := 2 * time.Hour
	h.Tick(base)
	req := env.ofKind(core.MsgAttachReq)
	if len(req) == 0 || req[len(req)-1].to != p {
		t.Fatalf("no attach request to %d; sent %v", p, env.sent)
	}
	h.HandleMessage(base, p, true, core.Message{
		Kind: core.MsgAttachAccept,
		Info: seqset.FromRange(1, bigger),
	})
	if h.Parent() != p {
		t.Fatalf("parent = %d after handshake, want %d", h.Parent(), p)
	}
	// Re-anchor periodic schedules at base.
	h.Start(base)
	return base
}

func TestForwardToChildren(t *testing.T) {
	env := &fakeEnv{}
	h := newTestHost(t, 2, quietParams(), env)
	// Children 4 and 5 adopt us.
	h.HandleMessage(0, 4, false, core.Message{Kind: core.MsgAttachReq})
	h.HandleMessage(0, 5, false, core.Message{Kind: core.MsgAttachReq})
	now := makeParent(t, h, env, 3)
	env.reset()

	h.HandleMessage(now, 3, true, core.Message{Kind: core.MsgData, Seq: 11, Payload: []byte("v")})
	data := env.ofKind(core.MsgData)
	targets := map[core.HostID]bool{}
	for _, s := range data {
		if s.m.Seq == 11 {
			targets[s.to] = true
		}
	}
	if !targets[4] || !targets[5] {
		t.Errorf("new-max not forwarded to both children: %v", data)
	}
}

func TestGapFillRelayToNeighbors(t *testing.T) {
	env := &fakeEnv{}
	h := newTestHost(t, 2, quietParams(), env)
	h.HandleMessage(0, 4, false, core.Message{Kind: core.MsgAttachReq}) // child 4
	now := makeParent(t, h, env, 3)

	// Give ourselves messages 1..3 via parent so max is 3, with a gap at 2.
	h.HandleMessage(now, 3, true, core.Message{Kind: core.MsgData, Seq: 1, Payload: []byte("a")})
	h.HandleMessage(now, 3, true, core.Message{Kind: core.MsgData, Seq: 3, Payload: []byte("c")})
	// Child 4 reports INFO {1,3}: it too is missing 2. Parent 3 reports
	// INFO {1,2,3}.
	h.HandleMessage(now, 4, false, core.Message{
		Kind: core.MsgInfo, Info: seqset.FromSlice([]seqset.Seq{1, 3}), Parent: 2,
	})
	env.reset()

	// A gap fill for 2 arrives from some host 5; we accept and relay to
	// child 4 (which lacks it) but not to parent 3 (which has it).
	h.HandleMessage(now, 5, true, core.Message{Kind: core.MsgData, Seq: 2, Payload: []byte("b"), GapFill: true})
	if len(env.delivered) != 1 || env.delivered[0] != 2 {
		t.Fatalf("gap fill not delivered: %v", env.delivered)
	}
	data := env.ofKind(core.MsgData)
	if len(data) != 1 || data[0].to != 4 || !data[0].m.GapFill || data[0].m.Seq != 2 {
		t.Errorf("relay = %v, want one gap fill of seq 2 to child 4", data)
	}
}

func TestInfoUpdatesMapAndParentView(t *testing.T) {
	env := &fakeEnv{}
	h := newTestHost(t, 2, quietParams(), env)
	infoFrom(h, 0, 3, false, 7, 4)
	if got := h.MapOf(3).Max(); got != 7 {
		t.Errorf("MAP[3] max = %d, want 7", got)
	}
	if got := h.ParentView(3); got != 4 {
		t.Errorf("p[3] = %d, want 4", got)
	}
	// A fresh Info replaces, not merges.
	h.HandleMessage(0, 3, false, core.Message{
		Kind: core.MsgInfo, Info: seqset.FromSlice([]seqset.Seq{2}), Parent: core.Nil,
	})
	if got := h.MapOf(3); got.Max() != 2 || got.Len() != 1 {
		t.Errorf("MAP[3] after refresh = %v, want {2}", got)
	}
}

func TestChildPrunedWhenItReportsAnotherParent(t *testing.T) {
	env := &fakeEnv{}
	h := newTestHost(t, 2, quietParams(), env)
	h.HandleMessage(0, 4, false, core.Message{Kind: core.MsgAttachReq})
	if ch := h.Children(); len(ch) != 1 || ch[0] != 4 {
		t.Fatalf("children = %v, want [4]", ch)
	}
	infoFrom(h, 0, 4, false, 0, 5) // 4 now claims parent 5
	if ch := h.Children(); len(ch) != 0 {
		t.Errorf("children = %v after gossip prune, want []", ch)
	}
}

func TestDetachRemovesChild(t *testing.T) {
	env := &fakeEnv{}
	h := newTestHost(t, 2, quietParams(), env)
	h.HandleMessage(0, 4, false, core.Message{Kind: core.MsgAttachReq})
	h.HandleMessage(0, 4, false, core.Message{Kind: core.MsgDetach})
	if ch := h.Children(); len(ch) != 0 {
		t.Errorf("children = %v after detach, want []", ch)
	}
}

func TestAttachReqAcceptedAndGapFilled(t *testing.T) {
	env := &fakeEnv{}
	h := newTestHost(t, 2, quietParams(), env)
	now := makeParent(t, h, env, 3)
	// We hold 1..4.
	for _, q := range []seqset.Seq{1, 2, 3, 4} {
		h.HandleMessage(now, 3, true, core.Message{Kind: core.MsgData, Seq: q, Payload: []byte{byte(q)}})
	}
	env.reset()
	// Host 5 asks to attach holding only {1}.
	h.HandleMessage(now, 5, false, core.Message{
		Kind: core.MsgAttachReq, Info: seqset.FromSlice([]seqset.Seq{1}),
	})
	if acc := env.ofKind(core.MsgAttachAccept); len(acc) != 1 || acc[0].to != 5 {
		t.Fatalf("no accept to 5: %v", env.sent)
	}
	var fills []seqset.Seq
	for _, s := range env.ofKind(core.MsgData) {
		if s.to == 5 {
			fills = append(fills, s.m.Seq)
		}
	}
	if len(fills) != 3 { // 2, 3, 4
		t.Errorf("attach gap fill sent %v, want 2,3,4", fills)
	}
	if ch := h.Children(); len(ch) != 1 || ch[0] != 5 {
		t.Errorf("children = %v, want [5]", ch)
	}
}

func TestAttachReqFromParentRejected(t *testing.T) {
	env := &fakeEnv{}
	h := newTestHost(t, 2, quietParams(), env)
	now := makeParent(t, h, env, 3)
	env.reset()
	h.HandleMessage(now, 3, true, core.Message{Kind: core.MsgAttachReq})
	if rej := env.ofKind(core.MsgAttachReject); len(rej) != 1 || rej[0].to != 3 {
		t.Errorf("attach request from own parent not rejected: %v", env.sent)
	}
	if ch := h.Children(); len(ch) != 0 {
		t.Errorf("parent adopted as child: %v", ch)
	}
}

func TestStaleAttachAcceptCorrected(t *testing.T) {
	env := &fakeEnv{}
	h := newTestHost(t, 2, quietParams(), env)
	now := makeParent(t, h, env, 3)
	env.reset()
	// A stale accept arrives from 4 (an old candidate we gave up on).
	h.HandleMessage(now, 4, true, core.Message{Kind: core.MsgAttachAccept})
	if h.Parent() != 3 {
		t.Errorf("parent changed to %d on stale accept", h.Parent())
	}
	if det := env.ofKind(core.MsgDetach); len(det) != 1 || det[0].to != 4 {
		t.Errorf("stale accept not answered with detach: %v", env.sent)
	}
}

func TestParentTimeout(t *testing.T) {
	env := &fakeEnv{}
	p := quietParams()
	p.ParentTimeout = 500 * time.Millisecond
	p.InfoClusterPeriod = 100 * time.Millisecond // validation: timeout > cluster period
	h := newTestHost(t, 2, p, env)
	base := makeParent(t, h, env, 3)
	h.HandleMessage(base, 3, true, core.Message{Kind: core.MsgData, Seq: 100, Payload: nil})
	if h.Parent() != 3 {
		t.Fatal("setup: parent not 3")
	}
	// Silence beyond ParentTimeout.
	h.Tick(base + 2*time.Second)
	if h.Parent() != core.Nil {
		t.Errorf("parent = %d after silence, want Nil", h.Parent())
	}
}

func TestParentTimeoutRefreshedByTraffic(t *testing.T) {
	env := &fakeEnv{}
	p := quietParams()
	p.ParentTimeout = 500 * time.Millisecond
	p.InfoClusterPeriod = 100 * time.Millisecond
	h := newTestHost(t, 2, p, env)
	base := makeParent(t, h, env, 3)
	for i := 0; i < 10; i++ {
		now := base + time.Duration(i)*300*time.Millisecond
		infoFrom(h, now, 3, true, 50, core.Nil)
		h.Tick(now)
	}
	if h.Parent() != 3 {
		t.Errorf("parent lost despite regular traffic")
	}
}

func TestPruneStable(t *testing.T) {
	env := &fakeEnv{}
	p := quietParams()
	p.PruneStable = true
	h, err := core.NewHost(core.Config{
		ID: 1, Source: 1, Peers: []core.HostID{1, 2, 3},
		Params: p,
	}, env)
	if err != nil {
		t.Fatal(err)
	}
	h.Start(0)
	for i := 0; i < 5; i++ {
		h.Broadcast(0, []byte("x"))
	}
	// Peers report holding 1..4 — prefix 1..4 is stable, 5 is not.
	infoFrom(h, 0, 2, false, 4, 1)
	infoFrom(h, 0, 3, true, 4, 1)
	h.Tick(time.Second)
	info := h.Info()
	if info.Contains(3) {
		t.Errorf("INFO still contains pruned seq 3: %v", info)
	}
	if !info.Contains(4) || !info.Contains(5) {
		t.Errorf("INFO over-pruned: %v", info)
	}
	if info.Max() != 5 {
		t.Errorf("INFO max = %d after prune, want 5", info.Max())
	}
}

func TestGapFillBatchCap(t *testing.T) {
	env := &fakeEnv{}
	p := quietParams()
	p.GapFillBatch = 3
	p.GapClusterPeriod = 50 * time.Millisecond
	h := newTestHost(t, 2, p, env)
	// Become parent of 4 and hold 1..10.
	now := makeParent(t, h, env, 3)
	for q := seqset.Seq(1); q <= 10; q++ {
		h.HandleMessage(now, 3, true, core.Message{Kind: core.MsgData, Seq: q, Payload: []byte{1}})
	}
	h.HandleMessage(now, 4, false, core.Message{Kind: core.MsgAttachReq, Info: seqset.FromRange(1, 10)})
	// Child 4 reports an empty refresh — it lost everything somehow.
	infoFrom(h, now, 4, false, 0, 2)
	env.reset()
	h.Start(now)
	h.Tick(now + p.GapClusterPeriod*2)
	var toChild int
	for _, s := range env.ofKind(core.MsgData) {
		if s.to == 4 {
			toChild++
		}
	}
	if toChild != 3 {
		t.Errorf("gap fill sent %d messages, want batch cap 3", toChild)
	}
}

func TestInfoLocalGoesToClusterOnly(t *testing.T) {
	env := &fakeEnv{}
	p := quietParams()
	p.InfoClusterPeriod = 50 * time.Millisecond
	p.ParentTimeout = time.Hour
	h := newTestHost(t, 2, p, env)
	infoFrom(h, 0, 3, false, 0, core.Nil) // 3 in cluster
	infoFrom(h, 0, 4, true, 0, core.Nil)  // 4 not
	env.reset()
	h.Tick(time.Second)
	infos := env.ofKind(core.MsgInfo)
	for _, s := range infos {
		if s.to == 4 {
			t.Errorf("cluster info exchange reached out-of-cluster host 4")
		}
	}
	found := false
	for _, s := range infos {
		if s.to == 3 {
			found = true
			if s.m.Parent != h.Parent() {
				t.Errorf("info carries parent %d, want %d", s.m.Parent, h.Parent())
			}
		}
	}
	if !found {
		t.Error("no info to cluster member 3")
	}
}

func TestGlobalInfoOnlyFromLeaders(t *testing.T) {
	// Non-leader: parent in the same cluster → no global advertisements.
	env := &fakeEnv{}
	p := quietParams()
	p.InfoGlobalPeriod = 50 * time.Millisecond
	h := newTestHost(t, 2, p, env)
	infoFrom(h, 0, 3, false, 5, core.Nil) // 3: in-cluster leader, greater INFO
	h.Tick(2 * time.Hour)                 // provoke attach via Case I opt 1
	req := env.ofKind(core.MsgAttachReq)
	if len(req) == 0 || req[len(req)-1].to != 3 {
		t.Fatalf("setup: no attach to 3: %v", env.sent)
	}
	now := 2 * time.Hour
	h.HandleMessage(now, 3, false, core.Message{Kind: core.MsgAttachAccept, Info: seqset.FromRange(1, 5)})
	if h.IsLeader() {
		t.Fatal("setup: host should not be a leader (parent in cluster)")
	}
	h.Start(now)
	env.reset()
	h.Tick(now + time.Second)
	for _, s := range env.ofKind(core.MsgInfo) {
		if !hInCluster(h, s.to) && s.to != h.Parent() {
			t.Errorf("non-leader sent global info to %d", s.to)
		}
	}

	// Leader: fresh host whose parent is out-of-cluster → advertises
	// globally.
	env2 := &fakeEnv{}
	h2 := newTestHost(t, 2, p, env2)
	now2 := makeParent(t, h2, env2, 4)
	if !h2.IsLeader() {
		t.Fatal("setup: host 2 should be a leader")
	}
	env2.reset()
	h2.Tick(now2 + time.Second)
	var global int
	for _, s := range env2.ofKind(core.MsgInfo) {
		if !hInCluster(h2, s.to) && s.to != h2.Parent() {
			global++
		}
	}
	if global == 0 {
		t.Error("leader sent no global info")
	}
}

func TestObserverEvents(t *testing.T) {
	var events []core.Event
	p := quietParams()
	h, err := core.NewHost(core.Config{
		ID: 2, Source: 1, Peers: []core.HostID{1, 2, 3},
		Params:   p,
		Observer: func(ev core.Event) { events = append(events, ev) },
	}, &fakeEnv{})
	if err != nil {
		t.Fatal(err)
	}
	h.Start(0)
	h.HandleMessage(0, 3, false, core.Message{Kind: core.MsgAttachReq})
	h.HandleMessage(0, 3, false, core.Message{Kind: core.MsgDetach})
	kinds := map[core.EventKind]int{}
	for _, ev := range events {
		kinds[ev.Kind]++
		if ev.Host != 2 {
			t.Errorf("event host = %d, want 2", ev.Host)
		}
	}
	if kinds[core.EvChildAdded] != 1 || kinds[core.EvChildRemoved] != 1 {
		t.Errorf("event counts = %v", kinds)
	}
}
