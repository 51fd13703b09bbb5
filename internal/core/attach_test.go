package core_test

import (
	"testing"
	"time"

	"rbcast/internal/core"
	"rbcast/internal/seqset"
)

// fireAttach provokes exactly one periodic activation of the attachment
// procedure and returns the attach requests it produced.
func fireAttach(h *core.Host, env *fakeEnv, at time.Duration) []sentMsg {
	before := len(env.ofKind(core.MsgAttachReq))
	h.Tick(at)
	reqs := env.ofKind(core.MsgAttachReq)
	return reqs[before:]
}

func TestCaseIOption1PrefersInClusterLeaderWithGreaterInfo(t *testing.T) {
	env := &fakeEnv{}
	h := newTestHost(t, 2, quietParams(), env)
	// In-cluster leader 3 with greater INFO; out-of-cluster host 4 with
	// even greater INFO. Option 1 (in-cluster) must win over option 3.
	infoFrom(h, 0, 3, false, 5, core.Nil)
	infoFrom(h, 0, 4, true, 9, core.Nil)
	reqs := fireAttach(h, env, 2*time.Hour)
	if len(reqs) != 1 || reqs[0].to != 3 {
		t.Errorf("attach requests = %v, want one to in-cluster leader 3", reqs)
	}
}

func TestCaseIOption1SkipsNonLeaders(t *testing.T) {
	env := &fakeEnv{}
	h := newTestHost(t, 2, quietParams(), env)
	// Host 3: in-cluster, greater INFO, but its parent 5 is also in our
	// cluster → not a leader → not eligible under option 1 or 2.
	infoFrom(h, 0, 5, false, 0, core.Nil)
	infoFrom(h, 0, 3, false, 5, 5)
	reqs := fireAttach(h, env, 2*time.Hour)
	for _, r := range reqs {
		if r.to == 3 {
			t.Errorf("attached to non-leader 3")
		}
	}
}

func TestCaseIOption2EqualInfoHigherOrder(t *testing.T) {
	env := &fakeEnv{}
	h := newTestHost(t, 3, quietParams(), env)
	// Equal (empty) INFO everywhere. In-cluster leaders: 2 (lower order)
	// and 4 (higher order). Option 2 requires order(i) < order(j), so only
	// 4 qualifies.
	infoFrom(h, 0, 2, false, 0, core.Nil)
	infoFrom(h, 0, 4, false, 0, core.Nil)
	reqs := fireAttach(h, env, 2*time.Hour)
	if len(reqs) != 1 || reqs[0].to != 4 {
		t.Errorf("attach requests = %v, want one to higher-ordered leader 4", reqs)
	}
}

func TestCaseIOption2RespectsCustomOrder(t *testing.T) {
	env := &fakeEnv{}
	// Reverse order: host 2 has the highest order.
	roster, err := core.NewRoster([]core.HostID{1, 2, 3, 4}, []int{40, 30, 20, 10})
	if err != nil {
		t.Fatal(err)
	}
	h, err := core.NewHost(core.Config{ID: 3, Source: 1, Roster: roster, Params: quietParams()}, env)
	if err != nil {
		t.Fatal(err)
	}
	h.Start(0)
	infoFrom(h, 0, 2, false, 0, core.Nil)
	infoFrom(h, 0, 4, false, 0, core.Nil)
	reqs := fireAttach(h, env, 2*time.Hour)
	if len(reqs) != 1 || reqs[0].to != 2 {
		t.Errorf("attach requests = %v, want one to host 2 (highest custom order)", reqs)
	}
}

func TestCaseIOption3OutOfClusterGreaterInfo(t *testing.T) {
	env := &fakeEnv{}
	h := newTestHost(t, 2, quietParams(), env)
	// No in-cluster candidates at all; hosts 4 (INFO 3) and 5 (INFO 8)
	// out of cluster. Option 3 picks the freshest.
	infoFrom(h, 0, 4, true, 3, core.Nil)
	infoFrom(h, 0, 5, true, 8, core.Nil)
	reqs := fireAttach(h, env, 2*time.Hour)
	if len(reqs) != 1 || reqs[0].to != 5 {
		t.Errorf("attach requests = %v, want one to host 5 (greatest INFO)", reqs)
	}
}

func TestCaseINoCandidates(t *testing.T) {
	env := &fakeEnv{}
	h := newTestHost(t, 2, quietParams(), env)
	// Everyone known has equal (empty) INFO and lower order, out of cluster.
	infoFrom(h, 0, 3, true, 0, core.Nil)
	reqs := fireAttach(h, env, 2*time.Hour)
	if len(reqs) != 0 {
		t.Errorf("attach requests = %v, want none", reqs)
	}
	if h.Parent() != core.Nil {
		t.Errorf("parent = %d, want Nil", h.Parent())
	}
}

func TestNeverAttachToSmallerInfo(t *testing.T) {
	env := &fakeEnv{}
	h := newTestHost(t, 2, quietParams(), env)
	// Receive data 1..5 from a parent, then lose the parent.
	now := makeParent(t, h, env, 3)
	for q := seqset.Seq(1); q <= 5; q++ {
		h.HandleMessage(now, 3, true, core.Message{Kind: core.MsgData, Seq: q, Payload: []byte{1}})
	}
	// Host 4 advertises INFO max 2 (< ours); host 5 order is higher but
	// its INFO (empty) is smaller. Neither is eligible even though we are
	// parentless after a timeout.
	infoFrom(h, now, 4, false, 2, core.Nil)
	infoFrom(h, now, 5, false, 0, core.Nil)
	// Drop the parent.
	h.HandleMessage(now, 3, true, core.Message{Kind: core.MsgDetach})
	env.reset()
	// Manually clear parent via detach doesn't NIL it; use timeout path:
	// tick far ahead so ParentTimeout (2h) fires, then attachment runs.
	reqs := fireAttach(h, env, now+3*time.Hour)
	for _, r := range reqs {
		if r.to == 4 || r.to == 5 {
			t.Errorf("attached to host %d with smaller INFO", r.to)
		}
	}
}

func TestCaseIIOption3SwitchesToFresherParent(t *testing.T) {
	env := &fakeEnv{}
	h := newTestHost(t, 2, quietParams(), env)
	now := makeParent(t, h, env, 3) // out-of-cluster parent, INFO 1..10
	// Host 4 (out of cluster) advertises INFO 1..20 — strictly greater
	// than the current parent's 1..10.
	infoFrom(h, now, 4, true, 20, core.Nil)
	reqs := fireAttach(h, env, now+2*time.Hour)
	if len(reqs) != 1 || reqs[0].to != 4 {
		t.Fatalf("attach requests = %v, want one to fresher host 4", reqs)
	}
	// Complete the switch; the old parent gets a detach notice.
	env.reset()
	h.HandleMessage(now+2*time.Hour, 4, true, core.Message{
		Kind: core.MsgAttachAccept, Info: seqset.FromRange(1, 20),
	})
	if h.Parent() != 4 {
		t.Errorf("parent = %d, want 4", h.Parent())
	}
	det := env.ofKind(core.MsgDetach)
	if len(det) != 1 || det[0].to != 3 {
		t.Errorf("old parent not notified: %v", env.sent)
	}
}

func TestCaseIIOption3IgnoresEquallyFreshHosts(t *testing.T) {
	env := &fakeEnv{}
	h := newTestHost(t, 2, quietParams(), env)
	now := makeParent(t, h, env, 3) // parent INFO 1..10
	// Host 4 has the same INFO max as the parent: not strictly greater,
	// so no switch (avoids thrashing between equivalent parents).
	infoFrom(h, now, 4, true, 10, core.Nil)
	reqs := fireAttach(h, env, now+2*time.Hour)
	if len(reqs) != 0 {
		t.Errorf("attach requests = %v, want none", reqs)
	}
}

func TestCaseIIPrefersRejoiningOwnCluster(t *testing.T) {
	env := &fakeEnv{}
	h := newTestHost(t, 2, quietParams(), env)
	now := makeParent(t, h, env, 3) // out-of-cluster parent, INFO 1..10
	// An in-cluster leader 5 appears with greater INFO than ours (ours is
	// empty; we never received data). Options 1–2 run before option 3, so
	// the host rejoins its cluster rather than chasing host 4's INFO 20.
	infoFrom(h, now, 5, false, 12, core.Nil)
	infoFrom(h, now, 4, true, 20, core.Nil)
	reqs := fireAttach(h, env, now+2*time.Hour)
	if len(reqs) != 1 || reqs[0].to != 5 {
		t.Errorf("attach requests = %v, want one to in-cluster leader 5", reqs)
	}
}

func TestCaseIIIAttachesToLeaderAncestor(t *testing.T) {
	env := &fakeEnv{}
	h := newTestHost(t, 2, quietParams(), env)
	// Build: 2's parent is 3 (same cluster), 3's parent is 4 (same
	// cluster), 4 is the cluster leader (its parent 1 is out of cluster).
	infoFrom(h, 0, 3, false, 5, core.Nil) // 3 is an in-cluster leader for now
	reqs := fireAttach(h, env, 2*time.Hour)
	if len(reqs) != 1 || reqs[0].to != 3 {
		t.Fatalf("setup attach = %v, want to 3", reqs)
	}
	now := 2 * time.Hour
	h.HandleMessage(now, 3, false, core.Message{Kind: core.MsgAttachAccept, Info: seqset.FromRange(1, 5)})
	h.Start(now)
	// Gossip: 3's parent is 4 (in cluster), 4's parent is 1 (out of
	// cluster) and 4's INFO is ≥ ours.
	infoFrom(h, now, 3, false, 5, 4)
	infoFrom(h, now, 4, false, 6, 1)
	infoFrom(h, now, 1, true, 6, core.Nil)
	env.reset()
	reqs = fireAttach(h, env, now+2*time.Hour)
	if len(reqs) != 1 || reqs[0].to != 4 {
		t.Errorf("attach requests = %v, want one to leader ancestor 4", reqs)
	}
}

func TestCaseIIIStaysPutWhenParentIsLeader(t *testing.T) {
	env := &fakeEnv{}
	h := newTestHost(t, 2, quietParams(), env)
	infoFrom(h, 0, 3, false, 5, core.Nil)
	reqs := fireAttach(h, env, 2*time.Hour)
	if len(reqs) != 1 || reqs[0].to != 3 {
		t.Fatalf("setup attach = %v", reqs)
	}
	now := 2 * time.Hour
	h.HandleMessage(now, 3, false, core.Message{Kind: core.MsgAttachAccept, Info: seqset.FromRange(1, 5)})
	h.Start(now)
	// 3 is itself the cluster leader (parent 1 out of cluster).
	infoFrom(h, now, 3, false, 5, 1)
	infoFrom(h, now, 1, true, 6, core.Nil)
	env.reset()
	reqs = fireAttach(h, env, now+2*time.Hour)
	if len(reqs) != 0 {
		t.Errorf("attach requests = %v, want none (parent already the leader)", reqs)
	}
}

// buildIntraClusterCycle wires host h into a parent cycle h → a → b → h
// (all same cluster) purely through gossip and handshakes.
func buildIntraClusterCycle(t *testing.T, h *core.Host, env *fakeEnv, a, b core.HostID) time.Duration {
	t.Helper()
	// Step 1: h attaches to a (in-cluster leader with greater INFO).
	infoFrom(h, 0, a, false, 5, core.Nil)
	reqs := fireAttach(h, env, 2*time.Hour)
	if len(reqs) != 1 || reqs[0].to != a {
		t.Fatalf("cycle setup attach = %v, want to %d", reqs, a)
	}
	now := 2 * time.Hour
	h.HandleMessage(now, a, false, core.Message{Kind: core.MsgAttachAccept, Info: seqset.FromRange(1, 5)})
	h.Start(now)
	// Step 2: gossip closes the loop: a's parent is b, b's parent is h.
	infoFrom(h, now, a, false, 5, b)
	infoFrom(h, now, b, false, 5, h.ID())
	return now
}

func TestIntraClusterCycleMaxOrderDetaches(t *testing.T) {
	env := &fakeEnv{}
	// Host 5 has the highest order among {3, 4, 5}.
	h, err := core.NewHost(core.Config{
		ID: 5, Source: 1, Peers: []core.HostID{1, 2, 3, 4, 5},
		Params: quietParams(),
	}, env)
	if err != nil {
		t.Fatal(err)
	}
	h.Start(0)
	var cycleBroken bool
	now := buildIntraClusterCycle(t, h, env, 3, 4)
	env.reset()
	// Observe the break via events: recreate observer by checking state
	// instead — parent must go Nil and a detach must be sent to 3.
	h.Tick(now + 2*time.Hour)
	det := env.ofKind(core.MsgDetach)
	for _, d := range det {
		if d.to == 3 {
			cycleBroken = true
		}
	}
	if !cycleBroken {
		t.Errorf("max-order host did not detach from cycle: %v", env.sent)
	}
}

func TestIntraClusterCycleLowerOrderWaits(t *testing.T) {
	env := &fakeEnv{}
	// Host 2 has the lowest order among {2, 3, 4}: it must NOT detach.
	h := newTestHost(t, 2, quietParams(), env)
	now := buildIntraClusterCycle(t, h, env, 3, 4)
	env.reset()
	h.Tick(now + 2*time.Hour)
	if h.Parent() != 3 {
		t.Errorf("lower-order host detached from cycle; parent = %d", h.Parent())
	}
	for _, d := range env.ofKind(core.MsgDetach) {
		if d.to == 3 {
			t.Errorf("lower-order host sent detach to its parent")
		}
	}
}

func TestAttachTimeoutMovesToNextCandidate(t *testing.T) {
	env := &fakeEnv{}
	p := quietParams()
	p.AttachTimeout = 100 * time.Millisecond
	h := newTestHost(t, 2, p, env)
	// Two out-of-cluster candidates; 5 is fresher so tried first.
	infoFrom(h, 0, 5, true, 8, core.Nil)
	infoFrom(h, 0, 4, true, 3, core.Nil)
	reqs := fireAttach(h, env, 2*time.Hour)
	if len(reqs) != 1 || reqs[0].to != 5 {
		t.Fatalf("first candidate = %v, want 5", reqs)
	}
	// No answer; after the timeout the procedure retries with 5 excluded.
	now := 2*time.Hour + 200*time.Millisecond
	h.Tick(now)
	reqs = env.ofKind(core.MsgAttachReq)
	if len(reqs) != 2 || reqs[1].to != 4 {
		t.Fatalf("requests after timeout = %v, want second to 4", reqs)
	}
	// 4 answers; handshake completes.
	h.HandleMessage(now, 4, true, core.Message{Kind: core.MsgAttachAccept, Info: seqset.FromRange(1, 3)})
	if h.Parent() != 4 {
		t.Errorf("parent = %d, want 4", h.Parent())
	}
}

func TestAttachRejectMovesToNextCandidate(t *testing.T) {
	env := &fakeEnv{}
	h := newTestHost(t, 2, quietParams(), env)
	infoFrom(h, 0, 5, true, 8, core.Nil)
	infoFrom(h, 0, 4, true, 3, core.Nil)
	reqs := fireAttach(h, env, 2*time.Hour)
	if len(reqs) != 1 || reqs[0].to != 5 {
		t.Fatalf("first candidate = %v, want 5", reqs)
	}
	h.HandleMessage(2*time.Hour, 5, true, core.Message{Kind: core.MsgAttachReject})
	reqs = env.ofKind(core.MsgAttachReq)
	if len(reqs) != 2 || reqs[1].to != 4 {
		t.Errorf("requests after reject = %v, want second to 4", reqs)
	}
}

func TestExclusionsClearOnFreshActivation(t *testing.T) {
	env := &fakeEnv{}
	p := quietParams()
	p.AttachTimeout = 100 * time.Millisecond
	h := newTestHost(t, 2, p, env)
	infoFrom(h, 0, 5, true, 8, core.Nil)
	// First activation: request to 5 times out; no other candidate.
	fireAttach(h, env, 2*time.Hour)
	h.Tick(2*time.Hour + 200*time.Millisecond)
	if n := len(env.ofKind(core.MsgAttachReq)); n != 1 {
		t.Fatalf("requests = %d, want 1 (no second candidate)", n)
	}
	// The timeout exhausted every candidate; periodic activations are
	// short-circuited until new evidence arrives.
	h.Tick(2*time.Hour + 200*time.Millisecond + 2*time.Hour)
	if n := len(env.ofKind(core.MsgAttachReq)); n != 1 {
		t.Errorf("requests = %d with exhausted candidates, want 1", n)
	}
	// Any inbound message is new evidence; the next fresh activation
	// clears exclusions and retries 5.
	infoFrom(h, 2*time.Hour+200*time.Millisecond+2*time.Hour, 5, true, 8, core.Nil)
	h.Tick(2*time.Hour + 200*time.Millisecond + 4*time.Hour)
	if n := len(env.ofKind(core.MsgAttachReq)); n != 2 {
		t.Errorf("requests = %d after new evidence, want 2", n)
	}
}

func TestCrossingAttachRequestsYieldByOrder(t *testing.T) {
	env := &fakeEnv{}
	h := newTestHost(t, 2, quietParams(), env)
	// We are requesting 4 (out-of-cluster, fresher).
	infoFrom(h, 0, 4, true, 8, core.Nil)
	reqs := fireAttach(h, env, 2*time.Hour)
	if len(reqs) != 1 || reqs[0].to != 4 {
		t.Fatalf("setup: requests = %v", reqs)
	}
	env.reset()
	// 4's own request crosses ours. We are the lower-ordered host (2 < 4),
	// so we yield: reject their request and wait for their accept.
	h.HandleMessage(2*time.Hour, 4, true, core.Message{Kind: core.MsgAttachReq})
	if rej := env.ofKind(core.MsgAttachReject); len(rej) != 1 || rej[0].to != 4 {
		t.Errorf("crossing request not rejected by lower-order host: %v", env.sent)
	}
	if len(h.Children()) != 0 {
		t.Errorf("children = %v, want none", h.Children())
	}

	// Symmetric case: a host with the higher order accepts.
	env5 := &fakeEnv{}
	h5 := newTestHost(t, 5, quietParams(), env5)
	infoFrom(h5, 0, 4, true, 8, core.Nil)
	reqs = fireAttach(h5, env5, 2*time.Hour)
	if len(reqs) != 1 || reqs[0].to != 4 {
		t.Fatalf("setup: requests = %v", reqs)
	}
	env5.reset()
	h5.HandleMessage(2*time.Hour, 4, true, core.Message{Kind: core.MsgAttachReq})
	if acc := env5.ofKind(core.MsgAttachAccept); len(acc) != 1 || acc[0].to != 4 {
		t.Errorf("higher-order host rejected crossing request: %v", env5.sent)
	}
}

func TestSourceNeverRunsAttachment(t *testing.T) {
	env := &fakeEnv{}
	src := newTestHost(t, 1, quietParams(), env)
	infoFrom(src, 0, 3, false, 50, core.Nil) // tempting candidate
	src.Tick(3 * time.Hour)
	if n := len(env.ofKind(core.MsgAttachReq)); n != 0 {
		t.Errorf("source sent %d attach requests, want 0", n)
	}
	if src.Parent() != core.Nil {
		t.Errorf("source parent = %d, want Nil", src.Parent())
	}
}

func TestCaseIOption4SimilarEscapeAfterBarrenSweeps(t *testing.T) {
	env := &fakeEnv{}
	h := newTestHost(t, 2, quietParams(), env)
	// Catch host 2 up to the watermark through a normal in-cluster
	// parent, then lose that parent to a timeout.
	infoFrom(h, 0, 3, false, 4, core.Nil)
	reqs := fireAttach(h, env, 2*time.Hour)
	if len(reqs) != 1 || reqs[0].to != 3 {
		t.Fatalf("setup attach = %v, want to 3", reqs)
	}
	base := 2 * time.Hour
	h.HandleMessage(base, 3, false, core.Message{Kind: core.MsgAttachAccept, Info: seqset.FromRange(1, 4)})
	for q := seqset.Seq(1); q <= 4; q++ {
		h.HandleMessage(base, 3, false, core.Message{Kind: core.MsgData, Seq: q, Payload: []byte{byte(q)}})
	}
	h.Start(base)
	// Gossip paints the wedge §4.2 cannot resolve: in-cluster peer 3 is
	// our own descendant (never a leader under options 1-2), and
	// cross-cluster host 4 sits at the same watermark, so nobody is
	// strictly greater for option 3.
	infoFrom(h, base, 3, false, 4, 2)
	infoFrom(h, base, 4, true, 4, core.Nil)
	env.reset()
	// The parent times out; the host is detached at the global watermark.
	// The escape must not fire on the detaching tick itself — options 1-3
	// come up empty and the barren gate holds option 4 back.
	h.Tick(base + 3*time.Hour)
	if h.Parent() != core.Nil {
		t.Fatalf("parent = %d after timeout, want Nil", h.Parent())
	}
	if got := env.ofKind(core.MsgAttachReq); len(got) != 0 {
		t.Fatalf("escape engaged on the detaching tick: %v", got)
	}
	// After escapeBarrenSweeps candidate-less sweeps, the similar-INFO
	// cross-cluster escape fires toward the higher-ordered host 4.
	var got []sentMsg
	for i := time.Duration(4); i <= 6 && len(got) == 0; i++ {
		got = fireAttach(h, env, base+i*time.Hour)
	}
	if len(got) != 1 || got[0].to != 4 {
		t.Fatalf("escape attach = %v, want one to host 4", got)
	}
	h.HandleMessage(base+7*time.Hour, 4, true, core.Message{Kind: core.MsgAttachAccept, Info: seqset.FromRange(1, 4)})
	if h.Parent() != 4 {
		t.Errorf("parent = %d after escape handshake, want 4", h.Parent())
	}
}
