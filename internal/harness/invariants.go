package harness

import (
	"fmt"
	"slices"

	"rbcast/internal/core"
	"rbcast/internal/netsim"
	"rbcast/internal/seqset"
)

// This file checks the paper's structural claims about the host parent
// graph against simulator ground truth. Tests call these after letting a
// scenario converge.

// Both walks below take their start hosts in the order given, and every
// caller passes Result.HostList, which newResult sorts ascending, so for
// a given runtime state every report — which cycle, which rotation of
// it, which host's broken ancestry — is a pure function of the parent
// graph.

// parentOf is id's current parent pointer; core.Nil for a host that has
// none or is not part of the run.
func (rt *Runtime) parentOf(id core.HostID) core.HostID {
	if h := rt.TreeHost(id); h != nil {
		return h.Parent()
	}
	return core.Nil
}

// parentCycle follows parent pointers from each host in turn, in the
// order given, and returns the first host whose walk revisits a host,
// with the cycle it ran into listed from the revisited host on. cycle is
// nil when the graph is acyclic. hosts must be ascending; a parent
// outside them ends a walk as NIL does.
func parentCycle(hosts []core.HostID, parent func(core.HostID) core.HostID) (from core.HostID, cycle []core.HostID) {
	// seen[i] is one past the index of the last walk that visited hosts[i].
	seen := make([]int, len(hosts))
	for w, id := range hosts {
		for cur := id; cur != core.Nil; cur = parent(cur) {
			i, ok := slices.BinarySearch(hosts, cur)
			if !ok {
				break
			}
			if seen[i] != w+1 {
				seen[i] = w + 1
				continue
			}
			cycle = append(cycle, cur)
			for at := parent(cur); at != cur; at = parent(at) {
				cycle = append(cycle, at)
			}
			return id, cycle
		}
	}
	return core.Nil, nil
}

// unrooted follows parent pointers from each host in turn, in the order
// given, and says why the graph is not a spanning tree rooted at source;
// "" when it is one.
func unrooted(hosts []core.HostID, source core.HostID, parent func(core.HostID) core.HostID) string {
	for _, id := range hosts {
		if id == source {
			if p := parent(id); p != core.Nil {
				return fmt.Sprintf("source has parent %d", p)
			}
			continue
		}
		cur := id
		for steps := 0; cur != source; steps++ {
			if cur == core.Nil {
				return fmt.Sprintf("host %d's ancestry ends at NIL", id)
			}
			if steps > len(hosts) {
				return fmt.Sprintf("host %d's ancestry does not terminate (cycle)", id)
			}
			cur = parent(cur)
		}
	}
	return ""
}

// ParentGraphAcyclic reports whether the current parent pointers contain
// no cycle; when they do, it returns one.
func (rt *Runtime) ParentGraphAcyclic() (bool, []core.HostID) {
	if rt.TreeHosts == nil {
		return true, nil
	}
	_, cycle := parentCycle(rt.result.HostList, rt.parentOf)
	return cycle == nil, cycle
}

// SpanningTreeRooted reports whether every host reaches the source by
// following parent pointers (the parent graph is a spanning tree rooted
// at the source).
func (rt *Runtime) SpanningTreeRooted() (bool, string) {
	if rt.TreeHosts == nil {
		return false, "not a tree-protocol run"
	}
	why := unrooted(rt.result.HostList, core.HostID(rt.Topo.Source), rt.parentOf)
	return why == "", why
}

// InducesClusterTree checks the §4.1 definition against true clusters:
// (1) the parent graph is a spanning tree rooted at the source, and
// (2) within each true cluster there is exactly one leader (a host whose
// parent is outside the cluster or NIL) and every other host of the
// cluster is a direct child of that leader.
func (rt *Runtime) InducesClusterTree() (bool, string) {
	if ok, why := rt.SpanningTreeRooted(); !ok {
		return false, why
	}
	return rt.oneLeaderPerCluster()
}

// oneLeaderPerCluster is condition (2) of InducesClusterTree.
func (rt *Runtime) oneLeaderPerCluster() (bool, string) {
	truth := rt.Net.TrueClusters()
	for _, c := range truth.Clusters {
		leaders := rt.leaders(truth, c)
		if len(leaders) != 1 {
			return false, fmt.Sprintf("cluster %d has %d leaders (%v)", c.ID, len(leaders), leaders)
		}
		leader := leaders[0]
		for _, h := range c.Hosts {
			if core.HostID(h) == leader {
				continue
			}
			if p := rt.parentOf(core.HostID(h)); p != leader {
				return false, fmt.Sprintf(
					"cluster %d: host %d's parent is %d, not leader %d", c.ID, h, p, leader)
			}
		}
	}
	return true, ""
}

// leaders lists the tree hosts of true cluster c whose parent is NIL or
// outside c, ascending.
func (rt *Runtime) leaders(truth *netsim.Clustering, c netsim.TrueCluster) []core.HostID {
	var out []core.HostID
	for _, h := range c.Hosts {
		th := rt.TreeHost(core.HostID(h))
		if th == nil {
			continue
		}
		if p := th.Parent(); p == core.Nil || truth.Of(netsim.HostID(p)) != c.ID {
			out = append(out, core.HostID(h))
		}
	}
	return out
}

// Violation is one failed invariant, named so sweep reports can group
// failures across thousands of runs.
type Violation struct {
	// Invariant is a stable identifier ("acyclic", "spanning-tree",
	// "cluster-tree", "delivery", "duplicates", "send-errors",
	// "backoff-liveness", "byz-agreement", "byz-forged-frame").
	Invariant string
	// Detail explains the specific failure.
	Detail string
}

// String implements fmt.Stringer.
func (v Violation) String() string { return v.Invariant + ": " + v.Detail }

// InvariantOptions selects which checks CheckInvariants applies beyond
// the unconditional ones (acyclicity, no duplicate deliveries, no send
// errors).
type InvariantOptions struct {
	// RequireDelivery demands every host delivered every message.
	RequireDelivery bool
	// RequireTree demands a spanning tree rooted at the source inducing a
	// cluster tree — only meaningful once the network is connected and
	// the protocol has had time to converge.
	RequireTree bool
}

// CheckInvariants runs the invariant bundle and returns every violation
// found. Hosts are visited in ascending ID order, so for a given runtime
// state the report is byte-for-byte deterministic — a property the soak
// engine's worker-count-independence guarantee rests on.
func (rt *Runtime) CheckInvariants(opts InvariantOptions) []Violation {
	return rt.violations(opts, false)
}

// InvariantsHold reports whether CheckInvariants(opts) would come back
// empty, without writing the report: it stops at the first violation. A
// caller that polls until a scenario has converged asks this per step,
// and CheckInvariants once for the report it keeps — under an adversary
// that forges every delivery, one report is thousands of formatted lines.
func (rt *Runtime) InvariantsHold(opts InvariantOptions) bool {
	return len(rt.violations(opts, true)) == 0
}

// violations is the walker behind both: every violation, or — with first
// — none past the first one found.
func (rt *Runtime) violations(opts InvariantOptions, first bool) []Violation {
	rt.merge()
	var out []Violation
	res := rt.result
	if res.DuplicateDeliveries != 0 {
		out = append(out, Violation{"duplicates",
			fmt.Sprintf("%d duplicate deliveries", res.DuplicateDeliveries)})
	}
	if res.SendErrors != 0 {
		out = append(out, Violation{"send-errors",
			fmt.Sprintf("%d rejected sends", res.SendErrors)})
	}
	if rt.TreeHosts != nil && rt.scenario.Params.BackoffEnabled() {
		if v, ok := rt.checkBackoffLiveness(); !ok {
			out = append(out, v)
		}
	}
	if rt.TreeHosts != nil {
		hosts := res.HostList
		if from, cycle := parentCycle(hosts, rt.parentOf); cycle != nil {
			out = append(out, Violation{"acyclic",
				fmt.Sprintf("parent cycle reachable from host %d (via %d)", from, cycle[0])})
		} else if opts.RequireTree {
			if why := unrooted(hosts, core.HostID(rt.Topo.Source), rt.parentOf); why != "" {
				out = append(out, Violation{"spanning-tree", why})
			} else if ok, why := rt.oneLeaderPerCluster(); !ok {
				out = append(out, Violation{"cluster-tree", why})
			}
		}
	}
	if first && len(out) > 0 {
		return out
	}
	if opts.RequireDelivery {
		for _, h := range res.HostList {
			if rt.adversarial(h) {
				// An adversary may silence or corrupt its own traffic; the
				// paper's delivery guarantee is owed to correct hosts only.
				continue
			}
			if missing := res.MissingAt(h); len(missing) > 0 {
				out = append(out, Violation{"delivery",
					fmt.Sprintf("host %d missing %d of %d messages (first %v)",
						h, len(missing), res.TotalMessages(), missing[0])})
				if first {
					return out
				}
			}
		}
	}
	if rt.Adversary != nil {
		out = append(out, rt.checkByzantine(first)...)
	}
	return out
}

// adversarial reports whether h is under adversary control this run.
func (rt *Runtime) adversarial(h core.HostID) bool {
	return rt.Adversary != nil && rt.Adversary.Controls(h)
}

// byzRow is what checkByzantine remembers of one sequence number: the
// first correct host seen delivering it, and the digest it delivered.
type byzRow struct {
	host   core.HostID
	digest uint64
}

// checkByzantine applies the two agreement invariants that matter once
// adversaries are in play. "byz-forged-frame": every payload a correct
// host delivers must carry the digest the source actually broadcast for
// that sequence number — and a sequence number nobody broadcast is a
// fabrication by definition. "byz-agreement": any two correct hosts
// delivering the same sequence number delivered the same digest (the
// pairwise consequence of the former, kept as its own named invariant
// because equivocation breaks it even when the broadcast record is
// unavailable to an observer). Hosts and sequence numbers are visited in
// ascending order — HostList's, and each delivery window's — so the
// report is byte-for-byte deterministic. With first, the walk returns at
// its first finding. The map of first deliveries is kept from call to
// call and emptied at the start of each, so it keeps its buckets.
func (rt *Runtime) checkByzantine(first bool) []Violation {
	var out []Violation
	res := rt.result
	if rt.byzFirst == nil {
		rt.byzFirst = make(map[seqset.Seq]byzRow)
	}
	seen := rt.byzFirst
	clear(seen)
	for i, h := range res.HostList {
		if rt.adversarial(h) {
			continue
		}
		for q, d := range res.deliveries[i].Digests {
			if want, broadcast := res.BroadcastDigest[q]; !broadcast {
				out = append(out, Violation{"byz-forged-frame",
					fmt.Sprintf("host %d delivered fabricated seq %d that no source broadcast", h, q)})
			} else if d != want {
				out = append(out, Violation{"byz-forged-frame",
					fmt.Sprintf("host %d delivered seq %d with digest %#x; source sent %#x", h, q, d, want)})
			}
			if prev, ok := seen[q]; !ok {
				seen[q] = byzRow{h, d}
			} else if prev.digest != d {
				out = append(out, Violation{"byz-agreement",
					fmt.Sprintf("hosts %d and %d delivered different payloads for seq %d (%#x vs %#x)",
						prev.host, h, q, prev.digest, d)})
			}
			if first && len(out) > 0 {
				return out
			}
		}
	}
	return out
}
