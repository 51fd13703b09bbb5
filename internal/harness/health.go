package harness

import (
	"fmt"
	"time"

	"rbcast/internal/netsim"
)

// This file surfaces the core health layer (internal/core/health.go) in
// the harness: aggregate counters, a periodic monitor in the CycleMonitor
// mould, and the backoff-liveness invariant.

// SuspectedPairs counts (host, peer) pairs the hosts currently suspect.
func (rt *Runtime) SuspectedPairs() int {
	n := 0
	for _, h := range rt.TreeHosts {
		n += len(h.SuspectedPeers())
	}
	return n
}

// TotalResyncBursts sums fast-resync bursts across hosts.
func (rt *Runtime) TotalResyncBursts() uint64 {
	var n uint64
	for _, h := range rt.TreeHosts {
		n += h.ResyncBursts()
	}
	return n
}

// TotalSuppressedSends sums backoff-suppressed control sends across hosts.
func (rt *Runtime) TotalSuppressedSends() uint64 {
	var n uint64
	for _, h := range rt.TreeHosts {
		n += h.SuppressedSends()
	}
	return n
}

// HealthSample is one periodic observation of the fleet's health state.
type HealthSample struct {
	At time.Duration
	// SuspectedPairs is the number of (host, peer) suspicions in force.
	SuspectedPairs int
	// ResyncBursts and SuppressedSends are cumulative fleet totals.
	ResyncBursts    uint64
	SuppressedSends uint64
}

// HealthMonitor samples the fleet's suspicion state periodically, giving
// experiments a time series of how the failure detector reacted to
// partitions and heals.
type HealthMonitor struct {
	samples []HealthSample
}

// MonitorHealth starts sampling the runtime's health state every period.
// Call before Finish/RunUntil.
func (rt *Runtime) MonitorHealth(period time.Duration) *HealthMonitor {
	if period <= 0 {
		period = 100 * time.Millisecond
	}
	m := &HealthMonitor{}
	var sample func()
	sample = func() {
		m.samples = append(m.samples, HealthSample{
			At:              rt.Engine.Now(),
			SuspectedPairs:  rt.SuspectedPairs(),
			ResyncBursts:    rt.TotalResyncBursts(),
			SuppressedSends: rt.TotalSuppressedSends(),
		})
		rt.Engine.Schedule(period, sample)
	}
	rt.Engine.Schedule(0, sample)
	return m
}

// Samples returns all observations taken so far.
func (m *HealthMonitor) Samples() []HealthSample {
	out := make([]HealthSample, len(m.samples))
	copy(out, m.samples)
	return out
}

// PeakSuspectedPairs returns the maximum suspicion count observed.
func (m *HealthMonitor) PeakSuspectedPairs() int {
	peak := 0
	for _, s := range m.samples {
		if s.SuspectedPairs > peak {
			peak = s.SuspectedPairs
		}
	}
	return peak
}

// checkBackoffLiveness verifies the health layer's safety contract at the
// current instant, in deterministic host order:
//
//  1. no backoff window extends beyond BackoffMax from now (the cap is
//     respected for every peer, reachable or not), and
//  2. a peer that is reachable in both directions and was heard from
//     within the last BackoffBase is not gated past its base period —
//     fresh liveness evidence must have reset the backoff.
func (rt *Runtime) checkBackoffLiveness() (Violation, bool) {
	p := rt.scenario.Params
	now := rt.Engine.Now()
	hosts := rt.result.HostList
	for _, i := range hosts {
		h := rt.TreeHosts[i]
		for _, j := range hosts {
			if j == i {
				continue
			}
			ph := h.PeerHealthOf(j)
			if ph.NextContact > now+p.BackoffMax {
				return Violation{"backoff-liveness", fmt.Sprintf(
					"host %d gates peer %d until %v, beyond cap %v from now %v",
					i, j, ph.NextContact, p.BackoffMax, now)}, false
			}
			reachable := rt.Net.PathExists(netsim.HostID(i), netsim.HostID(j)) &&
				rt.Net.PathExists(netsim.HostID(j), netsim.HostID(i))
			heardFresh := ph.EverHeard && now-ph.LastHeard <= p.BackoffBase
			if reachable && heardFresh && ph.NextContact > now+p.BackoffBase {
				return Violation{"backoff-liveness", fmt.Sprintf(
					"host %d heard reachable peer %d at %v yet gates it until %v (> base %v past now %v)",
					i, j, ph.LastHeard, ph.NextContact, p.BackoffBase, now)}, false
			}
		}
	}
	return Violation{}, true
}
