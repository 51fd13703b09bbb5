package core_test

import (
	"fmt"
	"testing"
	"time"

	"rbcast/internal/core"
	"rbcast/internal/seqset"
)

type nullEnv struct{}

func (nullEnv) Send(core.HostID, core.Message) {}
func (nullEnv) Deliver(seqset.Seq, []byte)     {}

// widePeers is the participant count of the repository benchmark's
// control-plane workload; every case below also runs at this size, where
// the per-peer table is 512 records long.
const widePeers = 512

func benchHost(tb testing.TB, id core.HostID, n int) *core.Host {
	tb.Helper()
	peers := make([]core.HostID, n)
	for i := range peers {
		peers[i] = core.HostID(i + 1)
	}
	h, err := core.NewHost(core.Config{
		ID: id, Source: 1, Peers: peers, Params: core.DefaultParams(),
	}, nullEnv{})
	if err != nil {
		tb.Fatal(err)
	}
	h.Start(0)
	return h
}

// atSizes runs one case at its historical peer count and at widePeers.
func atSizes(b *testing.B, small int, run func(b *testing.B, n int)) {
	for _, n := range []int{small, widePeers} {
		b.Run(fmt.Sprintf("peers=%d", n), func(b *testing.B) { run(b, n) })
	}
}

// attachedHost returns host 2 of n with host 3 as its parent, wired via
// the handshake.
func attachedHost(tb testing.TB, n int) *core.Host {
	tb.Helper()
	h := benchHost(tb, 2, n)
	h.HandleMessage(0, 3, true, core.Message{Kind: core.MsgInfo, Info: seqset.FromRange(1, 1), Parent: core.Nil})
	h.Tick(3 * time.Hour)
	h.HandleMessage(0, 3, true, core.Message{Kind: core.MsgAttachAccept, Info: seqset.FromRange(1, 1)})
	if h.Parent() != 3 {
		tb.Fatal("setup: no parent")
	}
	return h
}

// BenchmarkHandleDataFromParent measures the common hot path: accepting
// a fresh in-order data message from the parent and forwarding it.
func BenchmarkHandleDataFromParent(b *testing.B) {
	atSizes(b, 16, func(b *testing.B, n int) {
		h := attachedHost(b, n)
		payload := make([]byte, 64)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.HandleMessage(0, 3, true, core.Message{
				Kind: core.MsgData, Seq: seqset.Seq(i + 2), Payload: payload,
			})
		}
	})
}

// BenchmarkHandleDuplicateData measures the duplicate-discard path, which
// dominates under network duplication.
func BenchmarkHandleDuplicateData(b *testing.B) {
	atSizes(b, 16, func(b *testing.B, n int) {
		h := attachedHost(b, n)
		h.HandleMessage(0, 3, true, core.Message{Kind: core.MsgData, Seq: 5, Payload: []byte("x")})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.HandleMessage(0, 3, true, core.Message{Kind: core.MsgData, Seq: 5, Payload: []byte("x")})
		}
	})
}

// BenchmarkHandleDataStream is the store layer's own number: one host
// takes a 10 000-message stream from its parent in order, except that
// every twentieth message is skipped and arrives 40 later as a gap fill,
// so the store sees appends at the top and writes below it, and INFO a
// steady trickle of runs opening and closing. One op is one message.
func BenchmarkHandleDataStream(b *testing.B) {
	const stream = 10_000
	payload := make([]byte, 256)
	b.ReportAllocs()
	for done := 0; done < b.N; {
		b.StopTimer()
		h := attachedHost(b, 16)
		b.StartTimer()
		for q := seqset.Seq(2); q <= stream+1 && done < b.N; q++ {
			if q%20 != 0 {
				h.HandleMessage(0, 3, true, core.Message{Kind: core.MsgData, Seq: q, Payload: payload})
				done++
			}
			if late := q - 40; q > 40 && late%20 == 0 {
				h.HandleMessage(0, 3, true, core.Message{Kind: core.MsgData, Seq: late, Payload: payload, GapFill: true})
				done++
			}
		}
	}
}

// routineInfo is a periodic INFO frame with a realistic (mostly
// contiguous) set.
func routineInfo() core.Message {
	info := seqset.FromRange(1, 10000)
	info.Prune(3) // give it a second run
	return core.Message{Kind: core.MsgInfo, Info: info, Parent: 1}
}

// BenchmarkHandleInfo measures the periodic INFO ingestion path.
func BenchmarkHandleInfo(b *testing.B) {
	atSizes(b, 16, func(b *testing.B, n int) {
		h := benchHost(b, 2, n)
		m := routineInfo()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.HandleMessage(0, 3, false, m)
		}
	})
}

// BenchmarkTickIdle measures a quiescent host's clock tick (nothing due).
func BenchmarkTickIdle(b *testing.B) {
	atSizes(b, 64, func(b *testing.B, n int) {
		h := benchHost(b, 2, n)
		h.Tick(time.Millisecond)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Tick(time.Millisecond * 2) // before every periodic deadline
		}
	})
}

// BenchmarkAttachmentScan measures one full attachment-procedure
// activation over a large peer set with mixed candidates.
func BenchmarkAttachmentScan(b *testing.B) {
	atSizes(b, 128, func(b *testing.B, n int) {
		h := benchHost(b, 2, n)
		// Populate MAP and cluster views for everyone.
		for j := core.HostID(3); j <= core.HostID(n); j++ {
			h.HandleMessage(0, j, j%3 == 0, core.Message{
				Kind:   core.MsgInfo,
				Info:   seqset.FromRange(1, seqset.Seq(j)),
				Parent: core.Nil,
			})
		}
		period := core.DefaultParams().AttachPeriod
		now := 3 * time.Hour
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			now += period + time.Millisecond
			h.Tick(now)
			// Cancel any pending handshake so the next tick scans again.
			h.HandleMessage(now, h.Parent(), false, core.Message{Kind: core.MsgDetach})
		}
	})
}

// TestWarmWideHostAllocs pins the steady state of a widePeers-peer host
// that has heard from everyone: the per-peer table is fully populated, so
// routine control traffic, a duplicate and an idle tick touch records in
// place and allocate nothing.
func TestWarmWideHostAllocs(t *testing.T) {
	h := attachedHost(t, widePeers)
	info := routineInfo()
	for j := core.HostID(3); j <= widePeers; j++ {
		h.HandleMessage(0, j, j%3 == 0, info)
	}
	dup := core.Message{Kind: core.MsgData, Seq: 5, Payload: []byte("x")}
	h.HandleMessage(0, 3, true, dup)
	now := 3*time.Hour + time.Millisecond
	h.Tick(now)

	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"routine MsgInfo", func() { h.HandleMessage(now, 300, false, info) }},
		{"duplicate MsgData", func() { h.HandleMessage(now, 3, true, dup) }},
		{"idle Tick", func() { h.Tick(now) }},
	} {
		if got := testing.AllocsPerRun(200, tc.run); got != 0 {
			t.Errorf("%s: %v allocs per run, want 0", tc.name, got)
		}
	}
}
