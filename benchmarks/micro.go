package main

import (
	"math/rand"
	"time"

	"rbcast/benchmarks/tracedsim"
	"rbcast/internal/core"
	"rbcast/internal/netsim"
	"rbcast/internal/seqset"
	"rbcast/internal/sim"
	"rbcast/internal/topo"
	"rbcast/internal/wire"
)

// isolated is the network layer measured on its own.
type isolated struct {
	nsPerSend, allocsPerSend float64
	sends                    int
}

// isolatedNetsim times Network.Send through to delivery on the
// workload's own topology with no-op handlers: the engine and the
// network, nothing above them. Pairs are drawn from the seed.
func isolatedNetsim(tc topo.ClusteredConfig, seed int64) isolated {
	eng := sim.NewEngine(seed)
	tp, err := topo.Clustered(eng, tc)
	if err != nil {
		return isolated{}
	}
	for _, h := range tp.Hosts {
		_ = tp.Net.Handle(h, func(time.Duration, netsim.Envelope) {}) // h is a host of tp
	}
	rng := rand.New(rand.NewSource(seed))
	const batch, batches = 1000, 20
	pairs := make([][2]netsim.HostID, batch)
	for i := range pairs {
		a := rng.Intn(len(tp.Hosts))
		b := (a + 1 + rng.Intn(len(tp.Hosts)-1)) % len(tp.Hosts)
		pairs[i] = [2]netsim.HostID{tp.Hosts[a], tp.Hosts[b]}
	}
	msg := core.Message{Kind: core.MsgData, Seq: 1, Payload: make([]byte, 64)}
	round := func() {
		for _, p := range pairs {
			_ = tp.Net.Send(p[0], p[1], msg) // both hosts exist and differ
		}
		_ = eng.RunUntilIdle() // nothing calls Stop
	}
	round() // route caches and the event heap reach working size
	wall, mallocs, _ := timed(wallClock, func() {
		for i := 0; i < batches; i++ {
			round()
		}
	})
	n := batch * batches
	return isolated{
		nsPerSend:     float64(wall.Nanoseconds()) / float64(n),
		allocsPerSend: float64(mallocs) / float64(n),
		sends:         n,
	}
}

// sinks keep the timed calls' results alive.
var (
	sinkInt   int
	sinkFrame wire.Frame
	sinkSet   seqset.Set
)

// perItem times f, which processes n items per call, for at least
// minWall and returns nanoseconds and allocations per item.
func perItem(n int, f func()) (ns, allocs float64) {
	const minWall = 40 * time.Millisecond
	f()
	rounds := 0
	wall, mallocs, _ := timed(wallClock, func() {
		start := time.Now()
		for rounds == 0 || time.Since(start) < minWall {
			f()
			rounds++
		}
	})
	items := float64(rounds * n)
	return float64(wall.Nanoseconds()) / items, float64(mallocs) / items
}

// corpusTimings times the codec and the seqset operations over the
// frames the traced run actually sent, so the mix of kinds and the run
// counts of the INFO sets are the workload's own.
func corpusTimings(frames []tracedsim.Frame, set func(string, float64, int)) {
	if len(frames) == 0 {
		return
	}
	var corpus []wire.Frame
	var encoded [][]byte
	var partless [][]byte
	var sets []seqset.Set
	var bytes, runs int
	for _, f := range frames {
		wf := wire.Frame{From: f.From, Message: f.Msg}
		b, err := wire.Encode(wf)
		if err != nil {
			continue
		}
		corpus = append(corpus, wf)
		encoded = append(encoded, b)
		bytes += len(b)
		if f.Msg.Kind != core.MsgBundle && f.Msg.Kind != core.MsgSyncResp {
			partless = append(partless, b)
		}
		switch f.Msg.Kind {
		case core.MsgInfo, core.MsgAttachReq, core.MsgAttachAccept:
			sets = append(sets, f.Msg.Info)
			runs += f.Msg.Info.RunCount()
		}
	}
	n := len(corpus)
	if n == 0 {
		return
	}
	set("wire.bytes_per_frame", float64(bytes)/float64(n), n)

	var buf []byte
	ns, _ := perItem(n, func() {
		for _, f := range corpus {
			buf, _ = wire.AppendEncode(buf[:0], f) // every corpus frame encoded once already
		}
	})
	set("wire.appendencode_ns_per_frame", ns, n)
	ns, _ = perItem(n, func() {
		for _, f := range corpus {
			size, _ := wire.EncodedSize(f)
			sinkInt += size
		}
	})
	set("wire.encodedsize_ns_per_frame", ns, n)
	ns, allocs := perItem(n, func() {
		for _, b := range encoded {
			sinkFrame, _ = wire.Decode(b)
		}
	})
	set("wire.decode_ns_per_frame", ns, n)
	set("wire.decode_allocs_per_frame", allocs, n)
	if len(partless) > 0 {
		var d wire.Decoder
		ns, _ = perItem(len(partless), func() {
			for _, b := range partless {
				sinkFrame, _ = d.Decode(b)
			}
		})
		set("wire.decoder_ns_per_frame", ns, len(partless))
	}

	if len(sets) < 2 {
		return
	}
	set("seqset.runs_mean", float64(runs)/float64(len(sets)), len(sets))
	pairs := len(sets) - 1
	var scratch seqset.Set
	ns, _ = perItem(pairs, func() {
		for i := 0; i < pairs; i++ {
			sets[i+1].DiffInto(&scratch, sets[i])
		}
	})
	set("seqset.diff_ns", ns, pairs)
	ns, _ = perItem(pairs, func() {
		for i := 0; i < pairs; i++ {
			u := sets[i].Clone()
			u.Union(sets[i+1])
			sinkSet = u
		}
	})
	set("seqset.union_ns", ns, pairs)
	deltas := make([]seqset.Set, pairs)
	for i := range deltas {
		deltas[i] = sets[i+1].Diff(sets[i])
	}
	ns, _ = perItem(pairs, func() {
		for i := 0; i < pairs; i++ {
			u := sets[i].Clone()
			u.ApplyDelta(deltas[i])
			sinkSet = u
		}
	})
	set("seqset.applydelta_ns", ns, pairs)
}
