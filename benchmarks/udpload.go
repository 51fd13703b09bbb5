package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"sync/atomic"
	"syscall"
	"time"

	"rbcast/internal/core"
	"rbcast/internal/seqset"
	"rbcast/internal/udp"
)

// udpSpec sizes the udp-loopback workload: an open loop of broadcasts at
// a fixed rate over real loopback sockets.
type udpSpec struct {
	hosts       int
	rate        int // broadcasts per second
	window      time.Duration
	warmWindow  time.Duration
	payloadSize int
	// limitMS is the latency limit on the 90th percentile.
	limitMS float64
	// grace is how long after the last send a delivery may still arrive.
	grace time.Duration
	// dropDeliver, when set, makes the benchmark's OnDeliver ignore the
	// deliveries it selects; tests plant a lost delivery with it.
	dropDeliver func(host core.HostID, seq seqset.Seq) bool
}

// hostLog is what one node's OnDeliver records. Its goroutine is the
// only writer; the poller and the final tally read atomically.
type hostLog struct {
	at         []atomic.Int64 // by seq: delivery instant, ns since the window's base; 0 = not yet
	delivered  atomic.Int64
	duplicates atomic.Int64
	mismatches atomic.Int64
}

// udpIter is one window's measurements beyond the common ones.
type udpIter struct {
	it         iter
	treeFormMS float64
	lateMS     []float64
	cpuUS      float64
	sent       uint64
	decodeErrs uint64
	sendErrs   uint64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// pollUntil polls cond every millisecond until it holds or timeout
// passes.
func pollUntil(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// runWindow starts a fresh group of nodes, waits for the tree, and
// offers one window of load.
func (s udpSpec) runWindow(seed int64, window time.Duration, out *result) (udpIter, error) {
	var ui udpIter
	n := int(window.Seconds() * float64(s.rate))
	if n < 1 {
		n = 1
	}
	interval := time.Second / time.Duration(s.rate)
	rng := rand.New(rand.NewSource(seed))
	// Sequence 1 probes that the tree carries data; the window's
	// broadcasts are 2..n+1.
	payloads := make([][]byte, n+2)
	for i := 1; i < len(payloads); i++ {
		payloads[i] = make([]byte, s.payloadSize)
		rng.Read(payloads[i])
	}

	setupStart := time.Now()
	base := setupStart
	const source = core.HostID(1)
	conns := make(map[core.HostID]*net.UDPConn, s.hosts)
	peers := make(map[core.HostID]string, s.hosts)
	nodes := make(map[core.HostID]*udp.Node, s.hosts)
	logs := make(map[core.HostID]*hostLog, s.hosts)
	defer func() {
		for id, c := range conns {
			if nodes[id] == nil {
				_ = c.Close() // never handed to a node
			}
		}
		for _, node := range nodes {
			node.Stop()
		}
	}()
	for i := 1; i <= s.hosts; i++ {
		conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			return ui, fmt.Errorf("binding node %d: %w", i, err)
		}
		conns[core.HostID(i)] = conn
		peers[core.HostID(i)] = conn.LocalAddr().String()
	}
	for i := 1; i <= s.hosts; i++ {
		id := core.HostID(i)
		log := &hostLog{at: make([]atomic.Int64, n+2)}
		logs[id] = log
		node, err := udp.StartNode(udp.NodeConfig{
			ID:     id,
			Source: source,
			Peers:  peers,
			Conn:   conns[id],
			OnDeliver: func(seq seqset.Seq, payload []byte) {
				now := int64(time.Since(base))
				if s.dropDeliver != nil && s.dropDeliver(id, seq) {
					return
				}
				if seq < 1 || int(seq) >= len(log.at) || !bytes.Equal(payload, payloads[seq]) {
					log.mismatches.Add(1)
					return
				}
				if !log.at[seq].CompareAndSwap(0, now) {
					log.duplicates.Add(1)
					return
				}
				log.delivered.Add(1)
			},
		})
		if err != nil {
			return ui, fmt.Errorf("starting node %d: %w", i, err)
		}
		nodes[id] = node
	}
	// With no data every INFO set is empty and no host outranks another,
	// so the tree only forms behind the first broadcast: send one, wait
	// until it is everywhere and every receiver has a parent.
	if _, err := nodes[source].Broadcast(payloads[1]); err != nil {
		return ui, err
	}
	everywhere := func(count int64) func() bool {
		return func() bool {
			for _, log := range logs {
				if log.delivered.Load() < count {
					return false
				}
			}
			return true
		}
	}
	if !pollUntil(s.grace, everywhere(1)) {
		return ui, fmt.Errorf("first message not delivered everywhere within %v", s.grace)
	}
	formed := pollUntil(s.grace, func() bool {
		for id, node := range nodes {
			if id == source {
				continue
			}
			parent := core.Nil
			if err := node.Inspect(func(h *core.Host) { parent = h.Parent() }); err != nil || parent == core.Nil {
				return false
			}
		}
		return true
	})
	if !formed {
		return ui, fmt.Errorf("no tree within %v", s.grace)
	}
	ui.treeFormMS = float64(time.Since(setupStart)) / float64(time.Millisecond)
	ui.it.setup = time.Since(setupStart)

	statsSum := func() (sent, decodeErrs, sendErrs uint64) {
		for _, node := range nodes {
			a, _, c, d := node.Stats()
			sent, decodeErrs, sendErrs = sent+a, decodeErrs+c, sendErrs+d
		}
		return
	}
	due := make([]int64, n+2)
	ui.lateMS = make([]float64, 0, n)
	sent0, dec0, serr0 := statsSum()
	cpu0 := cpuTime()
	var genErr error
	ui.it.took, ui.it.mallocs, ui.it.bytes = timed(wallClock, func() {
		start := time.Now()
		for i := 0; i < n; i++ {
			at := start.Add(time.Duration(i) * interval)
			if d := time.Until(at); d > 0 {
				time.Sleep(d)
			}
			seq := seqset.Seq(i + 2)
			due[seq] = int64(at.Sub(base))
			ui.lateMS = append(ui.lateMS, float64(time.Since(at))/float64(time.Millisecond))
			got, err := nodes[source].Broadcast(payloads[seq])
			if err != nil || got != seq {
				genErr = fmt.Errorf("broadcast %d: got seq %d, err %v", seq, got, err)
				return
			}
		}
		pollUntil(s.grace, everywhere(int64(n+1)))
	})
	if genErr != nil {
		return ui, genErr
	}
	ui.cpuUS = float64((cpuTime() - cpu0).Microseconds())
	sent1, dec1, serr1 := statsSum()
	ui.sent, ui.decodeErrs, ui.sendErrs = sent1-sent0, dec1-dec0, serr1-serr0

	// An operation is one expected (receiver, seq) delivery of the
	// window. The source delivers to itself inside Broadcast; that is
	// checked like any delivery but says nothing about the network, so it
	// is neither an operation nor a latency sample.
	ui.it.latencyMS = make([]float64, 0, n*(s.hosts-1))
	for id, log := range logs {
		bad := int(log.duplicates.Load() + log.mismatches.Load())
		if bad > 0 {
			out.problemf("host %d: %d duplicate, %d wrong-payload deliveries", id, log.duplicates.Load(), log.mismatches.Load())
		}
		missing := 0
		for seq := 2; seq <= n+1; seq++ {
			at := log.at[seq].Load()
			if at == 0 {
				missing++
				continue
			}
			if id != source {
				ui.it.latencyMS = append(ui.it.latencyMS, float64(at-due[seq])/float64(time.Millisecond))
			}
		}
		if missing > 0 {
			out.problemf("host %d: %d of %d broadcasts undelivered %v after the last send", id, missing, n, s.grace)
		}
		if id != source {
			ui.it.attempted += n
		}
		ui.it.failed += missing + bad
	}
	ui.it.work = float64(len(ui.it.latencyMS))
	return ui, nil
}

func (s udpSpec) run(c runCfg, out *result) error {
	var windows []udpIter
	iters, err := iterate(c.seconds, false, out, func(out *result, _ clock, warm bool) (iter, error) {
		w := s.window
		if warm {
			w = s.warmWindow
		}
		ui, err := s.runWindow(c.seed, w, out)
		if !warm && err == nil {
			windows = append(windows, ui)
		}
		return ui.it, err
	})
	if err != nil {
		return err
	}
	if !c.trace {
		endToEndFrom(out, iters)
		if p90 := out.Metrics["latency_p90_ms"].Value; p90 > s.limitMS {
			out.Notes = append(out.Notes, fmt.Sprintf("latency limit missed: p90 %.3f ms > %.1f ms at %d broadcasts/s", p90, s.limitMS, s.rate))
		}
		return nil
	}

	// No spans inside this path: counters, the process's CPU time, and the
	// generator's own lateness instead.
	set := out.set
	out.K = len(windows)
	var sent, dec, serr, cpu, tree, lat, late []float64
	for _, w := range windows {
		out.Attempted += w.it.attempted
		out.Failed += w.it.failed
		sent = append(sent, float64(w.sent))
		dec = append(dec, float64(w.decodeErrs))
		serr = append(serr, float64(w.sendErrs))
		cpu = append(cpu, ratio(w.cpuUS, w.it.work))
		tree = append(tree, w.treeFormMS)
		lat = append(lat, w.it.latencyMS...)
		late = append(late, w.lateMS...)
	}
	set("udp.datagrams_sent", median(sent), len(sent))
	set("udp.datagrams_per_delivery", ratio(median(sent), windows[0].it.work), len(sent))
	set("udp.decode_errors", median(dec), len(dec))
	set("udp.send_errors", median(serr), len(serr))
	set("udp.cpu_us_per_delivery", median(cpu), len(cpu))
	set("udp.tree_form_ms", median(tree), len(tree))
	set("udp.deliver_p99_ms", quantile(sorted(lat), 0.99), len(lat))
	set("udp.gen_late_p99_ms", quantile(sorted(late), 0.99), len(late))
	return nil
}
