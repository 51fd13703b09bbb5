package udp_test

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rbcast/internal/core"
	"rbcast/internal/udp"
	"rbcast/internal/wire"
)

// TestUDPStopUnderInboundFlood stops a node while several goroutines are
// still slamming its socket with valid frames, truncated headers, and
// garbage. Stop must return promptly (socket close unblocks the read
// loop even mid-datagram), be safe to call again, and the node must not
// panic or deadlock no matter how the flood interleaves with shutdown —
// the race detector audits the handoff between readLoop and the driver.
func TestUDPStopUnderInboundFlood(t *testing.T) {
	node, err := udp.StartNode(udp.NodeConfig{
		ID:     1,
		Source: 1,
		Peers:  map[core.HostID]string{1: "127.0.0.1:0"},
	})
	if err != nil {
		t.Fatalf("StartNode: %v", err)
	}
	target, err := net.ResolveUDPAddr("udp", node.Addr())
	if err != nil {
		t.Fatalf("resolving node addr: %v", err)
	}

	valid := datagram(t, 1, time.Now(), wire.Frame{
		From:    2,
		Message: core.Message{Kind: core.MsgInfo},
	})
	datagrams := [][]byte{
		valid,
		{0x01, 0x02, 0x03}, // shorter than the send stamp
		append([]byte{0xFF, 0xFF}, valid[len(valid)-8:]...),                // stamp present, envelope too short
		append(append([]byte(nil), valid[:6]...), valid[len(valid)-8:]...), // truncated frame
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := net.DialUDP("udp", nil, target)
			if err != nil {
				return
			}
			defer conn.Close()
			for !stop.Load() {
				_, _ = conn.Write(datagrams[i%len(datagrams)])
			}
		}()
	}

	// Let the flood build up real inbound pressure, then stop mid-stream.
	time.Sleep(100 * time.Millisecond)
	done := make(chan struct{})
	var readerLeft bool
	go func() {
		node.Stop()
		// Stop waits for the socket reader too, not just the node
		// goroutine: the instant it returns, with the flood still
		// running, no read loop may be left behind.
		readerLeft = !udp.ReaderExited(node)
		node.Stop() // idempotent even under fire
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Stop did not return within 10s under inbound flood")
	}
	if readerLeft {
		t.Error("socket reader still running when Stop returned")
	}
	stop.Store(true)
	wg.Wait()

	if _, err := node.Broadcast([]byte("x")); err == nil {
		t.Error("broadcast succeeded after stop")
	}
	if err := node.Inspect(func(*core.Host) {}); err == nil {
		t.Error("inspect succeeded after stop")
	}
}
