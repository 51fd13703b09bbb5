// Package udp runs protocol hosts over real UDP sockets.
//
// This is the deployment-shaped runtime: each node owns a datagram
// socket, frames are the binary wire encoding, and UDP supplies the loss,
// reordering, and duplication semantics the protocol was designed for.
//
// Real networks provide no cost bit, so the package implements the
// paper's §2 alternative: "timestamp each message at the time it is sent
// out [...] since the expected times for cheaply delivered messages and
// for expensively delivered ones vary significantly, hosts would be able
// to tell them apart." Every datagram carries a send timestamp; the
// receiver sets the cost bit when the observed transit time exceeds a
// configured threshold. (This assumes roughly synchronized clocks, which
// holds trivially for same-machine tests and within NTP bounds
// otherwise.)
//
// A Node is one host driver (internal/node) over a socket. A datagram is
// the driver's envelope (4-byte stream ID, then the wire frame) followed
// by the sender's 8-byte big-endian unix-nano send stamp.
package udp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"time"

	"rbcast/internal/core"
	"rbcast/internal/multi"
	"rbcast/internal/node"
	"rbcast/internal/seqset"
)

// stampLen is the send stamp that trails every datagram.
const stampLen = 8

// maxDatagram bounds reads; larger frames are dropped like any network
// loss.
const maxDatagram = 64 * 1024

// NodeConfig assembles one UDP protocol node.
type NodeConfig struct {
	// ID and Source identify this host and the broadcast source.
	ID     core.HostID
	Source core.HostID
	// Peers maps every participant (including ID) to its UDP address.
	Peers map[core.HostID]string
	// Params tunes the protocol; zero value uses fast in-memory-scale
	// defaults suitable for loopback.
	Params core.Params
	// ExpensiveThreshold is the transit time above which a message is
	// classified as expensively delivered; default 25 ms.
	ExpensiveThreshold time.Duration
	// Conn optionally supplies a pre-bound socket (whose address must
	// match Peers[ID]); used to avoid bind races when allocating a group
	// of nodes on ephemeral ports.
	Conn *net.UDPConn
	// OnDeliver observes application deliveries; may be nil. payload is
	// the host's stored copy (node.Config.OnDeliver): read-only, and
	// retaining it keeps up to 32 KiB of its neighbours alive.
	OnDeliver func(seq seqset.Seq, payload []byte)
}

// Node is one running UDP protocol host.
type Node struct {
	cfg  NodeConfig
	drv  *node.Driver
	sock socket
	// readerDone is closed when the socket reader has exited.
	readerDone chan struct{}

	mu        sync.Mutex
	delivered seqset.Set
}

// StartNode binds the node's socket and starts its driver and socket
// reader.
func StartNode(cfg NodeConfig) (*Node, error) {
	addr, ok := cfg.Peers[cfg.ID]
	if !ok {
		return nil, fmt.Errorf("udp: own id %d missing from Peers", cfg.ID)
	}
	if cfg.ExpensiveThreshold <= 0 {
		cfg.ExpensiveThreshold = 25 * time.Millisecond
	}
	if cfg.Params == (core.Params{}) {
		cfg.Params = DefaultNodeParams()
	}
	conn := cfg.Conn
	if conn == nil {
		udpAddr, err := net.ResolveUDPAddr("udp", addr)
		if err != nil {
			return nil, fmt.Errorf("udp: resolving %q: %w", addr, err)
		}
		var err2 error
		conn, err2 = net.ListenUDP("udp", udpAddr)
		if err2 != nil {
			return nil, fmt.Errorf("udp: listen: %w", err2)
		}
	}
	n := &Node{
		cfg:        cfg,
		sock:       socket{conn: conn, addrs: make(map[core.HostID]netip.AddrPort, len(cfg.Peers))},
		readerDone: make(chan struct{}),
	}
	var peers []core.HostID
	for id, a := range cfg.Peers {
		ap, err := resolvePeer(a)
		if err != nil {
			_ = conn.Close()
			return nil, fmt.Errorf("udp: resolving peer %d %q: %w", id, a, err)
		}
		n.sock.addrs[id] = ap
		peers = append(peers, id)
	}
	drv, err := node.Start(node.Config{
		Bus: multi.Config{
			ID:      cfg.ID,
			Peers:   peers,
			Sources: []core.HostID{cfg.Source},
			Params:  cfg.Params,
		},
		OnDeliver: n.deliver,
	}, &n.sock)
	if err != nil {
		_ = conn.Close()
		return nil, err
	}
	n.drv = drv
	go n.readLoop()
	return n, nil
}

// resolvePeer turns a peer's address, in any spelling, into the value the
// socket sends to. The address is unmapped: a resolved IPv4 address comes
// back in its 16-byte form, ::ffff:a.b.c.d, and an AF_INET socket refuses
// to send to that.
func resolvePeer(addr string) (netip.AddrPort, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return netip.AddrPort{}, err
	}
	ap := ua.AddrPort()
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port()), nil
}

// DefaultNodeParams returns tunables scaled for loopback UDP.
func DefaultNodeParams() core.Params {
	return core.Params{
		TickInterval:      2 * time.Millisecond,
		AttachPeriod:      20 * time.Millisecond,
		InfoClusterPeriod: 8 * time.Millisecond,
		InfoRemotePeriod:  30 * time.Millisecond,
		InfoGlobalPeriod:  60 * time.Millisecond,
		GapClusterPeriod:  12 * time.Millisecond,
		GapRemotePeriod:   40 * time.Millisecond,
		GapGlobalPeriod:   90 * time.Millisecond,
		AttachTimeout:     25 * time.Millisecond,
		ParentTimeout:     150 * time.Millisecond,
		GapFillBatch:      64,
	}
}

// Addr returns the node's bound UDP address (useful with ":0" configs).
func (n *Node) Addr() string { return n.sock.conn.LocalAddr().String() }

// ID returns the node's host ID.
func (n *Node) ID() core.HostID { return n.cfg.ID }

// socket is the node.Transport of a UDP node. Addresses are held, sent to
// and read by value (netip.AddrPort), so a datagram costs no allocation
// in either direction.
type socket struct {
	conn  *net.UDPConn
	addrs map[core.HostID]netip.AddrPort
}

// Send stamps the envelope with the send time and writes the datagram.
// The write finishes with the buffer before returning, so the envelope
// goes straight back to the pool.
func (s *socket) Send(to core.HostID, env *node.Envelope) error {
	defer env.Release()
	addr, ok := s.addrs[to]
	if !ok {
		return fmt.Errorf("udp: no address for host %d", to)
	}
	*env = binary.BigEndian.AppendUint64(*env, uint64(time.Now().UnixNano()))
	_, err := s.conn.WriteToUDPAddrPort(*env, addr)
	return err
}

// receive reads one datagram into buf and returns its envelope — copied
// out of buf, the stamp cut off — and whether its transit time exceeded
// threshold. env is nil for a datagram too short to carry a stamp.
func (s *socket) receive(buf []byte, threshold time.Duration) (env *node.Envelope, costBit bool, err error) {
	count, _, err := s.conn.ReadFromUDPAddrPort(buf)
	if err != nil || count < stampLen {
		return nil, false, err
	}
	body := count - stampLen
	sentAt := time.Unix(0, int64(binary.BigEndian.Uint64(buf[body:count])))
	env = node.NewEnvelope()
	*env = append(*env, buf[:body]...)
	return env, time.Since(sentAt) > threshold, nil
}

func (n *Node) deliver(_ core.HostID, seq seqset.Seq, payload []byte) {
	n.mu.Lock()
	n.delivered.Add(seq)
	n.mu.Unlock()
	if n.cfg.OnDeliver != nil {
		n.cfg.OnDeliver(seq, payload)
	}
}

// readLoop owns the socket's read side: classify transit time from the
// trailing stamp, copy the envelope out of the read buffer, hand off.
// It never blocks on the driver, and exits when Stop closes the socket.
func (n *Node) readLoop() {
	defer close(n.readerDone)
	buf := make([]byte, maxDatagram)
	for {
		env, costBit, err := n.sock.receive(buf, n.cfg.ExpensiveThreshold)
		if errors.Is(err, net.ErrClosed) {
			return
		}
		if env != nil {
			n.drv.Offer(env, costBit)
		}
	}
}

// Broadcast injects the next message at the source node.
func (n *Node) Broadcast(payload []byte) (seqset.Seq, error) {
	return n.drv.Broadcast(payload)
}

// Inspect runs fn against the protocol host on the node's own loop — the
// only safe way to read a running node's protocol state.
func (n *Node) Inspect(fn func(h *core.Host)) error {
	return n.drv.Inspect(n.cfg.Source, fn)
}

// Delivered returns the sequence numbers this node has delivered.
func (n *Node) Delivered() seqset.Set {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.delivered.Clone()
}

// HasAll reports whether the node has delivered 1..max with no gaps.
func (n *Node) HasAll(max seqset.Seq) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.delivered.Max() == max && n.delivered.GapCount() == 0 && (max == 0 || !n.delivered.Empty())
}

// Stats returns (sent, received, decode errors, send errors).
func (n *Node) Stats() (sent, received, decodeErrs, sendErrs uint64) {
	s := n.drv.Stats()
	return s.Sent, s.Received, s.DecodeErrors, s.SendErrors
}

// InboxDrops returns how many datagrams arrived while the driver's inbox
// was full and were dropped: nonzero means the node is shedding load.
func (n *Node) InboxDrops() uint64 { return n.drv.Stats().InboxDrops }

// Stop closes the socket and waits for the driver and the socket reader
// to exit. Safe to call twice.
func (n *Node) Stop() {
	_ = n.sock.conn.Close()
	n.drv.Stop()
	<-n.readerDone
}
