// Package rbcast implements the reliable broadcast protocol of
// Garcia-Molina, Kogan & Lynch, "Reliable Broadcast in Networks with
// Nonprogrammable Servers" (ICDCS 1988), together with everything needed
// to evaluate it: a deterministic network simulator, the paper's baseline
// algorithm, a live goroutine runtime, and the full experiment suite.
//
// The protocol solves single-source broadcast in point-to-point networks
// whose servers offer unicast only (think 1988 ARPANET): hosts organize
// themselves into a dynamic parent graph rooted at the source, infer
// cluster membership from per-message cost bits, propagate data down the
// tree, and repair losses with multi-level gap filling. All delivery
// responsibility is shared — if the source disappears mid-broadcast, the
// hosts that already hold messages keep propagating them.
//
// # Three ways in
//
// Embed the protocol state machine over your own transport:
//
//	host, err := rbcast.NewHost(rbcast.Config{
//		ID: 2, Source: 1, Peers: []rbcast.HostID{1, 2, 3},
//	}, env) // env implements rbcast.Env
//	// Feed it: host.HandleMessage(now, from, costBit, msg)
//	// Clock it: host.Tick(now) every Params.TickInterval
//
// Run a live in-process fleet (goroutine per host, binary wire codec,
// injectable partitions):
//
//	fleet, err := rbcast.StartFleet(rbcast.FleetConfig{
//		Hosts: []rbcast.HostID{1, 2, 3, 4}, Source: 1,
//	})
//	defer fleet.Stop()
//	seq, err := fleet.Broadcast([]byte("update"))
//	fleet.WaitDelivered(seq, time.Second)
//
// Or simulate deterministically at scale (virtual time, reproducible by
// seed) and measure what the paper measures:
//
//	res, err := rbcast.Simulate(rbcast.SimulationConfig{
//		Clusters: 4, HostsPerCluster: 3, Messages: 50, Seed: 7,
//	})
//	fmt.Println(res.Summary())
//
// The full evaluation (Figures 3.1/3.2/4.1 and the §5/§6 performance
// claims) regenerates with cmd/rbexp; see EXPERIMENTS.md.
package rbcast

import (
	"rbcast/internal/core"
	"rbcast/internal/live"
	"rbcast/internal/multi"
	"rbcast/internal/replica"
	"rbcast/internal/seqset"
	"rbcast/internal/udp"
)

// HostID identifies a participating host; Nil means "no host".
type HostID = core.HostID

// Nil is the null host ID.
const Nil = core.Nil

// Seq is a broadcast sequence number (1-based).
type Seq = seqset.Seq

// SeqSet is an interval-coded set of sequence numbers (an INFO set).
type SeqSet = seqset.Set

// Message is a protocol message.
type Message = core.Message

// Protocol message kinds.
const (
	MsgData         = core.MsgData
	MsgInfo         = core.MsgInfo
	MsgAttachReq    = core.MsgAttachReq
	MsgAttachAccept = core.MsgAttachAccept
	MsgAttachReject = core.MsgAttachReject
	MsgDetach       = core.MsgDetach
)

// Host is the protocol state machine for one participant.
type Host = core.Host

// Config assembles a Host. It names the participants by Peers or a
// shared Roster; a Roster is built inside the module's runtimes, so
// outside it Peers is the way in.
type Config = core.Config

// Params are the protocol tunables (§6 of the paper).
type Params = core.Params

// Env is the interface a Host uses to reach the world.
type Env = core.Env

// Event is an observable protocol event; Observer receives them.
type (
	Event    = core.Event
	Observer = core.Observer
)

// NewHost constructs a protocol host over a caller-supplied environment.
func NewHost(cfg Config, env Env) (*Host, error) { return core.NewHost(cfg, env) }

// DefaultParams returns the reference protocol tuning for simulated
// networks (1 ms LAN / 30 ms WAN scale).
func DefaultParams() Params { return core.DefaultParams() }

// Fleet is a running set of live protocol nodes (goroutine per host).
type Fleet = live.Fleet

// FleetConfig assembles a live fleet.
type FleetConfig = live.FleetConfig

// PathConfig describes one host-to-host path of the live transport.
type PathConfig = live.PathConfig

// StartFleet starts a live in-process deployment of the protocol.
func StartFleet(cfg FleetConfig) (*Fleet, error) { return live.StartFleet(cfg) }

// LiveParams returns protocol tunables scaled for in-memory paths.
func LiveParams() Params { return live.LiveParams() }

// Bus runs one protocol instance per broadcast source over a shared
// transport — the paper's §2 recipe for multiple-source broadcast. Use it
// to embed multi-source broadcast over your own transport; live fleets
// get the same capability via FleetConfig.Sources.
type Bus = multi.Bus

// BusConfig assembles a Bus.
type BusConfig = multi.Config

// BusEnv is the interface a Bus uses to reach the world.
type BusEnv = multi.Env

// NewBus constructs a multi-stream protocol bus over a caller-supplied
// environment.
func NewBus(cfg BusConfig, env BusEnv) (*Bus, error) { return multi.NewBus(cfg, env) }

// UDPNode runs one protocol host over a real UDP socket, classifying
// links by observed transit time (the paper's §2 timestamp alternative
// to a network-provided cost bit).
type UDPNode = udp.Node

// UDPNodeConfig assembles a UDPNode.
type UDPNodeConfig = udp.NodeConfig

// UDPGroup is a set of loopback UDP nodes for demos and tests.
type UDPGroup = udp.Group

// StartUDPNode binds a socket and starts one protocol host on it.
func StartUDPNode(cfg UDPNodeConfig) (*UDPNode, error) { return udp.StartNode(cfg) }

// StartUDPGroup starts n loopback UDP nodes with host 1 as the source.
// Zero params use loopback-scale defaults.
func StartUDPGroup(n int, params Params) (*UDPGroup, error) { return udp.StartGroup(n, params) }

// ReplicaStore is the paper's motivating application: a last-writer-wins
// replicated register map whose merge is commutative, associative, and
// idempotent — so the protocol's unordered delivery still converges every
// replica (feed broadcast payloads through DecodeReplicaUpdate and Apply).
type ReplicaStore = replica.Store

// ReplicaUpdate is one replicated write or deletion.
type ReplicaUpdate = replica.Update

// NewReplicaStore returns an empty replicated store.
func NewReplicaStore() *ReplicaStore { return replica.NewStore() }

// EncodeReplicaUpdate renders an update as a broadcast payload.
func EncodeReplicaUpdate(u ReplicaUpdate) ([]byte, error) { return replica.EncodeUpdate(u) }

// DecodeReplicaUpdate parses a broadcast payload back into an update.
func DecodeReplicaUpdate(data []byte) (ReplicaUpdate, error) { return replica.DecodeUpdate(data) }
