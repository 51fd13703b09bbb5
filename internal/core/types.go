// Package core implements the paper's reliable broadcast protocol for
// networks with nonprogrammable servers as a pure, runtime-agnostic state
// machine.
//
// A Host consumes two kinds of input — received messages and clock ticks
// — and produces output exclusively through the Env interface. It has no
// goroutines, no real clocks, and no I/O, so the same implementation runs
// unchanged under the deterministic discrete-event harness
// (internal/harness) and the real-time goroutine runtime (internal/live).
//
// Protocol elements implemented here, by paper section:
//
//   - §4.1 host parent graph and the parent-only acceptance rule for
//     new-maximum data messages;
//   - §4.2 the attachment procedure, Cases I–III with their option lists,
//     the attach request/ack handshake with timeout, and old-parent
//     notification;
//   - §4.3 cycle handling: intra-cluster cycle detection by ancestor walk
//     and the max-order detachment rule; cross-cluster cycles break via
//     Case II option 3; parent-silence timeout;
//   - §4.4 gap filling: on-attach fill by the new parent, relay of
//     received gap fills to parent-graph neighbours, periodic neighbour
//     fills at cluster/remote frequencies, and low-frequency global fill
//     between non-neighbours (leaders only), which resolves the paper's
//     Figure 4.1 scenario;
//   - §2 cluster inference from per-message cost bits;
//   - §6 tunable exchange frequencies and INFO-prefix pruning.
package core

import (
	"fmt"
	"time"

	"rbcast/internal/seqset"
)

// HostID identifies a participating host. IDs are positive; Nil (0)
// denotes "no host", used for nil parent pointers.
type HostID int

// Nil is the null host ID (a NIL parent pointer).
const Nil HostID = 0

// MsgKind enumerates protocol message types.
type MsgKind int

const (
	// MsgData carries one sequence-numbered broadcast message (or a
	// gap-filling redelivery of one).
	MsgData MsgKind = iota + 1
	// MsgInfo is the periodic control exchange: the sender's INFO set and
	// current parent pointer.
	MsgInfo
	// MsgAttachReq asks the destination to adopt the sender as a child;
	// carries the sender's INFO set so the new parent can fill gaps.
	MsgAttachReq
	// MsgAttachAccept confirms adoption; carries the parent's INFO set.
	MsgAttachAccept
	// MsgAttachReject declines adoption.
	MsgAttachReject
	// MsgDetach tells the destination the sender is no longer its child
	// (or, sent by a would-be parent, that the destination is not its
	// child).
	MsgDetach
	// MsgBundle piggybacks several messages to the same destination in
	// one packet — the §6 "fairly obvious optimization". Bundles never
	// nest.
	MsgBundle
	// MsgInfoDelta is a periodic INFO exchange carrying only the runs the
	// sender gained since its last INFO/delta to the same peer, plus a
	// (max, length) checksum of the full set. Sent instead of MsgInfo when
	// Params.DeltaInfo is on and the delta coding is strictly smaller;
	// senders periodically resynchronize with a full MsgInfo.
	MsgInfoDelta
	// MsgEcho is the first voting phase of the optional Bracha-flavoured
	// hardening mode (Params.EchoReady): "I received a data message with
	// this sequence number and this payload digest". Seq carries the
	// sequence number and CheckLen the digest; the payload itself is not
	// repeated.
	MsgEcho
	// MsgReady is the second voting phase of the hardening mode: "enough
	// peers echoed this (sequence, digest) that delivering it is safe".
	// Field usage matches MsgEcho.
	MsgReady
	// MsgSyncReq is a catch-up range request (Params.SyncBatch): Info
	// carries the requested sequence ranges, Seq the request id (the low
	// bound of the first range, echoed back in the response so the
	// requester can match responses to in-flight windows).
	MsgSyncReq
	// MsgSyncResp answers a MsgSyncReq: Parts carries the requested data
	// messages (each a gap-fill MsgData), Info the requested-but-pruned
	// subset the responder no longer stores, Seq echoes the request id,
	// and CheckLen advertises the responder's snapshot watermark so the
	// requester knows a snapshot can cover the pruned prefix.
	MsgSyncResp
	// MsgSnapReq asks for checkpointed state transfer: Seq is the byte
	// offset to resume from (0 starts over) and CheckLen the snapshot
	// watermark being resumed (0 accepts whatever is current).
	MsgSnapReq
	// MsgSnapChunk carries one chunk of a checkpoint: Payload the chunk
	// bytes, Seq the byte offset of the chunk, CheckLen the total
	// snapshot length, and Info the single interval [1, mark] the
	// snapshot covers.
	MsgSnapChunk
)

// String implements fmt.Stringer.
func (k MsgKind) String() string {
	switch k {
	case MsgData:
		return "data"
	case MsgInfo:
		return "info"
	case MsgAttachReq:
		return "attach-req"
	case MsgAttachAccept:
		return "attach-accept"
	case MsgAttachReject:
		return "attach-reject"
	case MsgDetach:
		return "detach"
	case MsgBundle:
		return "bundle"
	case MsgInfoDelta:
		return "info-delta"
	case MsgEcho:
		return "echo"
	case MsgReady:
		return "ready"
	case MsgSyncReq:
		return "sync-req"
	case MsgSyncResp:
		return "sync-resp"
	case MsgSnapReq:
		return "snap-req"
	case MsgSnapChunk:
		return "snap-chunk"
	default:
		return fmt.Sprintf("MsgKind(%d)", int(k))
	}
}

// IsControl reports whether the message kind is control traffic (anything
// that is not a data/gap-fill message). The paper's §5 cost comparison
// distinguishes data from control transmissions.
func (k MsgKind) IsControl() bool { return k != MsgData }

// Message is a host-to-host protocol message. A single struct (with
// fields used per kind) keeps the wire codec and the simulator simple.
type Message struct {
	Kind MsgKind

	// Seq and Payload are set for MsgData. MsgInfoDelta reuses Seq for
	// the maximum of the sender's full INFO set (the checksum's other
	// half, see CheckLen).
	Seq     seqset.Seq
	Payload []byte
	// GapFill marks a MsgData as a redelivery that does not claim
	// parenthood; gap fills may be accepted from any host because they
	// cannot alter the receiver's INFO maximum.
	GapFill bool

	// Info is the sender's INFO set, for MsgInfo, MsgAttachReq, and
	// MsgAttachAccept. For MsgInfoDelta it holds only the delta runs.
	Info seqset.Set
	// Parent is the sender's current parent pointer, for MsgInfo and
	// MsgInfoDelta.
	Parent HostID

	// CheckLen is set for MsgInfoDelta: the member count of the sender's
	// full INFO set. Together with Seq (which a delta reuses for the full
	// set's maximum) it lets the receiver verify its reconstructed view
	// before trusting it for anything beyond monotone union.
	// MsgEcho and MsgReady reuse it for the payload digest being voted on.
	CheckLen uint64

	// Parts holds the piggybacked messages of a MsgBundle, or the batched
	// gap-fill data messages of a MsgSyncResp; the parts themselves are
	// never bundles or sync responses.
	Parts []Message
}

// EventKind enumerates observable protocol events (for tracing, tests,
// and metrics).
type EventKind int

const (
	// EvAccepted: a data message was accepted into INFO and delivered.
	EvAccepted EventKind = iota + 1
	// EvDuplicate: a data message was discarded as already received.
	EvDuplicate
	// EvRejected: a new-maximum data message arrived from a non-parent
	// and was discarded per the §4.1 rule.
	EvRejected
	// EvAttached: the host adopted a new parent.
	EvAttached
	// EvAttachFailed: an attach request timed out or was rejected.
	EvAttachFailed
	// EvParentTimeout: the parent fell silent; parent pointer set to NIL.
	EvParentTimeout
	// EvCycleBroken: the host detected itself on an intra-cluster cycle
	// and, having the highest static order on it, detached.
	EvCycleBroken
	// EvChildAdded: the host adopted a child.
	EvChildAdded
	// EvChildRemoved: a child detached (or was pruned via parent-pointer
	// gossip).
	EvChildRemoved
	// EvPeerSuspected: a peer crossed the consecutive-probe-failure
	// threshold; backoff now gates control traffic toward it.
	EvPeerSuspected
	// EvPeerRecovered: a message arrived from a suspected peer; the
	// suspicion cleared and a fast-resync burst was scheduled.
	EvPeerRecovered
	// EvEquivocation: under Params.EchoReady the host observed two
	// conflicting payload digests for the same sequence number — proof
	// that some host equivocated. Peer names the host whose message
	// exposed the conflict (it carried the later of the two digests, and
	// is not necessarily the equivocator itself).
	EvEquivocation
	// EvSyncRound: the host issued a batch of catch-up range requests
	// (one event per MsgSyncReq sent). Peer names the sync source, Seq
	// the request id.
	EvSyncRound
	// EvSyncFailover: a sync source went silent mid-transfer and the
	// host excluded it and moved to another candidate. Peer names the
	// abandoned source.
	EvSyncFailover
	// EvSnapshotInstalled: the host installed a checkpointed state
	// snapshot covering the prefix [1, Seq], advancing its INFO set and
	// prune floor without per-message replay. Peer names the snapshot
	// server.
	EvSnapshotInstalled
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EvAccepted:
		return "accepted"
	case EvDuplicate:
		return "duplicate"
	case EvRejected:
		return "rejected"
	case EvAttached:
		return "attached"
	case EvAttachFailed:
		return "attach-failed"
	case EvParentTimeout:
		return "parent-timeout"
	case EvCycleBroken:
		return "cycle-broken"
	case EvChildAdded:
		return "child-added"
	case EvChildRemoved:
		return "child-removed"
	case EvPeerSuspected:
		return "peer-suspected"
	case EvPeerRecovered:
		return "peer-recovered"
	case EvEquivocation:
		return "equivocation"
	case EvSyncRound:
		return "sync-round"
	case EvSyncFailover:
		return "sync-failover"
	case EvSnapshotInstalled:
		return "snapshot-installed"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one observable protocol occurrence at a host.
type Event struct {
	At   time.Duration
	Kind EventKind
	Host HostID
	Peer HostID     // counterpart host, if any
	Seq  seqset.Seq // sequence number, for data events
}

// Env is the host's only window on the world. Implementations must be
// owned by whatever runtime drives the host; the host never retains
// slices passed to Send beyond the call.
type Env interface {
	// Send transmits m to host to, best-effort. The network may lose,
	// duplicate, reorder, or arbitrarily delay it. It must not call back
	// into the sending host: a send may be issued from the middle of an
	// outbox flush.
	Send(to HostID, m Message)
	// Deliver hands an accepted broadcast message to the application.
	// Called exactly once per sequence number per host, in arrival (not
	// necessarily sequence) order — the paper explicitly relaxes ordered
	// delivery. payload is the host's stored copy: it is never written
	// again and must not be written by the application. It is carved from
	// a chunk of up to 32 KiB that other stored payloads share (Host.keep),
	// so an application that retains it keeps that whole chunk alive. On a
	// host whose Env implements SharedPayloads it is the received slice
	// itself, and the chunk it lies in is the sender's.
	Deliver(seq seqset.Seq, payload []byte)
}

// SharedPayloads is the optional Env extension for runtimes whose
// received payloads are already immutable: an Env implementing it
// promises that the payload bytes of every message it hands to
// HandleMessage are never written again, by anyone. The host discovers it
// by type assertion in NewHost and then stores each accepted inbound
// payload as the slice it arrived in, instead of copying it (Host.keep).
// Broadcast still copies, since its caller may reuse the buffer. An Env
// whose payloads sit in a buffer its decoder reuses must not implement it.
type SharedPayloads interface {
	SharedPayloads()
}

// Snapshotter is the optional Env extension behind checkpointed state
// transfer (Params.SnapshotEvery). Runtimes whose application state has
// a commutative, idempotent merge — the paper's §1 motivating replicated
// database — implement it on their Env; the host discovers it by type
// assertion and otherwise runs without snapshots.
type Snapshotter interface {
	// Snapshot returns a deterministic, self-contained encoding of the
	// application state covering every delivery with sequence number
	// ≤ upTo, or ok=false when no snapshot can be produced. The returned
	// bytes must not be mutated afterwards.
	Snapshot(upTo seqset.Seq) (data []byte, ok bool)
	// InstallSnapshot merges a snapshot covering [1, upTo] into the
	// application state, replacing per-message delivery of that prefix.
	// It returns false when the data is unusable (corrupt, wrong
	// version); the host then falls back to per-message sync.
	InstallSnapshot(upTo seqset.Seq, data []byte) bool
}

// Observer receives protocol events; may be nil.
type Observer func(Event)
