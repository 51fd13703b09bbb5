package adversary

import (
	"fmt"

	"rbcast/internal/core"
	"rbcast/internal/seqset"
)

// The behavior catalogue. Two families matter for the soak classes:
//
// Maskable lies stay within what the paper's benign protocol absorbs —
// the same observable effects as loss, duplication, reordering, or a
// crashed host, so correct hosts converge anyway: ForgeCostBit (a
// cheap path misreported as expensive only worsens cluster inference),
// Replay (a stale frame is a dup or a late reorder), Silence (a mute
// peer looks crashed; the parent-silence timeout routes around it),
// and HostileWire (malformed values every receiver rejects).
//
// Unmaskable lies violate the broadcast guarantees themselves and must
// be *detected* by the harness instead: Equivocate (different payloads
// for one sequence number — correct hosts deliver conflicting data,
// unless Params.EchoReady withholds delivery) and LieInfo (INFO sets
// claiming sequence numbers the host does not hold — poisons MAP views
// and attracts attachments the liar cannot serve).

// Equivocate rewrites data payloads per destination: every victim
// receives a payload deterministically derived from (original, victim),
// so two victims — or a victim and a non-victim — observe conflicting
// contents for the same sequence number. Under Params.EchoReady the
// adversary's own echo/ready votes toward a victim are forged to match
// the lie, so the hardened protocol is attacked on its own terms.
type Equivocate struct {
	// Victims limits the attack to these destinations; nil means every
	// destination gets its own variant.
	Victims []core.HostID
}

// Name implements Behavior.
func (e Equivocate) Name() string { return "equivocate" }

// Apply implements Behavior.
func (e Equivocate) Apply(ctx *Ctx, outs []Send) []Send {
	for i, out := range outs {
		if !e.victim(out.To) {
			continue
		}
		to := out.To
		outs[i].M = mapMsg(out.M, func(m core.Message) core.Message {
			switch m.Kind {
			case core.MsgData:
				if m.Seq == 0 {
					return m
				}
				m.Payload = equivPayload(m.Payload, to)
				ctx.fakeDigest[seqDest{uint64(m.Seq), to}] = core.PayloadDigest(m.Payload)
				ctx.Stats.Equivocated++
			case core.MsgEcho, core.MsgReady:
				if d, ok := ctx.fakeDigest[seqDest{uint64(m.Seq), to}]; ok {
					m.CheckLen = d
					ctx.Stats.Equivocated++
				}
			}
			return m
		})
	}
	return outs
}

func (e Equivocate) victim(to core.HostID) bool {
	if len(e.Victims) == 0 {
		return true
	}
	for _, v := range e.Victims {
		if v == to {
			return true
		}
	}
	return false
}

// equivPayload derives the forged payload: same length as the original
// (so wire-cost metrics stay comparable), content a pure function of
// (original, victim) so every retransmission lies identically.
func equivPayload(orig []byte, to core.HostID) []byte {
	mask := byte(0xA5) ^ byte(uint64(to)*31)
	if mask == 0 {
		mask = 0xA5
	}
	if len(orig) == 0 {
		return []byte{mask}
	}
	fake := make([]byte, len(orig))
	for i, b := range orig {
		fake[i] = b ^ mask
	}
	return fake
}

// ForgeCostBit marks every outbound message as having traversed an
// expensive link, regardless of the real path. The network can truthify
// a cheap claim (any expensive traversal sets the bit) but never clear
// a forged one, mirroring the paper's one-way cost-bit semantics.
type ForgeCostBit struct{}

// Name implements Behavior.
func (ForgeCostBit) Name() string { return "forge-cost-bit" }

// Apply implements Behavior.
func (ForgeCostBit) Apply(ctx *Ctx, outs []Send) []Send {
	for i := range outs {
		if !outs[i].ForceCostBit {
			outs[i].ForceCostBit = true
			ctx.Stats.CostForged++
		}
	}
	return outs
}

// LieInfo inflates every advertised INFO set with Claim sequence
// numbers beyond the real maximum — the host claims to hold messages
// it does not. Receivers' MAP views are poisoned: the liar becomes the
// most attractive attachment candidate and gap-fill target, yet can
// never produce the claimed data. A huge Claim doubles as the
// oversized-range hostile wire value (a single run spanning ~2^40
// members), exercising the interval-coded set paths.
type LieInfo struct {
	// Claim is the number of fabricated sequence numbers; 0 means 1<<20.
	Claim uint64
}

// Name implements Behavior.
func (LieInfo) Name() string { return "lie-info" }

// Apply implements Behavior.
func (l LieInfo) Apply(ctx *Ctx, outs []Send) []Send {
	claim := l.Claim
	if claim == 0 {
		claim = 1 << 20
	}
	for i, out := range outs {
		outs[i].M = mapMsg(out.M, func(m core.Message) core.Message {
			switch m.Kind {
			case core.MsgInfo, core.MsgAttachReq, core.MsgAttachAccept:
				s := m.Info.Snapshot()
				lo := s.Max() + 1
				s.AddRange(lo, lo+seqset.Seq(claim)-1)
				m.Info = s
				ctx.Stats.InfoLies++
			case core.MsgInfoDelta:
				// Keep the lie self-consistent: extend the delta runs and
				// adjust the full-set (max, length) checksum to match, so
				// the receiver's verification cannot save it.
				s := m.Info.Snapshot()
				lo := m.Seq + 1
				s.AddRange(lo, lo+seqset.Seq(claim)-1)
				m.Info = s
				m.Seq = lo + seqset.Seq(claim) - 1
				m.CheckLen += claim
				ctx.Stats.InfoLies++
			}
			return m
		})
	}
	return outs
}

// Replay keeps a ring buffer of past transmissions and, every Every-th
// hook activation, re-emits one chosen by the deterministic stream — a
// stale frame indistinguishable, to the receiver, from an extreme
// network reorder or duplicate.
type Replay struct {
	// Every is the activation period; 0 means 4.
	Every int
}

const replayRing = 32

// Name implements Behavior.
func (Replay) Name() string { return "replay" }

// Apply implements Behavior.
func (r Replay) Apply(ctx *Ctx, outs []Send) []Send {
	every := r.Every
	if every <= 0 {
		every = 4
	}
	var stale []Send
	if len(ctx.history) > 0 && ctx.applications%uint64(every) == 0 {
		stale = append(stale, ctx.history[ctx.RNG.Intn(len(ctx.history))])
		ctx.Stats.Replayed++
	}
	for _, out := range outs {
		if len(ctx.history) < replayRing {
			ctx.history = append(ctx.history, out)
		} else {
			ctx.history[int(ctx.applications)%replayRing] = out
		}
	}
	return append(outs, stale...)
}

// Silence drops every transmission toward the listed peers (nil = all:
// a fully mute host). To its targets the adversary is a crashed host —
// the benign failure the paper's timeouts already handle.
type Silence struct {
	Peers []core.HostID
}

// Name implements Behavior.
func (Silence) Name() string { return "silence" }

// Apply implements Behavior.
func (s Silence) Apply(ctx *Ctx, outs []Send) []Send {
	kept := outs[:0]
	for _, out := range outs {
		if s.mute(out.To) {
			ctx.Stats.Silenced++
			continue
		}
		kept = append(kept, out)
	}
	return kept
}

func (s Silence) mute(to core.HostID) bool {
	if len(s.Peers) == 0 {
		return true
	}
	for _, p := range s.Peers {
		if p == to {
			return true
		}
	}
	return false
}

// HostileWire injects taintlint-style pathological frames alongside
// real traffic every Every-th activation: a delta INFO whose checksum
// cannot verify (corrupt CheckLen over an empty delta) and a zero
// sequence number data frame. Correct receivers must reject both on
// every path — the deltas fall back to a no-op monotone merge, the
// zero-seq data is discarded — so this behavior is maskable by
// construction and exists to prove decoder/handler robustness.
type HostileWire struct {
	// Every is the activation period; 0 means 8.
	Every int
}

// Name implements Behavior.
func (HostileWire) Name() string { return "hostile-wire" }

// Apply implements Behavior.
func (hw HostileWire) Apply(ctx *Ctx, outs []Send) []Send {
	every := hw.Every
	if every <= 0 {
		every = 8
	}
	if len(outs) == 0 || ctx.applications%uint64(every) != 0 {
		return outs
	}
	to := outs[0].To
	ctx.Stats.Hostile += 2
	return append(outs,
		Send{To: to, M: core.Message{
			Kind:     core.MsgInfoDelta,
			Seq:      0,
			CheckLen: ^uint64(0),
			Parent:   outs[0].M.Parent,
		}},
		Send{To: to, M: core.Message{
			Kind:    core.MsgData,
			Seq:     0,
			Payload: []byte{0xde, 0xad},
			GapFill: true,
		}},
	)
}

// New builds a behavior from its spec name, for data-driven scenario
// generators (internal/soak). targets feeds Equivocate.Victims or
// Silence.Peers; claim feeds LieInfo.Claim.
func New(name string, targets []core.HostID, claim uint64) (Behavior, error) {
	switch name {
	case "equivocate":
		return Equivocate{Victims: targets}, nil
	case "forge-cost-bit":
		return ForgeCostBit{}, nil
	case "lie-info":
		return LieInfo{Claim: claim}, nil
	case "replay":
		return Replay{}, nil
	case "silence":
		return Silence{Peers: targets}, nil
	case "hostile-wire":
		return HostileWire{}, nil
	default:
		return nil, fmt.Errorf("adversary: unknown behavior %q", name)
	}
}

// Names returns the spec names of all behaviors, sorted.
func Names() []string {
	return []string{
		"equivocate", "forge-cost-bit", "hostile-wire",
		"lie-info", "replay", "silence",
	}
}
