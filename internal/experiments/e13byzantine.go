package experiments

import (
	"fmt"
	"slices"
	"time"

	"rbcast/internal/adversary"
	"rbcast/internal/core"
	"rbcast/internal/harness"
	"rbcast/internal/metrics"
	"rbcast/internal/topo"
)

// EchoReadyHardening (E13) measures what the paper's trust assumption
// costs to drop. §2 assumes every host faithfully relays the source's
// frames; a host that equivocates — sends different payloads for the
// same sequence number to different peers — poisons the plain protocol,
// because children accept whatever their parent forwards. The optional
// echo/ready mode (Params.EchoReady, Bracha-style certification) makes
// correct hosts cross-check digests before delivering. The experiment
// runs the 2×2 grid {plain, echo} × {honest source, equivocating
// source} and checks both directions of the trade: hardening costs
// extra control messages on the honest runs, and on the hostile runs it
// turns "every correct host delivers forged payloads" into "no correct
// host delivers anything uncertified, and the conflict is detected".
func EchoReadyHardening(seed int64) (Report, error) {
	rep := newReport("E13", "echo/ready hardening — message cost vs. tolerance of an equivocating source")
	const src = core.HostID(1)
	t := metrics.NewTable("variant", "sends", "forged deliveries", "equivocations", "delivered", "complete at")
	type variant struct {
		name    string
		echo    bool
		hostile bool
	}
	variants := []variant{
		{"plain/honest", false, false},
		{"plain/equivocating", false, true},
		{"echo/honest", true, false},
		{"echo/equivocating", true, true},
	}
	results := make(map[string]*harness.Result, len(variants))
	for _, v := range variants {
		params := core.DefaultParams()
		params.EchoReady = v.echo
		sc := harness.Scenario{
			Name:             "e13-" + v.name,
			Seed:             seed,
			Build:            clusteredBuild(topo.ClusteredConfig{Clusters: 2, HostsPerCluster: 3, Shape: topo.WANStar}),
			Protocol:         harness.ProtocolTree,
			Params:           params,
			Messages:         20,
			MsgInterval:      200 * time.Millisecond,
			WarmUp:           2 * time.Second,
			Drain:            45 * time.Second,
			StopWhenComplete: true,
		}
		if v.hostile {
			eq, err := adversary.New("equivocate", nil, 0)
			if err != nil {
				return nil, err
			}
			sc.Adversaries = map[core.HostID][]adversary.Behavior{src: {eq}}
		}
		res, err := harness.Run(sc)
		if err != nil {
			return nil, err
		}
		results[v.name] = res
		t.AddRow(v.name, res.TotalSends(), forgedDeliveries(res, src),
			res.EquivocationsDetected,
			fmt.Sprintf("%d/%d", res.DeliveredCount, res.ExpectedCount), res.CompletionAt)
	}
	rep.addTable(t)
	rep.note("2 clusters × 3 hosts, 20 messages, source host 1; 'forged deliveries' counts")
	rep.note("payloads accepted by correct hosts whose digest differs from what Broadcast")
	rep.note("sent (the equivocator rewrites frames at the wire, per destination)")

	plainHonest, plainEvil := results["plain/honest"], results["plain/equivocating"]
	echoHonest, echoEvil := results["echo/honest"], results["echo/equivocating"]
	for name, res := range results {
		rep.expect(len(res.EventErrors) == 0, "%s: event errors %v", name, res.EventErrors)
	}
	rep.expect(plainHonest.Complete, "plain honest run did not complete")
	rep.expect(echoHonest.Complete, "echo honest run did not complete")
	rep.expect(forgedDeliveries(echoHonest, src) == 0 && forgedDeliveries(plainHonest, src) == 0,
		"honest runs delivered forged payloads")
	// The cost axis: certification is not free — every data frame grows an
	// echo/ready exchange, so the honest echo run must send measurably more.
	rep.expect(echoHonest.TotalSends() > plainHonest.TotalSends(),
		"echo mode sent %d ≤ plain's %d despite per-frame certification",
		echoHonest.TotalSends(), plainHonest.TotalSends())
	// The tolerance axis: the plain protocol propagates the forgery to
	// correct hosts; echo/ready refuses to deliver it and flags the
	// conflict instead.
	rep.expect(forgedDeliveries(plainEvil, src) > 0,
		"plain protocol absorbed an equivocating source (nothing forged was delivered)")
	rep.expect(forgedDeliveries(echoEvil, src) == 0,
		"echo mode delivered %d forged payloads", forgedDeliveries(echoEvil, src))
	rep.expect(echoEvil.EquivocationsDetected > 0,
		"echo mode delivered nothing forged but never flagged the conflict")
	return rep, nil
}

// forgedDeliveries counts payloads delivered at correct hosts whose
// digest does not match what the source's Broadcast call recorded —
// including fabricated sequence numbers the source never sent.
func forgedDeliveries(res *harness.Result, adversaries ...core.HostID) int {
	forged := 0
	for _, h := range res.HostList {
		if slices.Contains(adversaries, h) {
			continue
		}
		for seq, d := range res.Deliveries(h).Digests {
			if want, ok := res.BroadcastDigest[seq]; !ok || d != want {
				forged++
			}
		}
	}
	return forged
}
