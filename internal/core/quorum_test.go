package core

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// thresholds is what the sweep checks: the four functions of echo.go, or
// a variant with one of them broken.
type thresholds struct {
	budget       func(n, maxFaulty int) int
	echoQuorum   func(n, f int) int
	readyQuorum  func(f int) int
	readyAmplify func(f int) int
}

var realThresholds = thresholds{byzBudget, echoQuorumOf, readyQuorumOf, readyAmplifyOf}

// violated names the first obligation of echo.go's comment block that th
// breaks for n participants under the budget setting maxFaulty, or "".
func (th thresholds) violated(n, maxFaulty int) string {
	f := th.budget(n, maxFaulty)
	eq, rq, ra := th.echoQuorum(n, f), th.readyQuorum(f), th.readyAmplify(f)
	switch {
	case f < 0 || eq < 0 || rq < 0 || ra < 0:
		return "no overflow"
	case 2*eq-n-f-1 < 0:
		return "intersection"
	case rq < 2*f+1:
		return "honest majority"
	case ra < f+1:
		return "amplification"
	case maxFaulty == 0 && 3*f > n-1:
		return "defaulting"
	case admitsBudget(n, maxFaulty) && (eq > n-f || rq > n-f):
		return "reachability"
	}
	return ""
}

// sweep checks th at every n in 1..600 under every budget setting
// Params.Validate admits among 0..n+2 and MaxEchoFaulty, then at three
// n beyond 32 bits under the default budget and the cap, and describes
// the first violation in that order ("" when there is none).
func (th thresholds) sweep() string {
	p := DefaultParams()
	p.EchoReady = true
	check := func(n, maxFaulty int) string {
		p.EchoMaxFaulty = maxFaulty
		if p.Validate() != nil {
			return ""
		}
		if ob := th.violated(n, maxFaulty); ob != "" {
			f := th.budget(n, maxFaulty)
			return fmt.Sprintf("%s violated first at n = %d, EchoMaxFaulty = %d: f = %d, echoQuorum = %d, readyQuorum = %d, readyAmplify = %d",
				ob, n, maxFaulty, f, th.echoQuorum(n, f), th.readyQuorum(f), th.readyAmplify(f))
		}
		return ""
	}
	for n := 1; n <= 600; n++ {
		for maxFaulty := 0; maxFaulty <= n+2; maxFaulty++ {
			if msg := check(n, maxFaulty); msg != "" {
				return msg
			}
		}
		if msg := check(n, MaxEchoFaulty); msg != "" {
			return msg
		}
	}
	if strconv.IntSize < 64 {
		return ""
	}
	for _, n := range []int64{1<<31 - 1, 1 << 31, 1 << 40} {
		for _, maxFaulty := range []int{0, MaxEchoFaulty} {
			if msg := check(int(n), maxFaulty); msg != "" {
				return msg
			}
		}
	}
	return ""
}

// TestQuorumInequalities holds the echo/ready thresholds to the six
// obligations stated above them in echo.go — reachability wherever
// NewHost's own rule, admitsBudget, lets the pair through
// (TestConfigValidation holds NewHost to calling it) — and shows that the
// check bites: each classic mistake in one threshold is rejected, by the
// obligation it breaks, at the first (n, budget) of the sweep's order.
func TestQuorumInequalities(t *testing.T) {
	if msg := realThresholds.sweep(); msg != "" {
		t.Fatal(msg)
	}

	broken := []struct {
		name   string
		mutate func(*thresholds)
		want   string
	}{
		{"echo quorum one short", func(th *thresholds) {
			th.echoQuorum = func(n, f int) int { return (n + f) / 2 }
		}, "intersection violated first at n = 1, EchoMaxFaulty = 0:"},
		{"ready quorum one short", func(th *thresholds) {
			th.readyQuorum = func(f int) int { return 2 * f }
		}, "honest majority violated first at n = 1, EchoMaxFaulty = 0:"},
		{"amplification one short", func(th *thresholds) {
			th.readyAmplify = func(f int) int { return f }
		}, "amplification violated first at n = 1, EchoMaxFaulty = 0:"},
		{"default budget half of n", func(th *thresholds) {
			th.budget = func(n, maxFaulty int) int {
				if maxFaulty > 0 {
					return maxFaulty
				}
				return (n - 1) / 2
			}
		}, "defaulting violated first at n = 3, EchoMaxFaulty = 0:"},
	}
	for _, tt := range broken {
		t.Run("rejects "+tt.name, func(t *testing.T) {
			th := realThresholds
			tt.mutate(&th)
			if got := th.sweep(); !strings.HasPrefix(got, tt.want) {
				t.Errorf("sweep of the broken variant says %q, want it to start %q", got, tt.want)
			}
		})
	}
}
