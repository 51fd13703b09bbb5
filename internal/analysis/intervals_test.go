package analysis

import (
	"go/token"
	"math"
	"math/big"
	"testing"
)

// top/bot shorthands for the golden tables; infinities are spelled via
// the exported constructors so the tables read like the String() output
// they are compared against.
var (
	negInf = int64(math.MinInt64)
	posInf = int64(math.MaxInt64)
)

func TestIntervalTransferGolden(t *testing.T) {
	tests := []struct {
		name string
		got  Interval
		want string
	}{
		// Lattice operations.
		{"join/disjoint", IvJoin(IvRange(0, 2), IvRange(5, 9)), "[0,9]"},
		{"join/bottom-identity", IvJoin(IvBottom, IvRange(3, 4)), "[3,4]"},
		{"meet/overlap", IvMeet(IvRange(0, 5), IvRange(3, 9)), "[3,5]"},
		{"meet/disjoint-is-bottom", IvMeet(IvRange(0, 2), IvRange(5, 9)), "bot"},
		{"meet/top-identity", IvMeet(IvTop, IvRange(-1, 1)), "[-1,1]"},

		// Addition saturates instead of wrapping: a bound that lands on
		// MaxInt64 is the +inf sentinel, read as "may overflow".
		{"add/finite", IvAdd(IvRange(1, 2), IvRange(10, 20)), "[11,22]"},
		{"add/saturates", IvAdd(IvConst(math.MaxInt64-1), IvRange(1, 5)), "[9223372036854775807,+inf]"},
		{"add/unbounded", IvAdd(IvRange(0, posInf), IvConst(1)), "[1,+inf]"},
		{"sub/finite", IvSub(IvRange(5, 7), IvRange(1, 2)), "[3,6]"},
		{"sub/anti-monotone", IvSub(IvConst(0), IvRange(0, posInf)), "[-inf,0]"},
		{"neg/flips", IvNeg(IvRange(-3, 7)), "[-7,3]"},
		{"neg/neginf-saturates", IvNeg(IvRange(negInf, 1)), "[-1,+inf]"},

		// Multiplication takes corner products.
		{"mul/signs", IvMul(IvRange(-2, 3), IvRange(4, 5)), "[-10,15]"},
		{"mul/both-negative", IvMul(IvRange(-3, -2), IvRange(-5, -4)), "[8,15]"},
		{"mul/saturates", IvMul(IvConst(math.MaxInt64/2), IvConst(4)), "[9223372036854775807,+inf]"},

		// Division is truncated and the divisor is sign-split; the zero
		// slice of the divisor contributes nothing (it panics at runtime).
		{"div/truncates-toward-zero", IvDiv(IvRange(-7, 7), IvConst(2)), "[-3,3]"},
		{"div/negative-divisor", IvDiv(IvRange(6, 10), IvConst(-3)), "[-3,-2]"},
		{"div/straddling-divisor", IvDiv(IvConst(12), IvRange(-2, 3)), "[-12,12]"},
		{"div/by-zero-is-bottom", IvDiv(IvRange(1, 2), IvConst(0)), "bot"},
		{"div/quorum-shape", IvDiv(IvRange(2, 40), IvConst(2)), "[1,20]"},

		// Remainder keeps the dividend's sign, magnitude below |divisor|.
		{"mod/nonneg-dividend", IvMod(IvRange(0, 100), IvConst(8)), "[0,7]"},
		{"mod/small-dividend", IvMod(IvRange(0, 3), IvConst(8)), "[0,3]"},
		{"mod/neg-dividend", IvMod(IvRange(-9, 0), IvConst(4)), "[-3,0]"},
		{"mod/mixed-dividend", IvMod(IvRange(-9, 9), IvConst(4)), "[-3,3]"},
		{"mod/by-zero-is-bottom", IvMod(IvRange(1, 2), IvConst(0)), "bot"},

		// Shifts clamp the count into [0, 63] and saturate on overflow.
		{"shl/finite", IvShl(IvRange(1, 3), IvConst(4)), "[16,48]"},
		{"shl/count-range", IvShl(IvConst(1), IvRange(0, 3)), "[1,8]"},
		{"shl/saturates", IvShl(IvConst(1), IvConst(63)), "[9223372036854775807,+inf]"},
		{"shr/finite", IvShr(IvRange(16, 48), IvConst(4)), "[1,3]"},
		{"shr/arithmetic", IvShr(IvRange(-16, 16), IvConst(2)), "[-4,4]"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.got.String(); got != tt.want {
				t.Errorf("got %s, want %s", got, tt.want)
			}
		})
	}
}

func TestIntervalWidenNarrowGolden(t *testing.T) {
	tests := []struct {
		name string
		got  Interval
		want string
	}{
		// Widening jumps a growing bound straight to its infinity so loop
		// fixpoints terminate; stable bounds are kept.
		{"widen/stable", IvWiden(IvRange(0, 10), IvRange(0, 10)), "[0,10]"},
		{"widen/upper-grows", IvWiden(IvRange(0, 1), IvRange(0, 2)), "[0,+inf]"},
		{"widen/lower-grows", IvWiden(IvRange(0, 5), IvRange(-1, 5)), "[-inf,5]"},
		{"widen/both-grow", IvWiden(IvConst(0), IvRange(-1, 1)), "[-inf,+inf]"},
		{"widen/first-iterate", IvWiden(IvBottom, IvRange(3, 4)), "[3,4]"},

		// Narrowing recovers precision after widening: only infinite
		// bounds are refined, finite ones are trusted.
		{"narrow/recovers-upper", IvNarrow(IvRange(0, posInf), IvRange(0, 9)), "[0,9]"},
		{"narrow/keeps-finite", IvNarrow(IvRange(0, 10), IvRange(2, 5)), "[0,10]"},
		{"narrow/recovers-lower", IvNarrow(IvRange(negInf, 10), IvRange(-3, 10)), "[-3,10]"},
		{"narrow/still-infinite", IvNarrow(IvTop, IvRange(negInf, 7)), "[-inf,7]"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.got.String(); got != tt.want {
				t.Errorf("got %s, want %s", got, tt.want)
			}
		})
	}
}

func TestIntervalNarrowCmpGolden(t *testing.T) {
	tests := []struct {
		name         string
		op           token.Token
		a, b         Interval
		wantA, wantB string
	}{
		{"lss", token.LSS, IvRange(0, 10), IvRange(5, 7), "[0,6]", "[5,7]"},
		{"leq", token.LEQ, IvRange(0, 10), IvRange(5, 7), "[0,7]", "[5,7]"},
		{"gtr", token.GTR, IvRange(0, 10), IvConst(3), "[4,10]", "[3,3]"},
		{"geq", token.GEQ, IvRange(0, 10), IvConst(3), "[3,10]", "[3,3]"},
		{"eql", token.EQL, IvRange(0, 10), IvRange(8, 20), "[8,10]", "[8,10]"},
		{"eql/contradiction", token.EQL, IvRange(0, 2), IvRange(5, 6), "bot", "bot"},
		{"neq/trims-edge", token.NEQ, IvRange(0, 10), IvConst(0), "[1,10]", "[0,0]"},
		{"neq/interior-kept", token.NEQ, IvRange(0, 10), IvConst(5), "[0,10]", "[5,5]"},
		{"gtr/validate-guard", token.GTR, IvTop, IvConst(0), "[1,+inf]", "[0,0]"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			gotA, gotB := IvNarrowCmp(tt.op, tt.a, tt.b)
			if gotA.String() != tt.wantA || gotB.String() != tt.wantB {
				t.Errorf("IvNarrowCmp(%v, %s, %s) = %s, %s; want %s, %s",
					tt.op, tt.a, tt.b, gotA, gotB, tt.wantA, tt.wantB)
			}
		})
	}
}

// TestProveNonNegQuorumForms exercises the relational half on the exact
// inequalities quorumlint discharges: the production thresholds are
// provable and the classic off-by-ones are not.
func TestProveNonNegQuorumForms(t *testing.T) {
	build := func(fBound Interval, plusOne bool) (*symtab, *aff, *aff, *aff) {
		st := newSymtab()
		n := st.setVar("n", IvRange(1, 1<<31))
		f := st.setVar("f", fBound)
		eq := st.div(affAdd(n, f), 2) // (n+f)/2
		if plusOne {
			eq = affAdd(eq, affConst(1))
		}
		return st, n, f, eq
	}

	t.Run("intersection/provable", func(t *testing.T) {
		st, n, f, eq := build(IvRange(0, 1<<20), true)
		g := affSub(affSub(affSub(affScale(eq, big.NewRat(2, 1)), n), f), affConst(1))
		if !st.proveNonNeg(g) {
			t.Error("2·((n+f)/2+1) − n − f − 1 ≥ 0 should be provable")
		}
	})
	t.Run("intersection/off-by-one-refuted", func(t *testing.T) {
		st, n, f, eq := build(IvRange(0, 1<<20), false)
		g := affSub(affSub(affSub(affScale(eq, big.NewRat(2, 1)), n), f), affConst(1))
		if st.proveNonNeg(g) {
			t.Error("2·((n+f)/2) − n − f − 1 ≥ 0 must not be provable")
		}
	})
	t.Run("default-budget/self-cancel", func(t *testing.T) {
		st := newSymtab()
		n := st.setVar("n", IvRange(1, 1<<31))
		f := st.div(affSub(n, affConst(1)), 3)
		bound := st.div(affSub(n.clone(), affConst(1)), 3)
		if !st.proveNonNeg(affSub(bound, f)) {
			t.Error("⌊(n−1)/3⌋ − ⌊(n−1)/3⌋ ≥ 0 should be provable via atom interning")
		}
	})
	t.Run("overflow/unbounded-budget", func(t *testing.T) {
		st := newSymtab()
		n := st.setVar("n", IvRange(1, 1<<31))
		f := st.setVar("f", IvRange(0, math.MaxInt64))
		if st.fitsInt64(affAdd(n, f)) {
			t.Error("n + f with f unbounded must not be provably within int64")
		}
	})
	t.Run("overflow/bounded-budget", func(t *testing.T) {
		st := newSymtab()
		n := st.setVar("n", IvRange(1, 1<<31))
		f := st.setVar("f", IvRange(0, 1<<20))
		if !st.fitsInt64(affAdd(n, f)) {
			t.Error("n + f with both bounded should be provably within int64")
		}
	})
}
