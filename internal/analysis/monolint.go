package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// MonoPackages scopes monolint to the protocol state machine.
var MonoPackages = []string{"rbcast/internal/core"}

// MonoLint encodes the paper's pruning-safety argument as a lint rule.
// Correctness rests on monotone per-host state: a host's INFO set only
// grows (§4's invariants assume a received sequence number is never
// forgotten), MAP entries are merged forward, never overwritten
// backwards, and the prune floor prunedTo (§6) only advances, and only
// once stability is established. The compiler cannot see any of that —
// a stray `h.info = seqset.Set{}` or an unguarded `h.prunedTo = x`
// type-checks fine and silently breaks delivery.
//
// MonoLint therefore restricts writes to Host.info / Host.prunedTo and
// to the MAP state, which lives in the per-peer table: peer.view /
// peer.confirmed through any expression of the record's type, a whole
// record (*p = …), and the slots of Host.table (assignments,
// address-taking, and calls to mutating seqset.Set methods) — to the
// approved mutator set below: the handler-table functions that merge
// monotonically, the prune path, and the table's one creation point.
// Inside the approved set, every write to prunedTo must additionally be
// dominated by a comparison reading prunedTo on every CFG path from
// function entry — the monotonicity guard that keeps the floor from
// moving backwards.
var MonoLint = &Analyzer{
	Name: "monolint",
	Doc: "host INFO/MAP/prunedTo state may only be written by the approved " +
		"mutator set, and prune-floor writes must be guarded by a monotonicity check",
	Run: runMonoLint,
}

// monoProtectedFields are the fields carrying the paper's monotone
// state, by the core type that declares them: INFO, the prune floor and
// the table of records on the host; MAP_i[j] and its confirmed mirror on
// j's record.
var monoProtectedFields = map[string]map[string]bool{
	"Host": {"info": true, "prunedTo": true, "table": true},
	"peer": {"view": true, "confirmed": true},
}

// monoApprovedMutators is the allowlist: the message-handler functions
// that merge facts monotonically (union/max semantics), the broadcast
// and marking emitters that add what was just produced, the §6 prune
// path, and at, the one function that installs a (fresh, empty) record
// in the table. The catch-up sync additions are monotone too:
// handleSyncReq records an optimistic MAP mark for data just served,
// acceptSyncData adds one solicited sequence number to INFO, and
// installSnapshot adds the checkpoint-covered prefix [1, mark] to INFO
// (never touching prunedTo, which still advances only through
// pruneStable's guarded path).
var monoApprovedMutators = map[string]bool{
	"Broadcast":       true,
	"handleData":      true,
	"learnHas":        true,
	"learnInfo":       true,
	"mergeInfoFacts":  true,
	"sendMarking":     true,
	"pruneStable":     true,
	"acceptCertified": true,
	"handleSyncReq":   true,
	"acceptSyncData":  true,
	"installSnapshot": true,
	"at":              true,
}

// monoMutatingSetMethods are the seqset.Set methods that change
// membership. Pointer-receiver accessors like Snapshot (which only flips
// the copy-on-write mark) are deliberately absent.
var monoMutatingSetMethods = map[string]bool{
	"Add": true, "AddRange": true, "Union": true, "ApplyDelta": true,
	"Assign": true, "Prune": true, "Remove": true, "Clear": true,
}

func runMonoLint(pass *Pass) error {
	if !pkgInScope(pass.Pkg.Path(), MonoPackages) {
		return nil
	}
	if lookupNamedType(pass, "Host") == nil {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkMonoFunc(pass, fd)
			}
		}
	}
	return nil
}

func lookupNamedType(pass *Pass, name string) *types.Named {
	tn, ok := pass.Pkg.Scope().Lookup(name).(*types.TypeName)
	if !ok {
		return nil
	}
	n, ok := tn.Type().(*types.Named)
	if !ok {
		return nil
	}
	return n
}

func checkMonoFunc(pass *Pass, fd *ast.FuncDecl) {
	approved := monoApprovedMutators[fd.Name.Name]
	var prunedToWrites []ast.Node // assignments needing the guard check

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				field, ok := protectedHostField(pass, lhs)
				if !ok {
					continue
				}
				if !approved {
					reportMonoWrite(pass, lhs.Pos(), field, "written")
				} else if field == "Host.prunedTo" {
					prunedToWrites = append(prunedToWrites, n)
				}
			}
		case *ast.IncDecStmt:
			if field, ok := protectedHostField(pass, n.X); ok {
				if !approved {
					reportMonoWrite(pass, n.Pos(), field, "written")
				} else if field == "Host.prunedTo" {
					prunedToWrites = append(prunedToWrites, n)
				}
			}
		case *ast.UnaryExpr:
			// &h.info lets arbitrary code mutate the set out of view.
			if n.Op == token.AND {
				if field, ok := protectedHostField(pass, n.X); ok && !approved {
					reportMonoWrite(pass, n.Pos(), field, "address-taken")
				}
			}
		case *ast.CallExpr:
			if field, ok := mutatingSetCall(pass, n); ok && !approved {
				reportMonoWrite(pass, n.Pos(), field, "mutated")
			}
		}
		return true
	})

	if len(prunedToWrites) > 0 {
		checkPruneGuard(pass, fd, prunedToWrites)
	}
}

func reportMonoWrite(pass *Pass, pos token.Pos, field, how string) {
	pass.Reportf(pos,
		"%s %s outside the approved mutator set (%s): non-monotone host state "+
			"breaks the pruning-safety argument; route the change through a handler or the prune path",
		field, how, approvedMutatorList())
}

func approvedMutatorList() string {
	names := make([]string, 0, len(monoApprovedMutators))
	for name := range monoApprovedMutators {
		names = append(names, name)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// protectedHostField matches (possibly indexed/parenthesized) selectors
// x.<field> where x is a core Host or peer (or a pointer to one) and the
// field is protected on that type, returning "Type.field"; and *p for a
// peer record, which replaces view and confirmed at once.
func protectedHostField(pass *Pass, e ast.Expr) (string, bool) {
	e = ast.Unparen(e)
	if ix, ok := e.(*ast.IndexExpr); ok { // h.table[i] = …
		e = ast.Unparen(ix.X)
	}
	if star, ok := e.(*ast.StarExpr); ok {
		if monoOwner(pass, star.X) == "peer" {
			return "peer (whole record)", true
		}
		return "", false
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	owner := monoOwner(pass, sel.X)
	if !monoProtectedFields[owner][sel.Sel.Name] {
		return "", false
	}
	// Confirm it is really a field selection, not a method value.
	if selInfo, ok := pass.TypesInfo.Selections[sel]; ok && selInfo.Kind() != types.FieldVal {
		return "", false
	}
	return owner + "." + sel.Sel.Name, true
}

// monoOwner names the type of x when it is (a pointer to) a named type
// of the checked package, else "".
func monoOwner(pass *Pass, x ast.Expr) string {
	tv, ok := pass.TypesInfo.Types[x]
	if !ok || tv.Type == nil {
		return ""
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() != pass.Pkg {
		return ""
	}
	return named.Obj().Name()
}

// mutatingSetCall matches h.<field>.Add(...)-style calls: a mutating
// pointer-receiver method invoked directly on a protected field.
func mutatingSetCall(pass *Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !monoMutatingSetMethods[sel.Sel.Name] {
		return "", false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", false
	}
	if _, isPtr := sig.Recv().Type().(*types.Pointer); !isPtr {
		return "", false // value receiver cannot mutate the field
	}
	return protectedHostField(pass, sel.X)
}

// checkPruneGuard verifies via the CFG that every write to prunedTo in
// an approved function is dominated by a comparison that reads prunedTo
// (the `p-1 <= h.prunedTo → return` monotonicity guard): no path from
// entry may reach the write while avoiding every guard.
func checkPruneGuard(pass *Pass, fd *ast.FuncDecl, writes []ast.Node) {
	cfg := buildCFG(fd.Name.Name, fd.Body)

	nodeReadsGuard := func(n ast.Node) bool {
		if rng, ok := n.(*ast.RangeStmt); ok {
			n = rng.X // shallow header
		}
		found := false
		ast.Inspect(n, func(x ast.Node) bool {
			be, ok := x.(*ast.BinaryExpr)
			if !ok || !isComparisonOp(be.Op) {
				return true
			}
			for _, side := range []ast.Expr{be.X, be.Y} {
				ast.Inspect(side, func(y ast.Node) bool {
					if s, ok := y.(*ast.SelectorExpr); ok && s.Sel.Name == "prunedTo" {
						found = true
					}
					return true
				})
			}
			return !found
		})
		return found
	}
	for _, w := range writes {
		useCFG := cfg
		blk, idx := findNodeBlock(useCFG, w)
		if blk == nil {
			// The write sits inside a nested function literal; the
			// dominance question then lives in the literal's own CFG.
			if lit := enclosingFuncLit(fd.Body, w); lit != nil {
				useCFG = buildCFG(fd.Name.Name+"$lit", lit.Body)
				blk, idx = findNodeBlock(useCFG, w)
			}
		}
		if blk == nil {
			continue
		}
		if !pathDominates(useCFG, blk, idx, nodeReadsGuard) {
			pass.Reportf(w.Pos(),
				"write to Host.prunedTo is not dominated by a monotonicity comparison on prunedTo: "+
					"an unguarded write can move the §6 prune floor backwards")
		}
	}
}

// enclosingFuncLit returns the innermost function literal in body whose
// range contains n, or nil.
func enclosingFuncLit(body *ast.BlockStmt, n ast.Node) *ast.FuncLit {
	var found *ast.FuncLit
	ast.Inspect(body, func(x ast.Node) bool {
		if lit, ok := x.(*ast.FuncLit); ok && lit.Pos() <= n.Pos() && n.End() <= lit.End() {
			found = lit // keep descending: innermost wins
		}
		return true
	})
	return found
}
