package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// AllocLint turns the repository's runtime allocs/op=0 pins into a
// static guarantee. A function marked with the directive
//
//	//rblint:hotpath <why this path must stay allocation-free>
//
// promises that its full transitive call tree performs no heap
// allocation on the success path. The analyzer walks that tree over the
// call graph (static call and defer edges; a dynamic call is itself a
// finding, so the walk never needs to guess) and flags every
// allocation-shaped construct: make/new, slice and map literals,
// address-of composite literals, string concatenation and
// string↔[]byte conversions, fmt and any other external call outside
// the allocation-free allowlist (encoding/binary, math/bits,
// sync/atomic), map iteration and map insertion, function literals
// (closure headers), goroutine spawns, interface boxing at call
// arguments, assignments, returns, and channel sends, and append to a
// destination that is not a caller-provided or field-rooted buffer
// (the reuse discipline the AllocsPerRun tests pin at zero).
//
// Error paths are cold by contract: any statement range returning a
// non-nil error expression is exempt, as are panic arguments — the
// guarantee covers the success path a soak actually spends time on.
var AllocLint = &Analyzer{
	Name: "alloclint",
	Doc: "//rblint:hotpath functions and their transitive static call trees must " +
		"be provably allocation-free on the success path",
	Run: runAllocLint,
}

// allocAllowedPkgs are external packages whose functions are known not
// to allocate on the paths hot code uses (binary.BigEndian append/read
// helpers write into caller buffers; bits and atomic are intrinsics).
var allocAllowedPkgs = map[string]bool{
	"encoding/binary": true,
	"math/bits":       true,
	"sync/atomic":     true,
}

func runAllocLint(pass *Pass) error {
	if pass.Prog == nil {
		return nil
	}
	pass.Prog.ensureAllocDiags()
	for _, pd := range pass.Prog.allocDiags {
		if pd.pkgPath == pass.Pkg.Path() {
			pass.Report(pd.d)
		}
	}
	return nil
}

func (p *Program) ensureAllocDiags() {
	if p.allocDone {
		return
	}
	p.allocDone = true
	p.allocDiags = p.sortedProgDiags(computeAllocDiags(p))
}

// isHotpathMarked reports whether fd carries the //rblint:hotpath
// directive in its doc comment.
func isHotpathMarked(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.HasPrefix(c.Text, "//rblint:hotpath") {
			return true
		}
	}
	return false
}

func computeAllocDiags(p *Program) []progDiag {
	ac := &allocChecker{
		prog:     p,
		visited:  make(map[*FuncNode]bool),
		reported: make(map[token.Pos]bool),
	}
	for _, n := range p.Graph.Nodes {
		if n.Decl != nil && isHotpathMarked(n.Decl) {
			ac.walk(n, n.Name, nil)
		}
	}
	return ac.diags
}

type allocChecker struct {
	prog     *Program
	visited  map[*FuncNode]bool
	reported map[token.Pos]bool
	diags    []progDiag
}

// walk checks node and recurses into its static call/defer tree. Each
// function is checked once; the first root to reach it names the chain.
func (ac *allocChecker) walk(n *FuncNode, root string, chain []string) {
	if ac.visited[n] {
		return
	}
	ac.visited[n] = true
	ac.checkBody(n, root, chain)
	for _, e := range n.Out {
		if e.Kind == EdgeGo || e.Dynamic || e.Callee.Decl == nil {
			continue
		}
		ac.walk(e.Callee, root, append(chain, e.Callee.Name))
	}
}

func (ac *allocChecker) report(n *FuncNode, pos token.Pos, root string, chain []string, format string, args ...any) {
	if ac.reported[pos] {
		return
	}
	ac.reported[pos] = true
	where := "hot path " + root
	if len(chain) > 0 {
		where += " (via " + strings.Join(chain, " -> ") + ")"
	}
	ac.diags = append(ac.diags, progDiag{
		pkgPath: n.Pkg.Path,
		d: Diagnostic{
			Analyzer: "alloclint",
			Pos:      pos,
			Message:  where + ": " + fmt.Sprintf(format, args...),
		},
	})
}

func (ac *allocChecker) checkBody(n *FuncNode, root string, chain []string) {
	info := n.Pkg.TypesInfo
	exempt := allocExemptRanges(info, n.Body)
	isExempt := func(pos token.Pos) bool {
		for _, r := range exempt {
			if r[0] <= pos && pos <= r[1] {
				return true
			}
		}
		return false
	}
	rep := func(pos token.Pos, format string, args ...any) {
		if !isExempt(pos) {
			ac.report(n, pos, root, chain, format, args...)
		}
	}

	ast.Inspect(n.Body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			if x.Body != n.Body {
				rep(x.Pos(), "function literal allocates its closure; hoist the work into a named method")
				return false // the literal's body is its own (non-hot) node
			}
		case *ast.GoStmt:
			rep(x.Pos(), "goroutine spawn allocates a new stack; hot paths must not spawn")
			return false
		case *ast.CompositeLit:
			switch info.Types[x].Type.Underlying().(type) {
			case *types.Slice:
				rep(x.Pos(), "slice literal allocates; reuse a preallocated buffer")
			case *types.Map:
				rep(x.Pos(), "map literal allocates")
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if _, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
					rep(x.Pos(), "&composite literal escapes to the heap; reuse preallocated storage")
				}
			}
		case *ast.BinaryExpr:
			if x.Op == token.ADD && isStringType(info, x) {
				rep(x.Pos(), "string concatenation allocates")
			}
		case *ast.RangeStmt:
			if _, ok := typeOf(info, x.X).Underlying().(*types.Map); ok {
				rep(x.X.Pos(), "map iteration in a hot path: order is random and buckets are walked; use a slice")
			}
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
					if _, isMap := typeOf(info, ix.X).Underlying().(*types.Map); isMap {
						rep(lhs.Pos(), "map assignment may allocate or rehash")
					}
				}
			}
			ac.checkAssignBoxing(n, x, rep)
		case *ast.SendStmt:
			if ch, ok := typeOf(info, x.Chan).Underlying().(*types.Chan); ok {
				ac.checkBoxed(n, x.Value, ch.Elem(), rep, "channel send")
			}
		case *ast.ReturnStmt:
			ac.checkReturnBoxing(n, x, rep)
		case *ast.CallExpr:
			ac.checkCall(n, x, rep)
		}
		return true
	})
}

// allocExemptRanges collects the cold-path source ranges: return
// statements carrying a non-nil error expression, and panic arguments.
func allocExemptRanges(info *types.Info, body *ast.BlockStmt) [][2]token.Pos {
	errType := types.Universe.Lookup("error").Type()
	var out [][2]token.Pos
	ast.Inspect(body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.ReturnStmt:
			for _, res := range x.Results {
				tv, ok := info.Types[res]
				if ok && tv.Type != nil && !tv.IsNil() && types.AssignableTo(tv.Type, errType) {
					out = append(out, [2]token.Pos{x.Pos(), x.End()})
					break
				}
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
				if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
					out = append(out, [2]token.Pos{x.Pos(), x.End()})
				}
			}
		}
		return true
	})
	return out
}

func (ac *allocChecker) checkCall(n *FuncNode, call *ast.CallExpr, rep func(token.Pos, string, ...any)) {
	info := n.Pkg.TypesInfo
	fun := ast.Unparen(call.Fun)

	// Conversions: only the string↔byte/rune-slice family allocates.
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			ac.checkConversion(n, tv.Type, call, rep)
		}
		return
	}

	var obj types.Object
	switch fun := fun.(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	}

	switch callee := obj.(type) {
	case *types.Builtin:
		switch callee.Name() {
		case "make":
			rep(call.Pos(), "make allocates; preallocate and reuse")
		case "new":
			rep(call.Pos(), "new allocates; reuse pooled or caller-owned storage")
		case "append":
			if len(call.Args) > 0 && !reusableAppendDest(info, n, call.Args[0]) {
				rep(call.Pos(), "append to a freshly made or unknown buffer may grow and allocate; "+
					"append only to caller-provided or field-rooted storage")
			}
		}
		ac.checkArgBoxing(n, call, rep)
		return
	case *types.Func:
		sig, _ := callee.Type().(*types.Signature)
		if sig != nil && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
			rep(call.Pos(), "interface method call %s cannot be proven allocation-free; devirtualize on the hot path",
				callee.Name())
			return
		}
		if node := ac.prog.Graph.NodeOf(callee); node != nil && node.Decl != nil {
			ac.checkArgBoxing(n, call, rep) // callee body is walked via its edge
			return
		}
		pkgPath := ""
		if callee.Pkg() != nil {
			pkgPath = callee.Pkg().Path()
		}
		if !allocAllowedPkgs[pkgPath] {
			rep(call.Pos(), "call to %s.%s is outside the allocation-free allowlist "+
				"(encoding/binary, math/bits, sync/atomic)", pkgPath, callee.Name())
			return
		}
		ac.checkArgBoxing(n, call, rep)
		return
	}
	// No static callee object: a call through a function value, which
	// the hot-path walk cannot follow.
	rep(call.Pos(), "call through a function value cannot be proven allocation-free; "+
		"call the target directly on the hot path")
}

func (ac *allocChecker) checkConversion(n *FuncNode, to types.Type, call *ast.CallExpr, rep func(token.Pos, string, ...any)) {
	info := n.Pkg.TypesInfo
	from := typeOf(info, call.Args[0])
	if from == nil {
		return
	}
	toU, fromU := to.Underlying(), from.Underlying()
	if isString(toU) && isByteOrRuneSlice(fromU) {
		rep(call.Pos(), "[]byte-to-string conversion copies and allocates")
	}
	if isByteOrRuneSlice(toU) && isString(fromU) {
		rep(call.Pos(), "string-to-slice conversion copies and allocates")
	}
	if types.IsInterface(to) && !types.IsInterface(from) {
		rep(call.Pos(), "conversion to interface boxes the value")
	}
}

// reusableAppendDest reports whether the append destination follows the
// reuse discipline: a parameter or receiver (the caller owns the
// backing array), a struct field (the object owns it), or a local
// derived from either by re-slicing (seqset's out := dst.runs[:0]
// pattern).
func reusableAppendDest(info *types.Info, n *FuncNode, dest ast.Expr) bool {
	var rootedOK func(e ast.Expr, depth int) bool
	rootedOK = func(e ast.Expr, depth int) bool {
		if depth > 8 {
			return false
		}
		switch e := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			s, ok := info.Selections[e]
			return ok && s.Kind() == types.FieldVal
		case *ast.CallExpr:
			// kept = append(kept, ev): the local's latest binding is the
			// append itself — the storage is whatever the first argument
			// was rooted in.
			if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && len(e.Args) > 0 {
				if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "append" {
					return rootedOK(e.Args[0], depth+1)
				}
			}
			return false
		case *ast.SliceExpr:
			return rootedOK(e.X, depth+1)
		case *ast.IndexExpr:
			return rootedOK(e.X, depth+1)
		case *ast.Ident:
			obj, _ := info.Uses[e].(*types.Var)
			if obj == nil {
				return false
			}
			if isParamOf(info, n, obj) {
				return true
			}
			// A local: trace its bindings, latest-first. A self-extending
			// binding (out = append(out, …)) keeps whatever rooting the
			// variable already had, so it is skipped in favor of the
			// binding before it.
			var bounds []ast.Expr
			ast.Inspect(n.Body, func(x ast.Node) bool {
				as, ok := x.(*ast.AssignStmt)
				if !ok || as.Pos() >= e.Pos() {
					return true
				}
				for i, lhs := range as.Lhs {
					if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && i < len(as.Rhs) {
						if info.Defs[id] == obj || info.Uses[id] == obj {
							bounds = append(bounds, as.Rhs[i])
						}
					}
				}
				return true
			})
			for k := len(bounds) - 1; k >= 0; k-- {
				if selfAppend(info, bounds[k], obj) {
					continue
				}
				return rootedOK(bounds[k], depth+1)
			}
			return false
		}
		return false
	}
	return rootedOK(dest, 0)
}

// selfAppend reports whether rhs is append(obj, …) — a binding that
// extends obj's existing storage rather than replacing it.
func selfAppend(info *types.Info, rhs ast.Expr, obj *types.Var) bool {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	if b, ok := info.Uses[id].(*types.Builtin); !ok || b.Name() != "append" {
		return false
	}
	arg, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	return ok && (info.Uses[arg] == obj || info.Defs[arg] == obj)
}

// isParamOf reports whether obj is a parameter or receiver of n.
func isParamOf(info *types.Info, n *FuncNode, obj *types.Var) bool {
	var fields []*ast.Field
	if n.Decl != nil {
		if n.Decl.Recv != nil {
			fields = append(fields, n.Decl.Recv.List...)
		}
		if n.Decl.Type.Params != nil {
			fields = append(fields, n.Decl.Type.Params.List...)
		}
	} else if n.Lit != nil && n.Lit.Type.Params != nil {
		fields = append(fields, n.Lit.Type.Params.List...)
	}
	for _, f := range fields {
		for _, name := range f.Names {
			if info.Defs[name] == obj {
				return true
			}
		}
	}
	return false
}

// checkArgBoxing flags concrete values passed into interface-typed
// parameters.
func (ac *allocChecker) checkArgBoxing(n *FuncNode, call *ast.CallExpr, rep func(token.Pos, string, ...any)) {
	info := n.Pkg.TypesInfo
	tv, ok := info.Types[ast.Unparen(call.Fun)]
	if !ok || tv.Type == nil {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < params.Len()-1 || (i < params.Len() && !sig.Variadic()):
			pt = params.At(i).Type()
		case sig.Variadic() && params.Len() > 0:
			if sl, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = sl.Elem()
			}
		}
		if pt != nil {
			ac.checkBoxed(n, arg, pt, rep, "argument")
		}
	}
}

func (ac *allocChecker) checkAssignBoxing(n *FuncNode, as *ast.AssignStmt, rep func(token.Pos, string, ...any)) {
	info := n.Pkg.TypesInfo
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i := range as.Lhs {
		lt := typeOf(info, as.Lhs[i])
		if lt != nil {
			ac.checkBoxed(n, as.Rhs[i], lt, rep, "assignment")
		}
	}
}

func (ac *allocChecker) checkReturnBoxing(n *FuncNode, ret *ast.ReturnStmt, rep func(token.Pos, string, ...any)) {
	sig := nodeSignature(n)
	if sig == nil || sig.Results().Len() != len(ret.Results) {
		return
	}
	for i, res := range ret.Results {
		ac.checkBoxed(n, res, sig.Results().At(i).Type(), rep, "return")
	}
}

func nodeSignature(n *FuncNode) *types.Signature {
	if n.Obj != nil {
		sig, _ := n.Obj.Type().(*types.Signature)
		return sig
	}
	if n.Lit != nil {
		if tv, ok := n.Pkg.TypesInfo.Types[n.Lit]; ok && tv.Type != nil {
			sig, _ := tv.Type.Underlying().(*types.Signature)
			return sig
		}
	}
	return nil
}

// checkBoxed reports a concrete (non-interface, non-nil) value flowing
// into an interface-typed slot.
func (ac *allocChecker) checkBoxed(n *FuncNode, val ast.Expr, slot types.Type, rep func(token.Pos, string, ...any), what string) {
	if !types.IsInterface(slot) {
		return
	}
	tv, ok := n.Pkg.TypesInfo.Types[val]
	if !ok || tv.Type == nil || tv.IsNil() || types.IsInterface(tv.Type) {
		return
	}
	rep(val.Pos(), "%s boxes a concrete %s into an interface, which allocates", what, tv.Type.String())
}

func typeOf(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok && tv.Type != nil {
		return tv.Type
	}
	return types.Typ[types.Invalid]
}

func isStringType(info *types.Info, e ast.Expr) bool {
	return isString(typeOf(info, e).Underlying())
}

func isString(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	sl, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}
