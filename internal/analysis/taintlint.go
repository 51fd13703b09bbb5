package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// TaintPackages are the packages that touch decoded wire input: the
// codec itself, the set type wire intervals expand into, the protocol
// state machine the frames are dispatched to, the host driver that
// decodes envelopes, and the two transports that feed it.
var TaintPackages = []string{
	"rbcast/internal/core",
	"rbcast/internal/seqset",
	"rbcast/internal/wire",
	"rbcast/internal/node",
	"rbcast/internal/udp",
	"rbcast/internal/live",
}

// TaintLint tracks attacker-controlled integers from decoded wire input
// to capacity-shaped sinks. Every field of a decoded frame is adversarial
// (the network can forge, reorder, and duplicate at will — §2's loss
// model makes no promises about content), so a decoded length or
// sequence number that reaches make, a slice index, or an
// AddRange-style O(value) API without an intervening comparison is a
// remote DoS: exactly the PR 1 seqset.AddRange decoder bug, found then
// by fuzzing and caught here statically.
//
// Sources: results of wire.Decode / DecodeEnvelope, encoding/binary
// integer reads, and parameters of the network-facing named types
// (Message, Frame, Envelope). A comparison mentioning a tainted variable
// sanitizes it on both branches (the analysis cannot tell a correct
// bound from an inverted one; requiring *a* bound is the useful
// invariant). Callees resolve through the whole-program call graph with
// bottom-up memoized summaries, so a tainted argument threaded through
// any depth of (possibly cross-package) calls to a sink is reported at
// the outermost call site.
var TaintLint = &Analyzer{
	Name: "taintlint",
	Doc: "decoded wire values must pass a bounds check before reaching make, " +
		"slice indexing, or AddRange-style capacity sinks",
	Run: runTaintLint,
}

// taintSinkCalls are callee names whose integer arguments must be
// bounds-checked first: APIs that spend O(value) time or memory.
var taintSinkCalls = map[string]bool{
	"AddRange": true, "FromRange": true, "Grow": true,
}

// taintDecodeNames are module functions whose results are wholly
// attacker-controlled.
var taintDecodeNames = map[string]bool{
	"Decode": true, "DecodeEnvelope": true,
}

// taintParamTypes are named types whose values arrive off the network:
// parameters of these types are adversarial at function entry.
var taintParamTypes = map[string]bool{
	"Message": true, "Frame": true, "Envelope": true,
}

func runTaintLint(pass *Pass) error {
	if !pkgInScope(pass.Pkg.Path(), TaintPackages) || pass.Prog == nil {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkTaintRoot(pass, fd)
			}
		}
	}
	return nil
}

// A taintSummary is the dataflow abstract of one function over its full
// transitive call tree: which parameters reach capacity sinks unchecked,
// and which taint a return value.
type taintSummary struct {
	paramSinks   map[int][]string
	paramReturns map[int]bool
}

// checkTaintRoot analyzes one function as a root: its own sources
// (decode calls, binary reads, network-typed parameters) flow to its
// sinks, directly or through callee summaries.
func checkTaintRoot(pass *Pass, fd *ast.FuncDecl) {
	entry := make(factSet)
	for _, obj := range funcParamObjs(pass, fd) {
		if obj != nil && taintedParamType(obj.Type()) {
			entry[obj] = taintVal{pos: obj.Pos(), param: -1}
		}
	}
	run := &taintRun{
		prog:    pass.Prog,
		info:    pass.TypesInfo,
		pkg:     pass.Pkg,
		fset:    pass.Fset,
		reportf: pass.Reportf,
	}
	run.analyze(fd.Name.Name, fd.Body, entry)
}

// taintSummaryOf computes (memoized on the Program, cycle-guarded) the
// summary of node n. Summaries recurse through the call graph — a count
// threaded three calls deep to a make is still charged to the outermost
// call site — and cross package boundaries, since every node carries
// its own package's type information. Recursive cycles return nil,
// degrading that edge to the tainted-in-tainted-out default.
func (p *Program) taintSummaryOf(n *FuncNode) *taintSummary {
	if n == nil || n.Decl == nil || n.Decl.Body == nil {
		return nil
	}
	if sum, ok := p.taintSummaries[n]; ok {
		return sum
	}
	if p.taintInProgress[n] {
		return nil
	}
	p.taintInProgress[n] = true
	defer delete(p.taintInProgress, n)

	info := n.Pkg.TypesInfo
	entry := make(factSet)
	for i, obj := range funcParamObjsInfo(info, n.Decl) {
		if obj == nil {
			continue
		}
		// Network-typed parameters are tainted when the function itself is
		// analyzed as a root; attributing their sinks to the caller too
		// would double-report. Track them as plain sources here.
		if taintedParamType(obj.Type()) {
			entry[obj] = taintVal{pos: obj.Pos(), param: -1}
		} else {
			entry[obj] = taintVal{pos: obj.Pos(), param: i}
		}
	}
	sum := &taintSummary{
		paramSinks:   make(map[int][]string),
		paramReturns: make(map[int]bool),
	}
	run := &taintRun{prog: p, info: info, pkg: n.Pkg.Types, fset: p.Fset, summary: sum}
	run.analyze(n.Name, n.Decl.Body, entry)
	p.taintSummaries[n] = sum
	return sum
}

// A taintRun is one dataflow execution: fixpoint first, then a reporting
// walk over the stabilized entry facts. It is bound to the package of
// the function under analysis (info/pkg), which for callee summaries
// need not be the pass package.
type taintRun struct {
	prog *Program
	info *types.Info
	pkg  *types.Package
	fset *token.FileSet
	// summary, when non-nil, receives sink hits attributable to
	// parameters instead of emitting diagnostics.
	summary *taintSummary
	// reportf emits root diagnostics; nil in summary mode.
	reportf func(token.Pos, string, ...any)
	// report gates sink checking: off during fixpoint iteration.
	report bool
}

func (run *taintRun) analyze(name string, body *ast.BlockStmt, entry factSet) {
	cfg := buildCFG(name, body)
	ins := forwardMay(cfg, entry, func(blk *Block, in factSet) factSet {
		return run.transferBlock(blk, in)
	})
	run.report = true
	for _, blk := range cfg.Blocks {
		if in, ok := ins[blk]; ok {
			run.transferBlock(blk, cloneFacts(in))
		}
	}
	run.report = false
}

func (run *taintRun) transferBlock(blk *Block, f factSet) factSet {
	for _, n := range blk.Nodes {
		f = run.transferNode(n, f)
	}
	return f
}

func (run *taintRun) transferNode(n ast.Node, f factSet) factSet {
	// Range headers are shallow: only the range expression and the
	// key/value bindings belong to this node.
	if rng, ok := n.(*ast.RangeStmt); ok {
		run.checkSinks(rng.X, f)
		if v, tainted := run.exprTaint(rng.X, f); tainted {
			// Elements of a tainted container are tainted; positions are
			// bounded by the real length and stay clean.
			if obj := run.identObj(rng.Value); obj != nil {
				f[obj] = v
			}
		}
		return run.applyKills(rng.X, f)
	}

	run.checkSinks(n, f)

	switch n := n.(type) {
	case *ast.AssignStmt:
		f = run.assign(n.Lhs, n.Rhs, f)
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Values) > 0 {
					lhs := make([]ast.Expr, len(vs.Names))
					for i, name := range vs.Names {
						lhs[i] = name
					}
					f = run.assign(lhs, vs.Values, f)
				}
			}
		}
	case *ast.ReturnStmt:
		if run.summary != nil {
			for _, res := range n.Results {
				if v, tainted := run.exprTaint(res, f); tainted && v.param >= 0 {
					run.summary.paramReturns[v.param] = true
				}
			}
		}
	}
	return run.applyKills(n, f)
}

// assign pushes taint through one assignment (or var declaration).
func (run *taintRun) assign(lhs, rhs []ast.Expr, f factSet) factSet {
	if len(rhs) == 1 && len(lhs) > 1 {
		// Multi-value: x, y := call(). All results share the call's taint.
		v, tainted := run.exprTaint(rhs[0], f)
		for _, l := range lhs {
			f = run.setLHS(l, v, tainted, f)
		}
		return f
	}
	for i, l := range lhs {
		if i >= len(rhs) {
			break
		}
		v, tainted := run.exprTaint(rhs[i], f)
		f = run.setLHS(l, v, tainted, f)
	}
	return f
}

func (run *taintRun) setLHS(l ast.Expr, v taintVal, tainted bool, f factSet) factSet {
	switch l := ast.Unparen(l).(type) {
	case *ast.Ident:
		if l.Name == "_" {
			return f
		}
		obj := run.identObj(l)
		if obj == nil {
			return f
		}
		if tainted {
			f[obj] = v
		} else {
			delete(f, obj) // strong update: a clean store launders the variable
		}
	default:
		// Store through a selector/index/pointer: a tainted store taints
		// the root variable (weak update — some part of it is now
		// attacker-controlled); a clean store proves nothing.
		if tainted {
			if obj := run.identObj(rootExpr(l)); obj != nil {
				f[obj] = v
			}
		}
	}
	return f
}

func (run *taintRun) identObj(e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := run.info.Defs[id]; obj != nil {
		return obj
	}
	return run.info.Uses[id]
}

// rootExpr peels selectors, indexes, slices, stars, and parens down to
// the base expression.
func rootExpr(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return e
		}
	}
}

// applyKills removes taint for every object mentioned in a comparison
// inside n: `if n > MaxIntervals { return }` sanitizes n on both edges.
// Both edges on purpose — distinguishing the safe branch from the unsafe
// one would need relational domains; the enforced invariant is that
// *some* bound was checked between decode and use.
func (run *taintRun) applyKills(n ast.Node, f factSet) factSet {
	ast.Inspect(n, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		be, ok := x.(*ast.BinaryExpr)
		if !ok || !isComparisonOp(be.Op) {
			return true
		}
		for _, side := range []ast.Expr{be.X, be.Y} {
			ast.Inspect(side, func(y ast.Node) bool {
				if id, ok := y.(*ast.Ident); ok {
					if obj := run.info.Uses[id]; obj != nil {
						delete(f, obj)
					}
				}
				return true
			})
		}
		return true
	})
	return f
}

func isComparisonOp(op token.Token) bool {
	switch op {
	case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
		return true
	}
	return false
}

// exprTaint reports whether e may carry attacker-controlled data.
func (run *taintRun) exprTaint(e ast.Expr, f factSet) (taintVal, bool) {
	switch e := e.(type) {
	case *ast.Ident:
		if obj := run.info.Uses[e]; obj != nil {
			if v, ok := f[obj]; ok {
				return v, true
			}
		}
	case *ast.ParenExpr:
		return run.exprTaint(e.X, f)
	case *ast.StarExpr:
		return run.exprTaint(e.X, f)
	case *ast.UnaryExpr:
		if e.Op == token.ARROW {
			return taintVal{}, false
		}
		return run.exprTaint(e.X, f)
	case *ast.SelectorExpr:
		// A field of a tainted value is tainted. (Package selectors have a
		// PkgName base, which is never in the fact set.)
		return run.exprTaint(e.X, f)
	case *ast.IndexExpr:
		return run.exprTaint(e.X, f)
	case *ast.SliceExpr:
		return run.exprTaint(e.X, f)
	case *ast.TypeAssertExpr:
		return run.exprTaint(e.X, f)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if v, ok := run.exprTaint(el, f); ok {
				return v, true
			}
		}
	case *ast.BinaryExpr:
		if isComparisonOp(e.Op) || e.Op == token.LAND || e.Op == token.LOR {
			return taintVal{}, false // booleans carry no capacity
		}
		switch e.Op {
		case token.REM, token.AND, token.AND_NOT:
			// Masking/modulo bounds the result by the (presumed clean)
			// other operand.
			return taintVal{}, false
		}
		if v, ok := run.exprTaint(e.X, f); ok {
			return v, true
		}
		return run.exprTaint(e.Y, f)
	case *ast.CallExpr:
		return run.callTaint(e, f)
	}
	return taintVal{}, false
}

func (run *taintRun) callTaint(call *ast.CallExpr, f factSet) (taintVal, bool) {
	// Conversions propagate: uint32(n) is as tainted as n.
	if tv, ok := run.info.Types[ast.Unparen(call.Fun)]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return run.exprTaint(call.Args[0], f)
		}
		return taintVal{}, false
	}
	if pos, ok := run.sourceCall(call); ok {
		return taintVal{pos: pos, param: -1}, true
	}
	if b, ok := calleeObjectInfo(run.info, call).(*types.Builtin); ok {
		switch b.Name() {
		case "append":
			for _, arg := range call.Args {
				if v, ok := run.exprTaint(arg, f); ok {
					return v, true
				}
			}
		}
		// len/cap are bounded by real allocations; min/max clamp; the
		// rest allocate fresh or return nothing useful.
		return taintVal{}, false
	}
	if node := run.calleeNode(call); node != nil {
		if sum := run.prog.taintSummaryOf(node); sum != nil {
			for i, arg := range callArgExprs(call, node.Decl) {
				if arg == nil {
					continue
				}
				if v, ok := run.exprTaint(arg, f); ok && sum.paramReturns[i] {
					return v, true
				}
			}
			return taintVal{}, false
		}
	}
	// External or shallow: tainted data in means tainted data out.
	for _, arg := range call.Args {
		if v, ok := run.exprTaint(arg, f); ok {
			return v, true
		}
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if v, ok := run.exprTaint(sel.X, f); ok {
			return v, true // method on a tainted receiver
		}
	}
	return taintVal{}, false
}

// calleeNode resolves a call to its call-graph node when the callee is
// a statically known function with a body in the program.
func (run *taintRun) calleeNode(call *ast.CallExpr) *FuncNode {
	fn, ok := calleeObjectInfo(run.info, call).(*types.Func)
	if !ok {
		return nil
	}
	node := run.prog.Graph.NodeOf(fn)
	if node == nil || node.Decl == nil || node.Decl.Body == nil {
		return nil
	}
	return node
}

// sourceCall matches the taint sources: encoding/binary integer reads
// and the module's decode entry points.
func (run *taintRun) sourceCall(call *ast.CallExpr) (token.Pos, bool) {
	fn, ok := calleeObjectInfo(run.info, call).(*types.Func)
	if !ok || fn.Pkg() == nil {
		return token.NoPos, false
	}
	if fn.Pkg().Path() == "encoding/binary" {
		switch fn.Name() {
		case "Uint16", "Uint32", "Uint64":
			return call.Pos(), true
		}
	}
	if taintDecodeNames[fn.Name()] &&
		(fn.Pkg() == run.pkg || strings.HasPrefix(fn.Pkg().Path(), "rbcast/")) {
		return call.Pos(), true
	}
	return token.NoPos, false
}

// taintedParamType reports whether t is (a pointer to) one of the
// network-facing named types.
func taintedParamType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && taintParamTypes[n.Obj().Name()]
}

// checkSinks reports tainted data reaching a capacity sink anywhere
// inside n, with the facts as they stand before n executes.
func (run *taintRun) checkSinks(n ast.Node, f factSet) {
	if !run.report {
		return
	}
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			run.checkCallSinks(x, f)
		case *ast.IndexExpr:
			if isSliceOrArray(run.info, x.X) {
				if v, ok := run.exprTaint(x.Index, f); ok {
					run.reportSink(x.Index.Pos(), "a slice index", v)
				}
			}
		case *ast.SliceExpr:
			for _, bound := range []ast.Expr{x.Low, x.High, x.Max} {
				if bound == nil {
					continue
				}
				if v, ok := run.exprTaint(bound, f); ok {
					run.reportSink(bound.Pos(), "a slice bound", v)
				}
			}
		}
		return true
	})
}

func (run *taintRun) checkCallSinks(call *ast.CallExpr, f factSet) {
	if name, ok := calleeName(call); ok && taintSinkCalls[name] {
		if obj := calleeObjectInfo(run.info, call); obj == nil || !isTypeConversion(run.info, call) {
			for _, arg := range call.Args {
				if v, ok := run.exprTaint(arg, f); ok {
					run.reportSink(arg.Pos(), fmt.Sprintf("%s (O(value) cost)", name), v)
					break
				}
			}
		}
	}
	if b, ok := calleeObjectInfo(run.info, call).(*types.Builtin); ok && b.Name() == "make" {
		for _, arg := range call.Args[1:] {
			if v, ok := run.exprTaint(arg, f); ok {
				run.reportSink(arg.Pos(), "a make size/capacity", v)
			}
		}
		return
	}
	if node := run.calleeNode(call); node != nil {
		if sum := run.prog.taintSummaryOf(node); sum != nil {
			for i, arg := range callArgExprs(call, node.Decl) {
				if arg == nil {
					continue
				}
				v, ok := run.exprTaint(arg, f)
				if !ok {
					continue
				}
				for _, desc := range sum.paramSinks[i] {
					run.reportSink(call.Pos(), fmt.Sprintf("%s inside %s", desc, node.Name), v)
				}
			}
		}
	}
}

func isTypeConversion(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[ast.Unparen(call.Fun)]
	return ok && tv.IsType()
}

func isSliceOrArray(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type.Underlying()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem().Underlying()
	}
	switch t.(type) {
	case *types.Slice, *types.Array:
		return true
	}
	return false
}

func (run *taintRun) reportSink(pos token.Pos, what string, v taintVal) {
	if run.summary != nil {
		if v.param >= 0 {
			run.summary.paramSinks[v.param] = append(run.summary.paramSinks[v.param], what)
		}
		return
	}
	if run.reportf == nil {
		return
	}
	src := run.fset.Position(v.pos)
	run.reportf(pos,
		"attacker-controlled wire value flows into %s without an intervening bounds check "+
			"(tainted at line %d): a forged frame can spend unbounded time or memory",
		what, src.Line)
}
