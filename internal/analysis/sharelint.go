package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
)

// SharePackages are the packages that own real goroutines (plus the
// simulator the sharding tentpole will parallelize): state reachable
// from more than one goroutine there must be lock-protected or
// confined.
var SharePackages = []string{
	"rbcast/internal/sim",
	"rbcast/internal/netsim",
	"rbcast/internal/soak",
	"rbcast/internal/node",
	"rbcast/internal/live",
	"rbcast/internal/udp",
}

// ShareLint checks goroutine confinement of struct-field and
// package-level state, whole-program. Every spawn edge in the call
// graph opens a goroutine context; a function's contexts are propagated
// along static call edges from its callers. A location (named
// instance-blind, e.g. "live.Transport.seq") accessed from two or more
// contexts, at least once as a write, with no lock class common to both
// accesses (held-set walk plus entry-held facts, with monolint's CFG
// dominance machinery as a fallback for guards the linear walk cannot
// see) is reported as a data race candidate.
//
// Accesses are exempt when the state cannot race by construction:
// channel-typed and sync/atomic/detrand-stream/net-handle state is
// confined by its own discipline, accesses through locals freshly bound
// to a composite literal or new(T) are pre-publication initialization,
// accesses reaching their memory purely through value-typed locals
// operate on a per-goroutine copy, and arguments of sync/atomic calls
// are serialized by the atomic operation itself. Struct types whose
// instances never cross a spawn boundary — not captured by any spawned
// closure, not passed or received at any go site, not reachable from
// such a value through reference fields, and not held in a package
// variable — are confined wholesale: a worker that builds its own
// engine per task shares nothing, however many workers run (channel
// fields stop the closure: channel-passed values are handoffs).
//
// Known limits, on purpose: locations are instance-blind (two
// goroutines on *different* Transport values look like a conflict the
// locks must resolve anyway), captured locals are out of scope (the
// directive-level contract covers package-level and struct state), and
// context propagation follows only static edges — dynamic dispatch
// sites under-approximate, which the per-location aggregation mostly
// recovers.
var ShareLint = &Analyzer{
	Name: "sharelint",
	Doc: "struct and package state reachable from more than one goroutine must " +
		"be lock-guarded or channel-confined in sim, netsim, soak, live, udp",
	Run: runShareLint,
}

func runShareLint(pass *Pass) error {
	if pass.Prog == nil {
		return nil
	}
	pass.Prog.ensureShareDiags()
	for _, pd := range pass.Prog.shareDiags {
		if pd.pkgPath == pass.Pkg.Path() {
			pass.Report(pd.d)
		}
	}
	return nil
}

func (p *Program) ensureShareDiags() {
	if p.shareDone {
		return
	}
	p.shareDone = true
	p.shareDiags = p.sortedProgDiags(computeShareDiags(p))
}

// shareAccess is one recorded access to a shared-capable location.
type shareAccess struct {
	node  *FuncNode
	pos   token.Pos
	write bool
	held  map[string]bool // effective lock classes (entry ∪ local) at the access
}

func computeShareDiags(p *Program) []progDiag {
	runsIn, ctxDescs := goroutineContexts(p)
	shared := spawnSharedTypes(p)

	accesses := make(map[string][]*shareAccess)
	for _, n := range p.Graph.Nodes {
		if !pkgInScope(n.Pkg.Path, SharePackages) {
			continue
		}
		collectShareAccesses(p, n, shared, accesses)
	}

	dom := newDomCache(p)
	var out []progDiag
	locs := make([]string, 0, len(accesses))
	for loc := range accesses {
		locs = append(locs, loc)
	}
	sort.Strings(locs)
	for _, loc := range locs {
		accs := accesses[loc]
		for _, w := range accs {
			if !w.write {
				continue
			}
			other := findShareConflict(p, w, accs, runsIn, dom)
			if other == nil {
				continue
			}
			ctxs := describeContexts(runsIn, ctxDescs, w.node, other.node)
			var msg string
			if other == w {
				msg = fmt.Sprintf("%s is written by %s, which runs in multiple goroutines (%s), without a lock: "+
					"concurrent instances race on this write; guard it with a mutex or confine it to one goroutine",
					loc, w.node.Name, ctxs)
			} else {
				msg = fmt.Sprintf("%s is written here and accessed at %s from a different goroutine (%s) with no common lock: "+
					"guard both accesses with one mutex or confine the state to a single goroutine",
					loc, shortPos(p.Fset, other.pos), ctxs)
			}
			out = append(out, progDiag{
				pkgPath: w.node.Pkg.Path,
				d:       Diagnostic{Analyzer: "sharelint", Pos: w.pos, Message: msg},
			})
		}
	}
	return out
}

// findShareConflict returns an access conflicting with the write w, or
// nil: together they span two or more goroutine contexts and no lock
// class guards both.
func findShareConflict(p *Program, w *shareAccess, accs []*shareAccess, runsIn map[*FuncNode]map[int]bool, dom *domCache) *shareAccess {
	wGuard := effectiveGuard(p, w, dom)
	for _, a := range accs {
		n := len(runsIn[w.node])
		for ctx := range runsIn[a.node] {
			if !runsIn[w.node][ctx] {
				n++
			}
		}
		if n < 2 {
			continue
		}
		if intersectsHeld(wGuard, effectiveGuard(p, a, dom)) {
			continue
		}
		return a
	}
	return nil
}

// effectiveGuard is the access's held set, falling back to the set of
// lock classes whose acquisition dominates the access on every CFG path
// (monolint's dominance machinery) when the linear walk saw nothing —
// this recovers guards taken on both arms of a branch.
func effectiveGuard(p *Program, a *shareAccess, dom *domCache) map[string]bool {
	if len(a.held) > 0 {
		return a.held
	}
	return dom.dominatingClasses(a.node, a.pos)
}

func intersectsHeld(a, b map[string]bool) bool {
	for class := range a {
		if b[class] {
			return true
		}
	}
	return false
}

// goroutineContexts assigns context IDs — 0 for program entry points,
// one per spawn edge (two when the spawn sits in a loop: many instances
// of the same body) — and propagates them along static call and defer
// edges to a fixpoint.
func goroutineContexts(p *Program) (map[*FuncNode]map[int]bool, []string) {
	runsIn := make(map[*FuncNode]map[int]bool)
	add := func(n *FuncNode, ctx int) bool {
		m := runsIn[n]
		if m == nil {
			m = make(map[int]bool)
			runsIn[n] = m
		}
		if m[ctx] {
			return false
		}
		m[ctx] = true
		return true
	}

	descs := []string{"program entry"}
	for _, n := range p.Graph.Nodes {
		if len(n.In) == 0 {
			add(n, 0)
		}
		for _, e := range n.Out {
			if e.Kind != EdgeGo {
				continue
			}
			desc := fmt.Sprintf("spawned by %s at %s", n.Name, shortPos(p.Fset, e.Pos))
			descs = append(descs, desc)
			add(e.Callee, len(descs)-1)
			if siteInLoop(n.Body, e.Site) {
				descs = append(descs, desc+" (loop: multiple instances)")
				add(e.Callee, len(descs)-1)
			}
		}
	}

	for changed := true; changed; {
		changed = false
		for _, n := range p.Graph.Nodes {
			for _, e := range n.Out {
				if e.Kind == EdgeGo || e.Dynamic {
					continue
				}
				for ctx := range runsIn[n] {
					if add(e.Callee, ctx) {
						changed = true
					}
				}
			}
		}
	}
	return runsIn, descs
}

// siteInLoop reports whether site sits inside a for/range statement of
// body (position containment; nested literal bodies do not matter here
// because the site belongs to this node's own shallow walk).
func siteInLoop(body ast.Node, site *ast.CallExpr) bool {
	in := false
	ast.Inspect(body, func(n ast.Node) bool {
		if in {
			return false
		}
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			if n.Pos() <= site.Pos() && site.End() <= n.End() {
				in = true
			}
		}
		return true
	})
	return in
}

func describeContexts(runsIn map[*FuncNode]map[int]bool, descs []string, nodes ...*FuncNode) string {
	seen := make(map[int]bool)
	var ids []int
	for _, n := range nodes {
		for ctx := range runsIn[n] {
			if !seen[ctx] {
				seen[ctx] = true
				ids = append(ids, ctx)
			}
		}
	}
	sort.Ints(ids)
	var parts []string
	for _, id := range ids {
		if len(parts) == 3 {
			parts = append(parts, fmt.Sprintf("+%d more", len(ids)-3))
			break
		}
		parts = append(parts, descs[id])
	}
	out := ""
	for i, s := range parts {
		if i > 0 {
			out += "; "
		}
		out += s
	}
	return out
}

// collectShareAccesses walks one in-scope node and records its accesses
// to struct-field and package-level locations.
func collectShareAccesses(p *Program, n *FuncNode, shared map[*types.Named]bool, accesses map[string][]*shareAccess) {
	entry := p.entryHeldOf(n)
	fresh := freshLocals(n)
	claimed := make(map[ast.Node]bool)
	var atomicRanges [][2]token.Pos

	inAtomic := func(pos token.Pos) bool {
		for _, r := range atomicRanges {
			if r[0] <= pos && pos <= r[1] {
				return true
			}
		}
		return false
	}
	record := func(expr ast.Expr, write bool, held map[string]bool) {
		loc, t, owner, ok := shareLocOf(p, n, expr)
		if !ok || confinedType(t) || baseIsFresh(n, expr, fresh) || inAtomic(expr.Pos()) {
			return
		}
		if owner != nil && (!shared[owner] || localValueChain(n, expr)) {
			return
		}
		accesses[loc] = append(accesses[loc], &shareAccess{
			node:  n,
			pos:   expr.Pos(),
			write: write,
			held:  copyHeld(unionHeld(entry, held)),
		})
	}
	claimWrite := func(expr ast.Expr, held map[string]bool) {
		e := ast.Unparen(expr)
		if ix, ok := e.(*ast.IndexExpr); ok { // m[k] = v writes the map itself
			e = ast.Unparen(ix.X)
		}
		claimed[e] = true
		record(e, true, held)
	}

	p.walkLocks(n, func(node ast.Node, held map[string]bool) {
		switch node := node.(type) {
		case *ast.AssignStmt:
			for _, lhs := range node.Lhs {
				claimWrite(lhs, held)
			}
		case *ast.IncDecStmt:
			claimWrite(node.X, held)
		case *ast.UnaryExpr:
			// Taking the address lets the pointee be mutated out of view:
			// conservatively a write.
			if node.Op == token.AND {
				claimWrite(node.X, held)
			}
		case *ast.CallExpr:
			// A pointer-receiver method call is deliberately NOT treated as
			// a write to the receiver: the callee's own field writes are
			// observed directly when its node is walked, each with its own
			// (correct) lock context, so a caller-side claim would only
			// double-count with the wrong context — n.bus.Tick() from the
			// owning goroutine is not a write to the bus field.
			if isAtomicCall(n.Pkg.TypesInfo, node) {
				atomicRanges = append(atomicRanges, [2]token.Pos{node.Pos(), node.End()})
			}
		case *ast.SelectorExpr:
			if !claimed[node] {
				record(node, false, held)
			}
		case *ast.Ident:
			if !claimed[node] {
				record(node, false, held)
			}
		}
	})
}

// shareLocOf names the location an expression touches: a field of a
// program-declared named type ("pkg/path.Type.field", owner returned)
// or a package-level variable ("pkg/path.var", nil owner). Locals,
// parameters, and state of packages outside the program are not
// tracked.
func shareLocOf(p *Program, n *FuncNode, e ast.Expr) (string, types.Type, *types.Named, bool) {
	info := n.Pkg.TypesInfo
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		s, ok := info.Selections[e]
		if !ok || s.Kind() != types.FieldVal {
			return "", nil, nil, false
		}
		t := s.Recv()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok || named.Obj().Pkg() == nil || p.packageOf(named.Obj().Pkg()) == nil {
			return "", nil, nil, false
		}
		return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + e.Sel.Name, s.Obj().Type(), named, true
	case *ast.Ident:
		obj, ok := info.Uses[e].(*types.Var)
		if !ok || !isPackageLevelVar(obj) || p.packageOf(obj.Pkg()) == nil {
			return "", nil, nil, false
		}
		return obj.Pkg().Path() + "." + obj.Name(), obj.Type(), nil, true
	}
	return "", nil, nil, false
}

// spawnSharedTypes computes the named types whose instances can be
// reached by more than one goroutine by construction: types captured by
// a spawned closure, passed (or used as receiver) at a go site, or held
// in a package-level variable — transitively closed over struct fields
// through pointers, slices, arrays, and maps. Channel element types are
// deliberately not followed: a value sent on a channel is a handoff,
// the confinement-by-communication idiom. A struct type outside this
// set is goroutine-confined however many goroutines run the code that
// builds it.
func spawnSharedTypes(p *Program) map[*types.Named]bool {
	set := make(map[*types.Named]bool)
	for _, n := range p.Graph.Nodes {
		info := n.Pkg.TypesInfo
		for _, e := range n.Out {
			if e.Kind != EdgeGo {
				continue
			}
			for _, arg := range e.Site.Args {
				addSpawnSharedType(p, set, typeOf(info, arg))
			}
			if sel, ok := ast.Unparen(e.Site.Fun).(*ast.SelectorExpr); ok {
				addSpawnSharedType(p, set, typeOf(info, sel.X))
			}
			if lit := e.Callee.Lit; lit != nil {
				ast.Inspect(lit.Body, func(x ast.Node) bool {
					id, ok := x.(*ast.Ident)
					if !ok {
						return true
					}
					v, ok := info.Uses[id].(*types.Var)
					if ok && v.Pos().IsValid() && (v.Pos() < lit.Pos() || v.Pos() > lit.End()) {
						addSpawnSharedType(p, set, v.Type())
					}
					return true
				})
			}
		}
	}
	for _, pkg := range p.Packages {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			if v, ok := scope.Lookup(name).(*types.Var); ok {
				addSpawnSharedType(p, set, v.Type())
			}
		}
	}
	return set
}

func addSpawnSharedType(p *Program, set map[*types.Named]bool, t types.Type) {
	switch t := t.(type) {
	case *types.Pointer:
		addSpawnSharedType(p, set, t.Elem())
	case *types.Slice:
		addSpawnSharedType(p, set, t.Elem())
	case *types.Array:
		addSpawnSharedType(p, set, t.Elem())
	case *types.Map:
		addSpawnSharedType(p, set, t.Key())
		addSpawnSharedType(p, set, t.Elem())
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			addSpawnSharedType(p, set, t.Field(i).Type())
		}
	case *types.Named:
		if set[t] || t.Obj().Pkg() == nil || p.packageOf(t.Obj().Pkg()) == nil {
			return
		}
		set[t] = true
		addSpawnSharedType(p, set, t.Underlying())
	}
	// Channels (handoff), funcs, interfaces, basics: stop.
}

// localValueChain reports whether e reaches its memory purely through
// value-typed locals: the chain's root is a non-field local variable
// (parameter, value receiver, or local) and every selection step peels
// a value struct. Such memory is this function's own copy — writing
// cfg.Field on a value receiver mutates the copy, not shared state.
func localValueChain(n *FuncNode, e ast.Expr) bool {
	info := n.Pkg.TypesInfo
	cur := ast.Unparen(e)
	for {
		sel, ok := cur.(*ast.SelectorExpr)
		if !ok {
			break
		}
		t := typeOf(info, sel.X)
		if _, isStruct := t.Underlying().(*types.Struct); !isStruct {
			return false // pointer/interface/indexed base dereferences shared memory
		}
		cur = ast.Unparen(sel.X)
	}
	id, ok := cur.(*ast.Ident)
	if !ok {
		return false
	}
	v, ok := info.Uses[id].(*types.Var)
	if !ok {
		if v, ok = info.Defs[id].(*types.Var); !ok {
			return false
		}
	}
	return !v.IsField() && !isPackageLevelVar(v)
}

// confinedType reports state whose own discipline serializes access:
// channels, sync and sync/atomic values, deterministic random streams,
// network handles, and runtime timers (all safe for concurrent use).
func confinedType(t types.Type) bool {
	if t == nil {
		return false
	}
	if _, ok := t.Underlying().(*types.Chan); ok {
		return true
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	switch named.Obj().Pkg().Path() {
	case "sync", "sync/atomic", "rbcast/internal/detrand":
		return true
	case "time":
		switch named.Obj().Name() {
		case "Timer", "Ticker":
			return true
		}
	case "net":
		return true
	}
	return false
}

// freshLocals finds locals bound (by := or var) directly to a composite
// literal or new(T): values this function just created and is still
// initializing before publication.
func freshLocals(n *FuncNode) map[types.Object]bool {
	info := n.Pkg.TypesInfo
	fresh := make(map[types.Object]bool)
	isFreshExpr := func(e ast.Expr) bool {
		switch e := ast.Unparen(e).(type) {
		case *ast.CompositeLit:
			return true
		case *ast.UnaryExpr:
			if e.Op == token.AND {
				_, ok := ast.Unparen(e.X).(*ast.CompositeLit)
				return ok
			}
		case *ast.CallExpr:
			if b, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
				if obj, ok := info.Uses[b].(*types.Builtin); ok && obj.Name() == "new" {
					return true
				}
			}
		}
		return false
	}
	bind := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok || id.Name == "_" || !isFreshExpr(rhs) {
			return
		}
		if obj := info.Defs[id]; obj != nil {
			fresh[obj] = true
		}
	}
	ast.Inspect(n.Body, func(x ast.Node) bool {
		if lit, ok := x.(*ast.FuncLit); ok && lit.Body != n.Body {
			return false
		}
		switch x := x.(type) {
		case *ast.AssignStmt:
			if x.Tok == token.DEFINE && len(x.Lhs) == len(x.Rhs) {
				for i := range x.Lhs {
					bind(x.Lhs[i], x.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(x.Names) == len(x.Values) {
				for i := range x.Names {
					bind(x.Names[i], x.Values[i])
				}
			}
		}
		return true
	})
	return fresh
}

func baseIsFresh(n *FuncNode, e ast.Expr, fresh map[types.Object]bool) bool {
	id, ok := ast.Unparen(rootExpr(e)).(*ast.Ident)
	if !ok {
		return false
	}
	obj := n.Pkg.TypesInfo.Uses[id]
	if obj == nil {
		obj = n.Pkg.TypesInfo.Defs[id]
	}
	return obj != nil && fresh[obj]
}

func isAtomicCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic"
}

// domCache lazily builds, per function node, the CFG and the map from
// lock class to the statements acquiring it — the inputs to the
// dominance fallback.
type domCache struct {
	prog *Program
	cfgs map[*FuncNode]*CFG
	acqs map[*FuncNode]map[string][]ast.Node
}

func newDomCache(p *Program) *domCache {
	return &domCache{
		prog: p,
		cfgs: make(map[*FuncNode]*CFG),
		acqs: make(map[*FuncNode]map[string][]ast.Node),
	}
}

func (d *domCache) of(n *FuncNode) (*CFG, map[string][]ast.Node) {
	if cfg, ok := d.cfgs[n]; ok {
		return cfg, d.acqs[n]
	}
	cfg := buildCFG(n.Name, n.Body)
	acqs := make(map[string][]ast.Node)
	for _, blk := range cfg.Blocks {
		for _, stmt := range blk.Nodes {
			ast.Inspect(stmt, func(x ast.Node) bool {
				if _, ok := x.(*ast.FuncLit); ok {
					return false
				}
				if call, ok := x.(*ast.CallExpr); ok {
					if class, locks, ok := d.prog.lockEventClass(n, call); ok && locks {
						acqs[class] = append(acqs[class], stmt)
					}
				}
				return true
			})
		}
	}
	d.cfgs[n] = cfg
	d.acqs[n] = acqs
	return cfg, acqs
}

// dominatingClasses returns the lock classes whose acquisition
// dominates the access at pos on every CFG path from entry.
func (d *domCache) dominatingClasses(n *FuncNode, pos token.Pos) map[string]bool {
	cfg, acqs := d.of(n)
	if len(acqs) == 0 {
		return nil
	}
	blk, idx := findEnclosingBlockNode(cfg, pos)
	if blk == nil {
		return nil
	}
	var out map[string]bool
	for class, stmts := range acqs {
		isGuard := func(node ast.Node) bool {
			for _, s := range stmts {
				if s == node {
					return true
				}
			}
			return false
		}
		if pathDominates(cfg, blk, idx, isGuard) {
			if out == nil {
				out = make(map[string]bool)
			}
			out[class] = true
		}
	}
	return out
}

// findEnclosingBlockNode locates the CFG block node whose source range
// contains pos.
func findEnclosingBlockNode(cfg *CFG, pos token.Pos) (*Block, int) {
	for _, blk := range cfg.Blocks {
		for i, node := range blk.Nodes {
			if node.Pos() <= pos && pos <= node.End() {
				return blk, i
			}
		}
	}
	return nil, -1
}

func shortPos(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}
