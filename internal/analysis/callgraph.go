package analysis

// callgraph.go — the whole-program layer under the analyzers.
//
// A Program bundles every loaded package with one CallGraph built over
// all of them, plus lanelint's cross-pass caches (Loop-effect summaries,
// field-stored functions, its whole-program results), so they are built
// once per run rather than per package. The graph is CHA-style and
// deliberately conservative:
//
//   - every function declaration with a body and every function literal
//     is a node (literals are named encloser$1, encloser$2, … in source
//     order and keep a Parent link to their enclosing node);
//   - static calls resolve through the type checker's Uses map;
//   - interface method calls resolve to every program-declared concrete
//     method whose receiver type implements the interface (class
//     hierarchy analysis);
//   - calls through function values (struct fields, parameters, locals,
//     method values) resolve to every address-taken node with an
//     identical signature — imprecise, never unsound;
//   - `go f(…)` and the time.AfterFunc callback produce EdgeGo edges,
//     `defer f(…)` produces EdgeDefer, everything else EdgeCall.
//
// Node and edge order is deterministic: packages in load order, files
// and declarations in source order, dynamic candidates in node order —
// so diagnostics and golden tests are stable across runs.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// EdgeKind classifies how control reaches a callee.
type EdgeKind uint8

const (
	// EdgeCall is an ordinary synchronous call.
	EdgeCall EdgeKind = iota
	// EdgeGo marks a goroutine spawn: a `go` statement or a
	// time.AfterFunc callback. The callee runs concurrently with the
	// caller and inherits none of its locks.
	EdgeGo
	// EdgeDefer marks a deferred call; it runs in the caller's goroutine
	// at function exit.
	EdgeDefer
)

func (k EdgeKind) String() string {
	switch k {
	case EdgeGo:
		return "go"
	case EdgeDefer:
		return "defer"
	}
	return "call"
}

// A CallEdge connects a caller to one possible callee at one site.
type CallEdge struct {
	Caller *FuncNode
	Callee *FuncNode
	// Site is the call expression (for AfterFunc callbacks, the
	// AfterFunc call itself).
	Site *ast.CallExpr
	Pos  token.Pos
	Kind EdgeKind
	// Dynamic marks edges resolved by hierarchy or signature matching
	// rather than a direct use of the callee.
	Dynamic bool
}

// A FuncNode is one function body in the program: a declaration or a
// function literal.
type FuncNode struct {
	// Name is the display name: pkg.Func, pkg.(*T).M, or encloser$N for
	// literals.
	Name string
	Pkg  *Package
	// Obj is the declared function object; nil for literals.
	Obj  *types.Func
	Decl *ast.FuncDecl // nil for literals
	Lit  *ast.FuncLit  // nil for declarations
	// Parent is the enclosing node for literals (nil for declarations
	// and package-level literals).
	Parent *FuncNode
	Body   *ast.BlockStmt
	Out    []*CallEdge
	In     []*CallEdge
}

// EnclosingDecl walks Parent links up to the declared function a
// literal lives in; for declaration nodes it returns the node itself.
func (n *FuncNode) EnclosingDecl() *FuncNode {
	for n != nil && n.Decl == nil {
		n = n.Parent
	}
	return n
}

// A CallGraph is the program's call structure.
type CallGraph struct {
	Nodes []*FuncNode
	byObj map[*types.Func]*FuncNode
	byLit map[*ast.FuncLit]*FuncNode
}

// NodeOf returns the node for a declared function object, or nil.
func (g *CallGraph) NodeOf(obj *types.Func) *FuncNode { return g.byObj[obj] }

// NodeOfLit returns the node for a function literal, or nil.
func (g *CallGraph) NodeOfLit(lit *ast.FuncLit) *FuncNode { return g.byLit[lit] }

// String renders the graph for golden tests: one line per edge,
// "caller -> callee [kind]" with dynamic edges marked.
func (g *CallGraph) String() string {
	var sb strings.Builder
	for _, n := range g.Nodes {
		for _, e := range n.Out {
			fmt.Fprintf(&sb, "%s -> %s [%s]", e.Caller.Name, e.Callee.Name, e.Kind)
			if e.Dynamic {
				sb.WriteString(" dyn")
			}
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// A Program is the whole-program view shared by every pass of one
// driver run: all loaded packages, the call graph over them, and the
// caches whole-program analyzers memoize their results in.
type Program struct {
	Fset     *token.FileSet
	Packages []*Package
	Graph    *CallGraph

	// lanelint's whole-program diagnostics, computed on first use (see
	// lanelint.go).
	laneDiags []progDiag
	laneDone  bool

	// loopEffects caches per-function Loop-effect summaries (see
	// effects.go).
	loopEffects map[*FuncNode]*loopEffects
	// fieldFuncs indexes the functions stored in each struct field; built
	// on first use (see fieldFuncsOf).
	fieldFuncs map[*types.Var][]*FuncNode
}

// progDiag is a whole-program diagnostic tagged with the package it
// belongs to, so per-package passes can emit exactly their share.
type progDiag struct {
	pkgPath string
	d       Diagnostic
}

// NewProgram builds the shared program view (including the call graph)
// over the given packages.
func NewProgram(fset *token.FileSet, pkgs []*Package) *Program {
	p := &Program{
		Fset:        fset,
		Packages:    pkgs,
		loopEffects: make(map[*FuncNode]*loopEffects),
	}
	p.Graph = buildCallGraph(p)
	return p
}

// dynamicSite is a call through a function value, resolved after every
// node's address-taken status is known.
type dynamicSite struct {
	caller *FuncNode
	call   *ast.CallExpr
	kind   EdgeKind
	sig    *types.Signature
}

type cgBuilder struct {
	prog *Program
	g    *CallGraph
	// addrTaken marks nodes whose function value escapes into a variable,
	// field, argument, or method value — the candidate set for calls
	// through function values.
	addrTaken map[*FuncNode]bool
	dynamics  []dynamicSite
	// namedTypes lists every named type declared in the program, in
	// deterministic order, for class hierarchy analysis.
	namedTypes []*types.Named
}

func buildCallGraph(prog *Program) *CallGraph {
	b := &cgBuilder{
		prog: prog,
		g: &CallGraph{
			byObj: make(map[*types.Func]*FuncNode),
			byLit: make(map[*ast.FuncLit]*FuncNode),
		},
		addrTaken: make(map[*FuncNode]bool),
	}
	for _, pkg := range prog.Packages {
		b.collectNamedTypes(pkg)
	}
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Body == nil {
						continue
					}
					obj, _ := pkg.TypesInfo.Defs[d.Name].(*types.Func)
					node := &FuncNode{
						Name: declDisplayName(pkg, d, obj),
						Pkg:  pkg,
						Obj:  obj,
						Decl: d,
						Body: d.Body,
					}
					b.addNode(node)
					if obj != nil {
						b.g.byObj[obj] = node
					}
					b.collectLits(pkg, node, d.Body)
				case *ast.GenDecl:
					// Package-level `var f = func(...) {...}` initializers.
					for _, spec := range d.Specs {
						vs, ok := spec.(*ast.ValueSpec)
						if !ok {
							continue
						}
						for _, v := range vs.Values {
							b.collectTopLits(pkg, v)
						}
					}
				}
			}
		}
	}
	for _, n := range b.g.Nodes {
		b.collectEdges(n)
	}
	b.resolveDynamics()
	return b.g
}

func (b *cgBuilder) addNode(n *FuncNode) { b.g.Nodes = append(b.g.Nodes, n) }

// collectLits creates nodes for every function literal inside body,
// numbering them per enclosing node in source order. The walk is
// shallow per level: each literal's own children hang off it.
func (b *cgBuilder) collectLits(pkg *Package, parent *FuncNode, body ast.Node) {
	count := 0
	ast.Inspect(body, func(n ast.Node) bool {
		if n == body {
			return true
		}
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		count++
		node := &FuncNode{
			Name:   fmt.Sprintf("%s$%d", parent.Name, count),
			Pkg:    pkg,
			Lit:    lit,
			Parent: parent,
			Body:   lit.Body,
		}
		b.addNode(node)
		b.g.byLit[lit] = node
		b.collectLits(pkg, node, lit.Body)
		return false
	})
}

// collectTopLits handles literals in package-level initializer
// expressions; they have no enclosing function node.
func (b *cgBuilder) collectTopLits(pkg *Package, expr ast.Expr) {
	count := 0
	ast.Inspect(expr, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		count++
		node := &FuncNode{
			Name: fmt.Sprintf("%s.init$%d", pkg.Types.Name(), count),
			Pkg:  pkg,
			Lit:  lit,
			Body: lit.Body,
		}
		b.addNode(node)
		b.g.byLit[lit] = node
		b.collectLits(pkg, node, lit.Body)
		return false
	})
}

func (b *cgBuilder) collectNamedTypes(pkg *Package) {
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() { // Names() is sorted
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		if named, ok := tn.Type().(*types.Named); ok {
			b.namedTypes = append(b.namedTypes, named)
		}
	}
}

// collectEdges walks one node's body (shallow: nested literals own
// their calls) recording static edges, dynamic call sites, and
// address-taken marks.
func (b *cgBuilder) collectEdges(caller *FuncNode) {
	info := caller.Pkg.TypesInfo

	// Pass 1: which idents are in call position, which literals are
	// consumed directly (invoked, spawned, deferred, or handed to
	// AfterFunc) rather than escaping as values.
	callFunIdents := make(map[*ast.Ident]bool)
	directLits := make(map[*ast.FuncLit]bool)
	b.shallowWalk(caller.Body, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			callFunIdents[fun] = true
		case *ast.SelectorExpr:
			callFunIdents[fun.Sel] = true
		case *ast.FuncLit:
			directLits[fun] = true
		}
		if cb := afterFuncCallback(info, call); cb != nil {
			if lit, ok := ast.Unparen(cb).(*ast.FuncLit); ok {
				directLits[lit] = true
			}
		}
	})

	// Pass 2: address-taken marks — any use of a program function or
	// method outside call position, and any literal that escapes.
	b.shallowWalk(caller.Body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.Ident:
			if callFunIdents[n] {
				return
			}
			if fn, ok := info.Uses[n].(*types.Func); ok {
				if node := b.g.byObj[fn]; node != nil {
					b.addrTaken[node] = true
				}
			}
		case *ast.FuncLit:
			if !directLits[n] {
				if node := b.g.byLit[n]; node != nil {
					b.addrTaken[node] = true
				}
			}
		}
	})

	// Pass 3: edges. Go/defer statements claim their call expression;
	// every other call expression is a plain call edge.
	claimed := make(map[*ast.CallExpr]EdgeKind)
	b.shallowWalk(caller.Body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.GoStmt:
			claimed[n.Call] = EdgeGo
		case *ast.DeferStmt:
			claimed[n.Call] = EdgeDefer
		}
	})
	b.shallowWalk(caller.Body, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		kind := EdgeCall
		if k, ok := claimed[call]; ok {
			kind = k
		}
		b.resolveCall(caller, call, kind)
		if cb := afterFuncCallback(info, call); cb != nil {
			b.resolveValue(caller, call, cb, EdgeGo)
		}
	})
}

// shallowWalk visits every node in body without descending into nested
// function literals (their bodies belong to their own nodes).
func (b *cgBuilder) shallowWalk(body ast.Node, visit func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && n != body {
			visit(lit)   // the literal expression itself is visible …
			return false // … but its body is not
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}

// afterFuncCallback returns the callback argument of a
// time.AfterFunc(d, f) call, or nil. AfterFunc runs f on a fresh
// goroutine, so the edge is a spawn.
func afterFuncCallback(info *types.Info, call *ast.CallExpr) ast.Expr {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || len(call.Args) != 2 {
		return nil
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" || fn.Name() != "AfterFunc" {
		return nil
	}
	return call.Args[1]
}

// resolveCall creates edges for one call expression.
func (b *cgBuilder) resolveCall(caller *FuncNode, call *ast.CallExpr, kind EdgeKind) {
	info := caller.Pkg.TypesInfo
	fun := ast.Unparen(call.Fun)

	if lit, ok := fun.(*ast.FuncLit); ok {
		if callee := b.g.byLit[lit]; callee != nil {
			b.addEdge(caller, callee, call, kind, false)
		}
		return
	}
	// Conversions are not calls.
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		return
	}

	var obj types.Object
	switch fun := fun.(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	}

	switch obj := obj.(type) {
	case *types.Builtin:
		return
	case *types.Func:
		sig, _ := obj.Type().(*types.Signature)
		if sig != nil && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
			b.resolveInterfaceCall(caller, call, obj, kind)
			return
		}
		if callee := b.g.byObj[obj]; callee != nil {
			b.addEdge(caller, callee, call, kind, false)
		}
		return
	}
	// A call through a function value (variable, field, parameter,
	// result of another call): record for signature matching.
	tv, ok := info.Types[fun]
	if !ok || tv.Type == nil {
		return
	}
	if sig, ok := tv.Type.Underlying().(*types.Signature); ok {
		b.dynamics = append(b.dynamics, dynamicSite{caller: caller, call: call, kind: kind, sig: sig})
	}
}

// resolveValue resolves a function-valued expression (an AfterFunc
// callback) to edges: directly for literals and named functions,
// by signature for anything else.
func (b *cgBuilder) resolveValue(caller *FuncNode, site *ast.CallExpr, expr ast.Expr, kind EdgeKind) {
	info := caller.Pkg.TypesInfo
	expr = ast.Unparen(expr)
	if lit, ok := expr.(*ast.FuncLit); ok {
		if callee := b.g.byLit[lit]; callee != nil {
			b.addEdge(caller, callee, site, kind, false)
		}
		return
	}
	var obj types.Object
	switch e := expr.(type) {
	case *ast.Ident:
		obj = info.Uses[e]
	case *ast.SelectorExpr:
		obj = info.Uses[e.Sel]
	}
	if fn, ok := obj.(*types.Func); ok {
		if callee := b.g.byObj[fn]; callee != nil {
			b.addEdge(caller, callee, site, kind, false)
		}
		return
	}
	tv, ok := info.Types[expr]
	if !ok || tv.Type == nil {
		return
	}
	if sig, ok := tv.Type.Underlying().(*types.Signature); ok {
		b.dynamics = append(b.dynamics, dynamicSite{caller: caller, call: site, kind: kind, sig: sig})
	}
}

// resolveInterfaceCall applies class hierarchy analysis: edges to every
// program-declared concrete method whose receiver implements the
// interface the call goes through.
func (b *cgBuilder) resolveInterfaceCall(caller *FuncNode, call *ast.CallExpr, m *types.Func, kind EdgeKind) {
	iface, ok := m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
	if !ok {
		return
	}
	for _, named := range b.namedTypes {
		if types.IsInterface(named) {
			continue
		}
		if !types.Implements(named, iface) && !types.Implements(types.NewPointer(named), iface) {
			continue
		}
		sel := types.NewMethodSet(types.NewPointer(named)).Lookup(m.Pkg(), m.Name())
		if sel == nil {
			continue
		}
		fn, ok := sel.Obj().(*types.Func)
		if !ok {
			continue
		}
		if callee := b.g.byObj[fn]; callee != nil {
			b.addEdge(caller, callee, call, kind, true)
		}
	}
}

// resolveDynamics matches each function-value call site against every
// address-taken node with an identical value signature.
func (b *cgBuilder) resolveDynamics() {
	for _, site := range b.dynamics {
		for _, cand := range b.g.Nodes {
			if !b.addrTaken[cand] {
				continue
			}
			if sig := b.valueSig(cand); sig != nil && types.Identical(sig, site.sig) {
				b.addEdge(site.caller, cand, site.call, site.kind, true)
			}
		}
	}
}

// valueSig is the signature a node presents when used as a value: a
// method's receiver is stripped (method values bind it).
func (b *cgBuilder) valueSig(n *FuncNode) *types.Signature {
	if n.Lit != nil {
		tv, ok := n.Pkg.TypesInfo.Types[n.Lit]
		if !ok || tv.Type == nil {
			return nil
		}
		sig, _ := tv.Type.Underlying().(*types.Signature)
		return sig
	}
	if n.Obj == nil {
		return nil
	}
	sig, ok := n.Obj.Type().(*types.Signature)
	if !ok {
		return nil
	}
	if sig.Recv() != nil {
		return types.NewSignatureType(nil, nil, nil, sig.Params(), sig.Results(), sig.Variadic())
	}
	return sig
}

func (b *cgBuilder) addEdge(caller, callee *FuncNode, site *ast.CallExpr, kind EdgeKind, dynamic bool) {
	for _, e := range caller.Out {
		if e.Callee == callee && e.Site == site && e.Kind == kind {
			return
		}
	}
	e := &CallEdge{Caller: caller, Callee: callee, Site: site, Pos: site.Pos(), Kind: kind, Dynamic: dynamic}
	caller.Out = append(caller.Out, e)
	callee.In = append(callee.In, e)
}

// declDisplayName renders pkg.Func or pkg.(*T).M / pkg.T.M.
func declDisplayName(pkg *Package, fd *ast.FuncDecl, obj *types.Func) string {
	pkgName := pkg.Types.Name()
	if fd.Recv == nil || obj == nil {
		return pkgName + "." + fd.Name.Name
	}
	recv := obj.Type().(*types.Signature).Recv()
	rt := recv.Type()
	star := ""
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
		star = "*"
	}
	tname := "?"
	if named, ok := rt.(*types.Named); ok {
		tname = named.Obj().Name()
	}
	if star == "" {
		return fmt.Sprintf("%s.%s.%s", pkgName, tname, fd.Name.Name)
	}
	return fmt.Sprintf("%s.(%s%s).%s", pkgName, star, tname, fd.Name.Name)
}

// sortedProgDiags orders whole-program diagnostics by position so the
// per-package emission is stable.
func (p *Program) sortedProgDiags(diags []progDiag) []progDiag {
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := p.Fset.Position(diags[i].d.Pos), p.Fset.Position(diags[j].d.Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Column < pj.Column
	})
	return diags
}
