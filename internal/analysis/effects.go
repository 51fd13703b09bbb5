package analysis

// effects.go — call-graph effect analysis over the sim.Loop scheduling
// surface. Every function node gets a memoized summary of the Loop
// operations its own body may perform (global Schedule/Every/Now/Rand,
// parked-only ScheduleOn/EveryOn, lane-addressed NowOf/RandOf, and
// ScheduleCross) together with the provenance of each lane argument:
// a compile-time constant (folded by the type checker), a specific
// variable object, or opaque.
// lanelint substitutes these summaries along the call graph from every
// scheduled event to decide which operations a lane event may reach and
// whether the lane ids it passes are the executing lane's.

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strconv"
)

// simPkgPath is the package owning the Loop interface and its
// implementations. Fixtures opt in by being checked under this path.
const simPkgPath = "rbcast/internal/sim"

// loopOpNames are the Loop methods the effect analysis tracks.
var loopOpNames = map[string]bool{
	"Schedule": true, "Every": true, "Now": true, "Rand": true,
	"ScheduleOn": true, "EveryOn": true, "NowOf": true, "RandOf": true,
	"ScheduleCross": true,
}

// loopCallbackArg maps a scheduling op to the index of its event
// callback argument.
var loopCallbackArg = map[string]int{
	"Schedule": 1, "Every": 1, "ScheduleOn": 2, "EveryOn": 2, "ScheduleCross": 3,
}

// loopLaneArg maps a lane-addressed op to the index of the lane
// argument that names the *executing* lane (for ScheduleCross this is
// `from`; the event itself lands on `to`, argument 1).
var loopLaneArg = map[string]int{
	"ScheduleOn": 0, "EveryOn": 0, "NowOf": 0, "RandOf": 0, "ScheduleCross": 0,
}

// loopCallName reports the Loop-operation name of a call: a selector
// call of one of the tracked method names whose method is declared in
// the sim package (on the Loop interface or a concrete engine).
func loopCallName(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !loopOpNames[sel.Sel.Name] {
		return "", false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != simPkgPath {
		return "", false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return "", false
	}
	return sel.Sel.Name, true
}

// laneRefKind classifies what the effect analysis knows about a lane
// argument.
type laneRefKind uint8

const (
	// laneRefOpaque: nothing provable — lanelint stays silent.
	laneRefOpaque laneRefKind = iota
	// laneRefConst: a compile-time constant.
	laneRefConst
	// laneRefObject: the value of one specific variable (a parameter or
	// a captured local, compared by types.Object identity).
	laneRefObject
)

// laneRef is the provenance of one lane argument.
type laneRef struct {
	kind laneRefKind
	c    int64
	obj  types.Object
}

func (r laneRef) known() bool { return r.kind != laneRefOpaque }

// differs reports a *provable* mismatch: two different constants, or
// two different variables. A constant versus a variable is not provable
// (the variable may hold that constant) and stays silent.
func (r laneRef) differs(o laneRef) bool {
	if !r.known() || !o.known() || r.kind != o.kind {
		return false
	}
	if r.kind == laneRefConst {
		return r.c != o.c
	}
	return r.obj != o.obj
}

// describe renders the reference for diagnostics.
func (r laneRef) describe() string {
	switch r.kind {
	case laneRefConst:
		return "lane " + strconv.FormatInt(r.c, 10)
	case laneRefObject:
		return "lane variable " + r.obj.Name()
	}
	return "an unknown lane"
}

// loopOpSite is one Loop operation in one function body.
type loopOpSite struct {
	call *ast.CallExpr
	name string
	// lane is the executing-lane argument's provenance for lane-addressed
	// ops (ScheduleOn/EveryOn/NowOf/RandOf and ScheduleCross's `from`);
	// the zero laneRef for global ops.
	lane laneRef
}

// loopEffects is one function's Loop-operation summary (own body only;
// lanelint composes summaries along call edges).
type loopEffects struct {
	sites []loopOpSite
}

// EffectsOf computes (and memoizes) the Loop-effect summary of one
// function node. The walk is shallow: a nested literal's operations
// belong to the literal's own node.
func (p *Program) EffectsOf(n *FuncNode) *loopEffects {
	if eff, ok := p.loopEffects[n]; ok {
		return eff
	}
	eff := &loopEffects{}
	p.loopEffects[n] = eff
	info := n.Pkg.TypesInfo
	walkShallow(n.Body, func(node ast.Node) {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return
		}
		name, ok := loopCallName(info, call)
		if !ok {
			return
		}
		site := loopOpSite{call: call, name: name}
		if idx, ok := loopLaneArg[name]; ok && idx < len(call.Args) {
			site.lane = p.resolveLaneRef(n, call.Args[idx])
		}
		eff.sites = append(eff.sites, site)
	})
	return eff
}

// resolveLaneRef determines what is known about a lane argument
// expression: a typed constant, a specific variable, or opaque.
func (p *Program) resolveLaneRef(n *FuncNode, e ast.Expr) laneRef {
	info := n.Pkg.TypesInfo
	if c, ok := constIntOf(info, e); ok {
		return laneRef{kind: laneRefConst, c: c}
	}
	if ident, ok := ast.Unparen(e).(*ast.Ident); ok {
		if v, ok := info.Uses[ident].(*types.Var); ok {
			return laneRef{kind: laneRefObject, obj: v}
		}
	}
	return laneRef{}
}

// constIntOf returns e's value when the type checker folded it to an
// integer constant that fits int64.
func constIntOf(info *types.Info, e ast.Expr) (int64, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return 0, false
	}
	return constant.Int64Val(tv.Value)
}

// isIntType reports whether t is an integer type (signed or unsigned).
func isIntType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// walkShallow visits every node in body without descending into nested
// function literals (their bodies belong to their own nodes). The
// literal expression itself is visited.
func walkShallow(body ast.Node, visit func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && n != body {
			visit(lit)
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}

// resolveEventFuncs resolves a scheduled callback expression to the
// function nodes it may run: a literal, a named function, a method
// value, or — for a struct field such as a pooled record's pre-bound
// `f.run` — every function the program statically stores in that field
// (see fieldFuncsOf). Other opaque values (parameters, locals) return
// nil — their bodies are still reached through the call graph's dynamic
// edges.
func (p *Program) resolveEventFuncs(n *FuncNode, e ast.Expr) []*FuncNode {
	info := n.Pkg.TypesInfo
	if fn := p.staticFuncNode(info, e); fn != nil {
		return []*FuncNode{fn}
	}
	if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
		if v, ok := info.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
			return p.fieldFuncsOf(v)
		}
	}
	return nil
}

// staticFuncNode resolves an expression that names one function
// directly: a literal, a named function, or a method value.
func (p *Program) staticFuncNode(info *types.Info, e ast.Expr) *FuncNode {
	e = ast.Unparen(e)
	if lit, ok := e.(*ast.FuncLit); ok {
		return p.Graph.NodeOfLit(lit)
	}
	var obj types.Object
	switch e := e.(type) {
	case *ast.Ident:
		obj = info.Uses[e]
	case *ast.SelectorExpr:
		obj = info.Uses[e.Sel]
	}
	if fn, ok := obj.(*types.Func); ok {
		return p.Graph.NodeOf(fn)
	}
	return nil
}

// fieldFuncsOf returns the functions stored in a struct field anywhere
// in the program, by assignment (`f.run = f.step`) or keyed composite
// literal (`flight{run: step}`), in source order. The index is
// flow-insensitive on purpose: an event passed as a field may be any
// function ever bound to that field.
func (p *Program) fieldFuncsOf(field *types.Var) []*FuncNode {
	if p.fieldFuncs == nil {
		p.fieldFuncs = make(map[*types.Var][]*FuncNode)
		for _, pkg := range p.Packages {
			info := pkg.TypesInfo
			bind := func(lhs *ast.Ident, rhs ast.Expr) {
				v, ok := info.Uses[lhs].(*types.Var)
				if !ok || !v.IsField() {
					return
				}
				if fn := p.staticFuncNode(info, rhs); fn != nil {
					p.fieldFuncs[v] = append(p.fieldFuncs[v], fn)
				}
			}
			for _, file := range pkg.Files {
				ast.Inspect(file, func(node ast.Node) bool {
					switch node := node.(type) {
					case *ast.AssignStmt:
						if len(node.Lhs) != len(node.Rhs) {
							break
						}
						for i, lhs := range node.Lhs {
							if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
								bind(sel.Sel, node.Rhs[i])
							}
						}
					case *ast.KeyValueExpr:
						if key, ok := node.Key.(*ast.Ident); ok {
							bind(key, node.Value)
						}
					}
					return true
				})
			}
		}
	}
	return p.fieldFuncs[field]
}

// isLoopImplMethod reports whether n lives inside a method of a Loop
// implementation: a type declared in the sim package whose method set
// has both ScheduleOn and ScheduleCross. The engines' own method bodies
// collapse lane calls onto internal queues (Engine.ScheduleOn calls
// Engine.Schedule); they are the mechanism the discipline governs, not
// subjects of it, so lanelint neither reports their sites nor traverses
// into them.
func isLoopImplMethod(n *FuncNode) bool {
	d := n.EnclosingDecl()
	if d == nil || d.Decl == nil || d.Decl.Recv == nil || d.Obj == nil {
		return false
	}
	sig, _ := d.Obj.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != simPkgPath {
		return false
	}
	ms := types.NewMethodSet(types.NewPointer(named))
	return ms.Lookup(named.Obj().Pkg(), "ScheduleOn") != nil &&
		ms.Lookup(named.Obj().Pkg(), "ScheduleCross") != nil
}
