package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
)

// LanePackages are the packages whose code runs inside (or schedules)
// simulation events and therefore owes the sharded engine its lane
// discipline.
var LanePackages = []string{
	"rbcast/internal/sim",
	"rbcast/internal/netsim",
	"rbcast/internal/harness",
	"rbcast/internal/soak",
}

// LaneLint verifies the sharded engine's determinism discipline
// statically — the contract DESIGN.md §"Lane discipline" pins in prose
// and sim.Sharded enforces with runtime panics only on paths a test
// happens to execute. Code reachable (via call/defer edges, composing
// the effect summaries of effects.go) from an event scheduled onto a
// lane must not call the global Schedule/Every/Now/Rand — those address
// the coordinator context — and must not call the parked-only
// ScheduleOn/EveryOn; the only scheduling call legal inside a lane
// event is ScheduleCross. Lane-addressed reads and crossings must name
// the *executing* lane: a provable mismatch (a different constant, a
// different variable) between an op's lane argument and the lane the
// event was scheduled onto is reported, tracked through closures and
// static call edges by the effect domain's provenance. Finally, no
// scheduling call may sit inside a map iteration: insertion order into
// an event queue is observable, so map-ordered fan-out breaks replay
// even on one lane.
//
// Known limits, on purpose: reachability follows the call graph's
// static and dynamic edges but skips bare `func()` values called
// dynamically (that shape is the engines' own event dispatch, and
// following it would conflate every scheduled event with every other);
// an event passed as a struct field (netsim's pooled `f.run`) is
// resolved to every function the program stores in that field, while
// one passed as a parameter or local stays opaque;
// lane provenance that becomes opaque — a lane id reloaded from a
// struct field, or flowing through a dynamically dispatched call — is
// not reported. The runtime checkParked panic in sim.Sharded remains
// the dynamic backstop for what the static domain cannot see.
var LaneLint = &Analyzer{
	Name: "lanelint",
	Doc: "code reachable from a lane event must not call global or parked-only " +
		"Loop operations and must address only the executing lane " +
		"(sim, netsim, harness, soak)",
	Run: runLaneLint,
}

func runLaneLint(pass *Pass) error {
	if pass.Prog == nil {
		return nil
	}
	pass.Prog.ensureLaneDiags()
	for _, pd := range pass.Prog.laneDiags {
		if pd.pkgPath == pass.Pkg.Path() {
			pass.Report(pd.d)
		}
	}
	return nil
}

func (p *Program) ensureLaneDiags() {
	if p.laneDone {
		return
	}
	p.laneDone = true
	p.laneDiags = p.sortedProgDiags(computeLaneDiags(p))
}

// laneRoot is one event scheduled onto a lane: the function node that
// will run as the event and what is known about the destination lane.
type laneRoot struct {
	event *FuncNode
	lane  laneRef
	site  *ast.CallExpr // the scheduling call, for diagnostics
	node  *FuncNode     // the scheduling function
}

func computeLaneDiags(p *Program) []progDiag {
	var out []progDiag
	// reported dedupes per (site, rule) across roots: one witness root
	// is enough, and the first (deterministic node order) is kept.
	reported := make(map[token.Pos]map[string]bool)

	var roots []laneRoot
	for _, n := range p.Graph.Nodes {
		if !pkgInScope(n.Pkg.Path, LanePackages) || isLoopImplMethod(n) {
			continue
		}
		checkMapFanout(p, n, reported, &out)
		for _, site := range p.EffectsOf(n).sites {
			idx, ok := loopCallbackArg[site.name]
			if !ok || idx >= len(site.call.Args) {
				continue
			}
			var lane laneRef
			switch site.name {
			case "ScheduleOn", "EveryOn":
				lane = site.lane
			case "ScheduleCross":
				// The event lands on the `to` lane (argument 1).
				lane = p.resolveLaneRef(n, site.call.Args[1])
			default:
				continue // Schedule/Every open the permissive global context
			}
			event := site.call.Args[idx]
			if _, inline := ast.Unparen(event).(*ast.FuncLit); !inline && lane.kind == laneRefObject {
				// A lane variable of the scheduling function is not in
				// scope in an event declared elsewhere; only a literal
				// written at the site shares it.
				lane = laneRef{}
			}
			for _, ev := range p.resolveEventFuncs(n, event) {
				roots = append(roots, laneRoot{event: ev, lane: lane, site: site.call, node: n})
			}
		}
	}
	for _, r := range roots {
		laneBFS(p, r, reported, &out)
	}
	return out
}

// laneState is one BFS configuration: a reachable function plus what is
// known there about the executing lane (provenance is rebound at every
// static call edge; dynamic dispatch forgets object bindings).
type laneState struct {
	node *FuncNode
	bind laneRef
}

func bindKey(r laneRef) string {
	switch r.kind {
	case laneRefConst:
		return fmt.Sprintf("c%d", r.c)
	case laneRefObject:
		return fmt.Sprintf("o%p", r.obj)
	}
	return "?"
}

// laneBFS walks everything reachable from one lane event, reporting
// Loop operations illegal in (or addressed wrongly from) lane context.
func laneBFS(p *Program, root laneRoot, reported map[token.Pos]map[string]bool, out *[]progDiag) {
	type seenKey struct {
		node *FuncNode
		bind string
	}
	seen := make(map[seenKey]bool)
	stack := []laneState{{node: root.event, bind: root.lane}}
	for len(stack) > 0 {
		st := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		k := seenKey{st.node, bindKey(st.bind)}
		if st.node == nil || seen[k] {
			continue
		}
		seen[k] = true
		if isLoopImplMethod(st.node) {
			continue
		}
		if pkgInScope(st.node.Pkg.Path, LanePackages) {
			checkLaneSites(p, root, st, reported, out)
		}
		for _, e := range st.node.Out {
			if e.Kind == EdgeGo || isThunkDispatch(e) {
				continue
			}
			stack = append(stack, laneState{node: e.Callee, bind: propagateBind(p, e, st.bind)})
		}
	}
}

// checkLaneSites applies the lane-context rules to one reachable
// function's effect summary.
func checkLaneSites(p *Program, root laneRoot, st laneState, reported map[token.Pos]map[string]bool, out *[]progDiag) {
	for _, site := range p.EffectsOf(st.node).sites {
		switch site.name {
		case "Schedule", "Every", "Now", "Rand":
			report(p, st.node, site.call.Pos(), "global", reported, out,
				"sim.Loop.%s addresses the global coordinator context but is reachable from a lane event (scheduled at %s); "+
					"lane events must use the lane-addressed variant with the executing lane, or ScheduleCross — see DESIGN.md \"Lane discipline\"",
				site.name, shortPos(p.Fset, root.site.Pos()))
		case "ScheduleOn", "EveryOn":
			report(p, st.node, site.call.Pos(), "parked", reported, out,
				"sim.Loop.%s may only be called with lanes parked but is reachable from a lane event (scheduled at %s); "+
					"schedule from inside a lane event via ScheduleCross — see DESIGN.md \"Lane discipline\"",
				site.name, shortPos(p.Fset, root.site.Pos()))
		case "NowOf", "RandOf", "ScheduleCross":
			if site.lane.differs(st.bind) {
				report(p, st.node, site.call.Pos(), "mismatch", reported, out,
					"sim.Loop.%s addresses %s but the executing lane of this event is %s (scheduled at %s); "+
						"lane events may only address their own lane — see DESIGN.md \"Lane discipline\"",
					site.name, site.lane.describe(), st.bind.describe(), shortPos(p.Fset, root.site.Pos()))
			}
		}
	}
}

// propagateBind rebinds the executing-lane provenance across one call
// edge: constants are context-free, closures share their captured
// objects, and a static call whose argument is the bound object rebinds
// to the matching parameter. Everything else (dynamic dispatch, the
// lane id disappearing into a field) becomes opaque.
func propagateBind(p *Program, e *CallEdge, bind laneRef) laneRef {
	if bind.kind == laneRefConst {
		return bind
	}
	if bind.kind != laneRefObject || e.Dynamic {
		return laneRef{}
	}
	if e.Callee.Lit != nil {
		return bind
	}
	if e.Callee.Decl != nil {
		params := funcParamObjs(e.Callee.Pkg.TypesInfo, e.Callee.Decl)
		args := callArgExprs(e.Site, e.Callee.Decl)
		for i, param := range params {
			if param == nil || i >= len(args) || args[i] == nil || !isIntType(param.Type()) {
				continue
			}
			ref := p.resolveLaneRef(e.Caller, args[i])
			if ref.kind == laneRefObject && ref.obj == bind.obj {
				return laneRef{kind: laneRefObject, obj: param}
			}
		}
	}
	return laneRef{}
}

// isThunkDispatch reports a dynamic call of a bare `func()` value — the
// engines' own event dispatch shape. Following those edges would make
// every scheduled event reachable from every other (any code calling
// any func() value fans out to all of them), so the lane walk treats
// the event queue boundary the way it treats go statements.
func isThunkDispatch(e *CallEdge) bool {
	if !e.Dynamic || e.Site == nil {
		return false
	}
	tv, ok := e.Caller.Pkg.TypesInfo.Types[ast.Unparen(e.Site.Fun)]
	if !ok || tv.Type == nil {
		return false
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	return ok && sig.Params().Len() == 0 && sig.Results().Len() == 0
}

// checkMapFanout reports scheduling calls lexically inside a map
// iteration: the order events enter a queue is observable in the trace,
// so map-ordered fan-out breaks seeded replay wherever it happens —
// lane event or not.
func checkMapFanout(p *Program, n *FuncNode, reported map[token.Pos]map[string]bool, out *[]progDiag) {
	info := n.Pkg.TypesInfo
	walkShallow(n.Body, func(node ast.Node) {
		rng, ok := node.(*ast.RangeStmt)
		if !ok {
			return
		}
		tv, ok := info.Types[rng.X]
		if !ok || tv.Type == nil {
			return
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return
		}
		walkShallow(rng.Body, func(inner ast.Node) {
			call, ok := inner.(*ast.CallExpr)
			if !ok {
				return
			}
			name, ok := loopCallName(info, call)
			if !ok {
				return
			}
			if _, schedules := loopCallbackArg[name]; !schedules {
				return
			}
			report(p, n, call.Pos(), "mapfanout", reported, out,
				"sim.Loop.%s inside a map iteration: event insertion order would follow map "+
					"iteration order and break seeded replay; iterate a sorted copy of the keys — "+
					"see DESIGN.md \"Lane discipline\"", name)
		})
	})
}

func report(p *Program, n *FuncNode, pos token.Pos, rule string, reported map[token.Pos]map[string]bool, out *[]progDiag, format string, args ...any) {
	if reported[pos] == nil {
		reported[pos] = make(map[string]bool)
	}
	if reported[pos][rule] {
		return
	}
	reported[pos][rule] = true
	*out = append(*out, progDiag{
		pkgPath: n.Pkg.Path,
		d: Diagnostic{
			Analyzer: "lanelint",
			Pos:      pos,
			Message:  fmt.Sprintf(format, args...),
		},
	})
}

// shortPos renders pos as file:line for messages.
func shortPos(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}
