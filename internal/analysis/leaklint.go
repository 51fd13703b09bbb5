package analysis

import (
	"go/ast"
	"go/types"
)

// LeakPackages are the packages that own real goroutines and timers: the
// discrete-event engine, the real-time host driver, the live loopback
// fleet, the UDP runtime, and the soak sweep. (Pure state-machine
// packages never spawn.)
var LeakPackages = []string{
	"rbcast/internal/sim",
	"rbcast/internal/node",
	"rbcast/internal/live",
	"rbcast/internal/udp",
	"rbcast/internal/soak",
}

// LeakLint verifies, on the CFG, that concurrency resources acquired in
// LeakPackages can actually be released:
//
//   - a time.NewTicker / time.NewTimer result must reach a Stop() on
//     every path to the function's normal exit (a deferred Stop covers
//     all of them; a value that escapes — stored, passed, returned — is
//     someone else's responsibility);
//   - a goroutine body must have a reachable exit path: an infinite loop
//     with no return, break, or terminating select case can never be
//     shut down, which strands fleet teardown and leaks under soak;
//   - time.Tick is flagged outright — its ticker can never be stopped.
//
// Panic paths are exempt: the builder gives panic no normal-exit edge,
// so a leak that only happens while the process is dying is not charged.
// time.AfterFunc is deliberately out of scope: its timer self-releases
// after firing, and the transport uses it for fire-and-forget delivery.
var LeakLint = &Analyzer{
	Name: "leaklint",
	Doc: "tickers/timers must be stopped on every exit path and goroutines " +
		"must have a reachable stop in sim, live, udp, soak",
	Run: runLeakLint,
}

func runLeakLint(pass *Pass) error {
	if !pkgInScope(pass.Pkg.Path(), LeakPackages) || pass.Prog == nil {
		return nil
	}
	lc := &leakChecker{pass: pass}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				lc.checkFuncBody(fd.Body)
			}
		}
	}
	return nil
}

type leakChecker struct {
	pass *Pass
}

// checkFuncBody analyzes one function body and, recursively, every
// function literal inside it (each literal is its own CFG: a goroutine
// body owning a ticker is checked like any function).
func (lc *leakChecker) checkFuncBody(body *ast.BlockStmt) {
	cfg := buildCFG("", body)
	lc.checkTimers(body, cfg)
	for _, blk := range cfg.Blocks {
		for _, n := range blk.Nodes {
			lc.checkNode(n)
		}
	}
	// Recurse into literals (they are opaque to the outer CFG).
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			lc.checkFuncBody(lit.Body)
			return false
		}
		return true
	})
}

func (lc *leakChecker) checkNode(n ast.Node) {
	if rng, ok := n.(*ast.RangeStmt); ok {
		n = rng.X // shallow header
	}
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return false // handled by the recursion in checkFuncBody
		case *ast.GoStmt:
			lc.checkGoroutine(x)
		case *ast.CallExpr:
			if isTimeFunc(lc.pass, x, "Tick") {
				lc.pass.Reportf(x.Pos(),
					"time.Tick leaks its ticker — it can never be stopped; use time.NewTicker with a deferred Stop")
			}
		}
		return true
	})
}

// checkGoroutine requires the spawned body to have a reachable exit.
func (lc *leakChecker) checkGoroutine(g *ast.GoStmt) {
	var body *ast.BlockStmt
	switch fun := ast.Unparen(g.Call.Fun).(type) {
	case *ast.FuncLit:
		body = fun.Body
	default:
		// Resolve named functions and methods through the call graph —
		// whole-program, so a goroutine spawned onto another package's
		// function is checked the same as a local one.
		if fn, ok := calleeObjectInfo(lc.pass.TypesInfo, g.Call).(*types.Func); ok {
			node := lc.pass.Prog.Graph.NodeOf(fn)
			if node != nil && node.Body != nil && !lc.pass.Prog.nodeHasExit(node) {
				lc.pass.Reportf(g.Pos(),
					"goroutine runs %s, which has no reachable exit path: it cannot be stopped "+
						"(add a stop channel case, a return, or range over a closable channel)",
					node.Name)
			}
		}
		return
	}
	if !hasReachableExit(buildCFG("go", body)) {
		lc.pass.Reportf(g.Pos(),
			"goroutine has no reachable exit path: it cannot be stopped "+
				"(add a stop channel case, a return, or range over a closable channel)")
	}
}

// nodeHasExit reports (memoized on the Program) whether n's body has a
// reachable terminating path.
func (p *Program) nodeHasExit(n *FuncNode) bool {
	if has, ok := p.exitCache[n]; ok {
		return has
	}
	has := hasReachableExit(buildCFG(n.Name, n.Body))
	p.exitCache[n] = has
	return has
}

// hasReachableExit reports whether some path from entry terminates: the
// normal exit, or any reachable block with no successors (panic — the
// goroutine ends either way).
func hasReachableExit(cfg *CFG) bool {
	reached := reachableFrom([]*Block{cfg.Entry()}, nil)
	for blk := range reached {
		if blk == cfg.Exit() || len(blk.Succs) == 0 {
			return true
		}
	}
	return false
}

// checkTimers finds time.NewTicker/NewTimer results bound to locals and
// requires a Stop on every path from creation to the normal exit.
func (lc *leakChecker) checkTimers(body *ast.BlockStmt, cfg *CFG) {
	for _, blk := range cfg.Blocks {
		for idx, n := range blk.Nodes {
			assign, ok := n.(*ast.AssignStmt)
			if !ok || len(assign.Rhs) != 1 || len(assign.Lhs) != 1 {
				continue
			}
			call, ok := ast.Unparen(assign.Rhs[0]).(*ast.CallExpr)
			if !ok || !(isTimeFunc(lc.pass, call, "NewTicker") || isTimeFunc(lc.pass, call, "NewTimer")) {
				continue
			}
			obj := identDefOrUse(lc.pass, assign.Lhs[0])
			if obj == nil {
				continue
			}
			lc.checkTimerStopped(body, cfg, blk, idx, obj, call)
		}
	}
}

func (lc *leakChecker) checkTimerStopped(body *ast.BlockStmt, cfg *CFG, creation *Block, idx int, obj types.Object, call *ast.CallExpr) {
	if timerEscapes(lc.pass, body, obj) {
		return
	}
	nodeStops := func(n ast.Node) bool {
		if rng, ok := n.(*ast.RangeStmt); ok {
			n = rng.X
		}
		found := false
		ast.Inspect(n, func(x ast.Node) bool {
			c, ok := x.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(c.Fun).(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Stop" {
				return true
			}
			if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && lc.pass.TypesInfo.Uses[id] == obj {
				found = true
			}
			return !found
		})
		return found
	}
	// A Stop later in the creation block (defer ticker.Stop() is the
	// idiom) covers every path out of it.
	for _, n := range creation.Nodes[idx+1:] {
		if nodeStops(n) {
			return
		}
	}
	stopBlock := func(blk *Block) bool {
		for _, n := range blk.Nodes {
			if nodeStops(n) {
				return true
			}
		}
		return false
	}
	reached := reachableFrom(creation.Succs, stopBlock)
	if reached[cfg.Exit()] {
		lc.pass.Reportf(call.Pos(),
			"%s result is not stopped on every exit path: the runtime keeps an unstopped "+
				"ticker/timer alive forever; add `defer %s.Stop()` at creation",
			timeFuncName(lc.pass, call), obj.Name())
	}
}

// timerEscapes reports whether the timer value leaves the function's
// hands: any use that is not a method-call/field selection on it (being
// stored, passed, returned, sent) makes its lifetime someone else's
// concern.
func timerEscapes(pass *Pass, body *ast.BlockStmt, obj types.Object) bool {
	selectorBases := make(map[*ast.Ident]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
				selectorBases[id] = true
			}
		}
		return true
	})
	escapes := false
	ast.Inspect(body, func(n ast.Node) bool {
		if escapes {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if pass.TypesInfo.Uses[id] == obj && !selectorBases[id] {
				escapes = true
			}
		}
		return true
	})
	return escapes
}

func identDefOrUse(pass *Pass, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if obj := pass.TypesInfo.Defs[id]; obj != nil {
		return obj
	}
	return pass.TypesInfo.Uses[id]
}

func isTimeFunc(pass *Pass, call *ast.CallExpr, name string) bool {
	fn, ok := calleeObject(pass, call).(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "time" && fn.Name() == name
}

func timeFuncName(pass *Pass, call *ast.CallExpr) string {
	if fn, ok := calleeObject(pass, call).(*types.Func); ok {
		return "time." + fn.Name()
	}
	return "timer constructor"
}
