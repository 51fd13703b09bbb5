package analysis

import (
	"go/ast"
	"go/types"
)

// DetPackages lists the packages whose behavior must be a pure function
// of their inputs and seeds: the protocol state machine, the
// discrete-event engine, the soak sweep (per-seed results are replayed
// and shrunk by seed), the INFO-set coding, and the wire codec. Within
// them, wall-clock reads and global (unseeded) randomness are latent
// replay-divergence bugs, and map iteration that feeds message emission
// or ordered output diverges between runs of the same seed.
var DetPackages = []string{
	"rbcast/internal/adversary",
	"rbcast/internal/core",
	"rbcast/internal/sim",
	"rbcast/internal/soak",
	"rbcast/internal/seqset",
	"rbcast/internal/wire",
}

// DetLint enforces bit-determinism contracts in DetPackages:
//
//   - no time.Now / time.Since / time.Until (virtual time comes in as an
//     argument);
//   - no "math/rand" import — seeded sources come from
//     rbcast/internal/detrand (top-level rand functions draw from the
//     process-global, randomly-seeded source, and even the import is one
//     refactor away from doing so);
//   - no `for range` over a map whose body appends to a slice that is
//     not sorted by a later statement, and no map-range body that emits
//     protocol messages, writes output or schedules simulation events —
//     map iteration order differs between runs of the same seed.
var DetLint = &Analyzer{
	Name: "detlint",
	Doc: "forbid wall-clock reads, math/rand, and order-sensitive map iteration " +
		"in deterministic packages (adversary, core, sim, soak, seqset, wire)",
	Run: runDetLint,
}

// detEmitNames are method/function names whose call inside a map-range
// body means iteration order escapes into observable output: protocol
// emission funnels, ordered writers, and the sim.Loop scheduling calls
// (the order events enter a queue is observable in the trace).
var detEmitNames = map[string]bool{
	"emit": true, "sendMarking": true, "Send": true, "Deliver": true,
	"Broadcast": true, "Fprint": true, "Fprintf": true, "Fprintln": true,
	"Print": true, "Printf": true, "Println": true, "Write": true,
	"WriteString": true, "WriteByte": true, "WriteRune": true,
	"Schedule": true, "Every": true, "ScheduleOn": true, "EveryOn": true,
	"ScheduleCross": true,
}

// detSortNames are sort entry points that stabilize a slice.
var detSortNames = map[string]bool{
	"Slice": true, "SliceStable": true, "Sort": true, "Stable": true,
	"Ints": true, "Strings": true, "Float64s": true, "SortFunc": true,
	"SortStableFunc": true,
}

func runDetLint(pass *Pass) error {
	if !isDetPackage(pass.Pkg.Path()) {
		return nil
	}
	for _, file := range pass.Files {
		for _, imp := range file.Imports {
			switch imp.Path.Value {
			case `"math/rand"`, `"math/rand/v2"`:
				pass.Reportf(imp.Pos(),
					"deterministic package imports %s; draw seeded randomness from rbcast/internal/detrand instead",
					imp.Path.Value)
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				checkWallClock(pass, call)
			}
			return true
		})
		forEachStmtList(file, func(list []ast.Stmt) {
			for i, s := range list {
				if rng, ok := s.(*ast.RangeStmt); ok && isMapType(pass, rng.X) {
					checkMapRangeBody(pass, rng, list[i+1:])
				}
			}
		})
	}
	return nil
}

func isDetPackage(path string) bool { return pkgInScope(path, DetPackages) }

// forEachStmtList visits every statement list in the file: block bodies,
// case clauses, and select clauses, including those inside function
// literals.
func forEachStmtList(root ast.Node, fn func(list []ast.Stmt)) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BlockStmt:
			fn(n.List)
		case *ast.CaseClause:
			fn(n.Body)
		case *ast.CommClause:
			fn(n.Body)
		}
		return true
	})
}

// checkWallClock flags calls to time.Now, time.Since, and time.Until.
func checkWallClock(pass *Pass, call *ast.CallExpr) {
	fn, ok := calleeObject(pass, call).(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
		return
	}
	switch fn.Name() {
	case "Now", "Since", "Until":
		pass.Reportf(call.Pos(),
			"deterministic package calls time.%s; take the virtual time as an argument instead",
			fn.Name())
	}
}

func isMapType(pass *Pass, x ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[x]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// checkMapRangeBody inspects one map-range loop: emission inside the
// body is always a finding; appends are findings unless the appended
// slice is sorted in the statements following the loop. Function
// literals inside the body are skipped — they need not run in iteration
// order.
func checkMapRangeBody(pass *Pass, rng *ast.RangeStmt, after []ast.Stmt) {
	var appended []*ast.Ident
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if _, isFn := n.(*ast.FuncLit); isFn {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if name, ok := calleeName(call); ok && detEmitNames[name] {
				pass.Reportf(call.Pos(),
					"%s called inside a map-range loop: map iteration order varies between runs; "+
						"collect keys and sort before emitting", name)
			}
			if id := appendTarget(pass, call); id != nil {
				appended = append(appended, id)
			}
		}
		return true
	})
	for _, id := range appended {
		obj := pass.TypesInfo.Uses[id]
		if obj == nil {
			obj = pass.TypesInfo.Defs[id]
		}
		if obj == nil || sortedAfter(pass, obj, after) {
			continue
		}
		pass.Reportf(rng.Pos(),
			"map-range loop appends to %q without a sort before use: map iteration order varies "+
				"between runs; sort the slice after the loop", id.Name)
	}
}

// appendTarget matches `append(x, ...)` with x an identifier and returns
// x. Growing an identifier-named slice inside a map range is the pattern
// under suspicion regardless of where the result is assigned.
func appendTarget(pass *Pass, call *ast.CallExpr) *ast.Ident {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" || len(call.Args) == 0 {
		return nil
	}
	if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); !ok || b.Name() != "append" {
		return nil
	}
	target, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return nil
	}
	return target
}

// sortedAfter reports whether any statement in the list (transitively)
// passes obj to a sort function.
func sortedAfter(pass *Pass, obj types.Object, after []ast.Stmt) bool {
	for _, s := range after {
		found := false
		ast.Inspect(s, func(n ast.Node) bool {
			if found {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name, ok := calleeName(call)
			if !ok || !detSortNames[name] {
				return true
			}
			for _, arg := range call.Args {
				if id, ok := ast.Unparen(arg).(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
					found = true
				}
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}
