package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// LockLint flags potentially blocking operations performed while a
// sync.Mutex or sync.RWMutex is held: channel sends and receives
// (outside a select with a default clause), Transport method calls,
// invocations of func-typed values (callbacks), time.Sleep, and
// WaitGroup.Wait. Blocking inside the critical section stalls every
// other goroutine contending for the lock — in the live fleet that
// freezes delivery fleet-wide, and with a loopback transport it can
// deadlock outright (the callback may re-enter the host and try to
// take the same mutex).
//
// sync.Cond Wait/Signal/Broadcast are exempt: Cond.Wait releases the
// associated lock while blocked, which is the sanctioned way to wait
// inside a critical section. Bodies of function literals and go
// statements are analyzed as separate functions with no locks held.
var LockLint = &Analyzer{
	Name: "locklint",
	Doc: "flag channel operations, Transport/callback invocations, and other " +
		"potentially blocking calls made while a mutex is held",
	Run: runLockLint,
}

func runLockLint(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					lockWalkStmts(pass, n.Body.List, map[string]bool{})
				}
				return false
			case *ast.FuncLit:
				// Reached only for function literals outside any FuncDecl
				// (e.g. package-level var initializers); literals inside
				// functions are handled by lockWalkExpr.
				lockWalkStmts(pass, n.Body.List, map[string]bool{})
				return false
			}
			return true
		})
	}
	return nil
}

// lockWalkStmts walks a statement list in order, maintaining the set of
// held mutexes (keyed by the rendered receiver expression, e.g. "h.mu").
// Control-flow bodies are walked with a copy of the set: a branch may
// unlock, but the conservative assumption after the branch is that the
// lock state is unchanged.
func lockWalkStmts(pass *Pass, list []ast.Stmt, held map[string]bool) {
	for _, s := range list {
		lockWalkStmt(pass, s, held)
	}
}

func lockWalkStmt(pass *Pass, s ast.Stmt, held map[string]bool) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if key, locks, ok := mutexEvent(pass, call); ok {
				if locks {
					held[key] = true
				} else {
					delete(held, key)
				}
				return
			}
		}
		lockWalkExpr(pass, s.X, held)
	case *ast.DeferStmt:
		// A deferred Unlock runs at return: the mutex stays held for the
		// rest of the walk, which is exactly the state to check against.
		// Other deferred calls execute outside the critical section the
		// statement appears in, so only their argument expressions and any
		// function-literal body are inspected.
		if _, locks, ok := mutexEvent(pass, s.Call); ok && !locks {
			return
		}
		for _, arg := range s.Call.Args {
			lockWalkExpr(pass, arg, held)
		}
		if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			lockWalkStmts(pass, lit.Body.List, map[string]bool{})
		}
	case *ast.GoStmt:
		// The spawned goroutine does not hold this goroutine's locks.
		for _, arg := range s.Call.Args {
			lockWalkExpr(pass, arg, held)
		}
		if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			lockWalkStmts(pass, lit.Body.List, map[string]bool{})
		}
	case *ast.SendStmt:
		if len(held) > 0 {
			pass.Reportf(s.Arrow,
				"channel send while %s is held: a full channel blocks the critical section", heldNames(held))
		}
		lockWalkExpr(pass, s.Chan, held)
		lockWalkExpr(pass, s.Value, held)
	case *ast.SelectStmt:
		// A select with a default clause never blocks; its channel
		// operations are exempt. Without one, the select itself blocks.
		hasDefault := false
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault && len(held) > 0 {
			pass.Reportf(s.Select,
				"select without a default clause while %s is held: blocks the critical section", heldNames(held))
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				lockWalkStmts(pass, cc.Body, copyHeld(held))
			}
		}
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			lockWalkExpr(pass, e, held)
		}
		for _, e := range s.Lhs {
			lockWalkExpr(pass, e, held)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			lockWalkExpr(pass, e, held)
		}
	case *ast.BlockStmt:
		lockWalkStmts(pass, s.List, held)
	case *ast.IfStmt:
		if s.Init != nil {
			lockWalkStmt(pass, s.Init, held)
		}
		lockWalkExpr(pass, s.Cond, held)
		lockWalkStmts(pass, s.Body.List, copyHeld(held))
		if s.Else != nil {
			lockWalkStmt(pass, s.Else, copyHeld(held))
		}
	case *ast.ForStmt:
		if s.Init != nil {
			lockWalkStmt(pass, s.Init, held)
		}
		if s.Cond != nil {
			lockWalkExpr(pass, s.Cond, held)
		}
		lockWalkStmts(pass, s.Body.List, copyHeld(held))
	case *ast.RangeStmt:
		lockWalkExpr(pass, s.X, held)
		lockWalkStmts(pass, s.Body.List, copyHeld(held))
	case *ast.SwitchStmt:
		if s.Init != nil {
			lockWalkStmt(pass, s.Init, held)
		}
		if s.Tag != nil {
			lockWalkExpr(pass, s.Tag, held)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				lockWalkStmts(pass, cc.Body, copyHeld(held))
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				lockWalkStmts(pass, cc.Body, copyHeld(held))
			}
		}
	case *ast.LabeledStmt:
		lockWalkStmt(pass, s.Stmt, held)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						lockWalkExpr(pass, v, held)
					}
				}
			}
		}
	}
}

// lockWalkExpr inspects an expression for blocking operations under the
// current held set. Function literals start a fresh context.
func lockWalkExpr(pass *Pass, e ast.Expr, held map[string]bool) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			lockWalkStmts(pass, n.Body.List, map[string]bool{})
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && len(held) > 0 {
				pass.Reportf(n.OpPos,
					"channel receive while %s is held: an empty channel blocks the critical section", heldNames(held))
			}
		case *ast.CallExpr:
			if len(held) > 0 {
				checkBlockingCall(pass, n, held)
			}
		}
		return true
	})
}

// mutexEvent matches X.Lock / X.RLock / X.Unlock / X.RUnlock where the
// method belongs to sync.Mutex or sync.RWMutex. It returns the held-set
// key for X and whether the call acquires (true) or releases (false).
func mutexEvent(pass *Pass, call *ast.CallExpr) (key string, locks, ok bool) {
	x, locks, ok := mutexSelector(pass.TypesInfo, call)
	if !ok {
		return "", false, false
	}
	// Held sets are keyed by receiver spelling: the walk is
	// intraprocedural, so `t.mu` is unambiguous.
	return types.ExprString(x), locks, true
}

// mutexSelector matches X.Lock / X.RLock / X.Unlock / X.RUnlock where
// the method belongs to sync.Mutex or sync.RWMutex, returning the
// receiver expression X and whether the call acquires.
func mutexSelector(info *types.Info, call *ast.CallExpr) (x ast.Expr, locks, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return nil, false, false
	}
	fn, isFn := info.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil, false, false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil, false, false
	}
	switch recvTypeName(recv.Type()) {
	case "Mutex", "RWMutex":
	default:
		return nil, false, false
	}
	switch fn.Name() {
	case "Lock", "RLock":
		return sel.X, true, true
	case "Unlock", "RUnlock":
		return sel.X, false, true
	}
	return nil, false, false
}

// checkBlockingCall flags calls that can block while a mutex is held.
func checkBlockingCall(pass *Pass, call *ast.CallExpr, held map[string]bool) {
	fun := ast.Unparen(call.Fun)

	// Conversions like ServerID(x) are not calls.
	if tv, ok := pass.TypesInfo.Types[fun]; ok && tv.IsType() {
		return
	}

	switch fn := calleeObject(pass, call).(type) {
	case *types.Func:
		if fn.Pkg() != nil {
			switch {
			case fn.Pkg().Path() == "time" && fn.Name() == "Sleep":
				pass.Reportf(call.Pos(),
					"time.Sleep while %s is held: sleeps inside the critical section", heldNames(held))
				return
			case fn.Pkg().Path() == "sync":
				recv := fn.Type().(*types.Signature).Recv()
				if recv != nil {
					name := recvTypeName(recv.Type())
					if name == "Cond" {
						return // Cond.Wait releases the lock: sanctioned
					}
					if name == "WaitGroup" && fn.Name() == "Wait" {
						pass.Reportf(call.Pos(),
							"WaitGroup.Wait while %s is held: blocks the critical section", heldNames(held))
						return
					}
				}
			}
		}
		// Method on a Transport-flavored type: transports do network or
		// scheduling work and may call back into the locked structure.
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			if name := recvTypeName(recv.Type()); strings.Contains(name, "Transport") {
				pass.Reportf(call.Pos(),
					"%s.%s called while %s is held: transports may block or re-enter the locked structure; "+
						"copy the payload and call after unlocking", name, fn.Name(), heldNames(held))
			}
		}
	case *types.Var:
		// A func-typed variable — struct field, parameter, or local — is a
		// callback whose body is outside this analysis' view.
		if _, isSig := fn.Type().Underlying().(*types.Signature); isSig {
			pass.Reportf(call.Pos(),
				"callback %s invoked while %s is held: its body may block or re-enter the locked structure; "+
					"capture it and call after unlocking", fn.Name(), heldNames(held))
		}
	}
}

func copyHeld(held map[string]bool) map[string]bool {
	out := make(map[string]bool, len(held))
	for k := range held {
		out[k] = true
	}
	return out
}

// heldNames renders the held set for messages, sorted for determinism.
func heldNames(held map[string]bool) string {
	if len(held) == 1 {
		for k := range held {
			return k
		}
	}
	names := make([]string, 0, len(held))
	for k := range held {
		names = append(names, k)
	}
	// Insertion sort: the set is tiny.
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	return strings.Join(names, ", ")
}
