package analysis

// cfg.go — per-function control-flow graphs over go/ast.
//
// The CFG layer underlies the flow-sensitive analyzers (taintlint,
// monolint, leaklint). Each function body becomes a graph of basic
// blocks holding statements and branch-header expressions in execution
// order. The builder is syntactic: it needs no type information, handles
// if/for/range/switch/type-switch/select, labeled break and continue,
// goto, and treats `return` as an edge to the single exit block. A call
// to panic (or os.Exit / *.Fatal*) ends its block with no successors:
// those paths never reach a normal exit, so resource-release checks do
// not charge them.
//
// Composite statements contribute only their headers to a block's node
// list: an if statement contributes its condition, a switch its tag, a
// range statement itself (clients must treat *ast.RangeStmt nodes
// shallowly — the loop body lives in successor blocks). Function
// literals are opaque expressions here; build a separate CFG for a
// literal's body when its control flow matters.

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"strings"
)

// A CFG is the control-flow graph of one function body.
type CFG struct {
	// Name labels the graph in dumps.
	Name string
	// Blocks in creation order. Blocks[0] is the entry; Blocks[1] is the
	// single exit targeted by every return and fall-off-the-end edge.
	Blocks []*Block
	// Defers lists defer statements in registration order. Deferred calls
	// run at every exit, so a resource released in a defer is released on
	// every path that executes the registration.
	Defers []*ast.DeferStmt
}

// Entry returns the function's entry block.
func (c *CFG) Entry() *Block { return c.Blocks[0] }

// Exit returns the function's single normal-exit block.
func (c *CFG) Exit() *Block { return c.Blocks[1] }

// A Block is one straight-line run of nodes: control enters at the first
// node and leaves after the last, to one of Succs. A block with no
// successors terminates the function abnormally (panic/Exit) — except
// the exit block, which is the normal end.
type Block struct {
	Index int
	// Kind names the block's structural role ("entry", "for.head",
	// "if.then", …) for dumps and golden tests.
	Kind  string
	Nodes []ast.Node
	Succs []*Block
}

// buildCFG constructs the graph for one function body.
func buildCFG(name string, body *ast.BlockStmt) *CFG {
	c := &CFG{Name: name}
	b := &cfgBuilder{cfg: c, labelBlocks: make(map[string]*Block)}
	b.newBlock("entry")
	b.newBlock("exit")
	b.cur = c.Entry()
	b.stmtList(body.List)
	b.terminateInto(c.Exit()) // falling off the end returns
	return c
}

// cfgScope is one enclosing breakable construct (loop, switch, select).
type cfgScope struct {
	label      string
	breakTo    *Block
	continueTo *Block // non-nil only for loops
}

type cfgBuilder struct {
	cfg *CFG
	// cur is the block under construction; nil while the current program
	// point is unreachable (just after a terminating statement).
	cur          *Block
	scopes       []cfgScope
	labelBlocks  map[string]*Block
	pendingLabel string
	// nextCase is the following case body while filling a switch case —
	// the fallthrough target.
	nextCase *Block
}

func (b *cfgBuilder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.cfg.Blocks), Kind: kind}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *cfgBuilder) link(from, to *Block) {
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

// block returns the current block, opening an unreachable "dead" block
// when flow has terminated (code after return/panic still parses and may
// hold goto labels).
func (b *cfgBuilder) block() *Block {
	if b.cur == nil {
		b.cur = b.newBlock("dead")
	}
	return b.cur
}

func (b *cfgBuilder) add(n ast.Node) {
	blk := b.block()
	blk.Nodes = append(blk.Nodes, n)
}

// terminateInto ends the current block with an edge to `to` (nil = no
// successor) and marks the point unreachable.
func (b *cfgBuilder) terminateInto(to *Block) {
	if b.cur != nil && to != nil {
		b.link(b.cur, to)
	}
	b.cur = nil
}

func (b *cfgBuilder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *cfgBuilder) labelBlock(name string) *Block {
	if blk, ok := b.labelBlocks[name]; ok {
		return blk
	}
	blk := b.newBlock("label." + name)
	b.labelBlocks[name] = blk
	return blk
}

func (b *cfgBuilder) findScope(label string, loopOnly bool) *cfgScope {
	for i := len(b.scopes) - 1; i >= 0; i-- {
		sc := &b.scopes[i]
		if loopOnly && sc.continueTo == nil {
			continue
		}
		if label == "" || sc.label == label {
			return sc
		}
	}
	return nil
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil, *ast.EmptyStmt:

	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		lb := b.labelBlock(s.Label.Name)
		if b.cur != nil {
			b.link(b.cur, lb)
		}
		b.cur = lb
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""

	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Cond)
		cond := b.block()
		then := b.newBlock("if.then")
		b.link(cond, then)
		var alt *Block
		if s.Else != nil {
			alt = b.newBlock("if.else")
			b.link(cond, alt)
		}
		done := b.newBlock("if.done")
		b.cur = then
		b.stmt(s.Body)
		b.terminateInto(done)
		if s.Else != nil {
			b.cur = alt
			b.stmt(s.Else)
			b.terminateInto(done)
		} else {
			b.link(cond, done)
		}
		b.cur = done

	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		head := b.newBlock("for.head")
		if b.cur != nil {
			b.link(b.cur, head)
		}
		b.cur = head
		if s.Cond != nil {
			b.add(s.Cond)
		}
		body := b.newBlock("for.body")
		var post *Block
		if s.Post != nil {
			post = b.newBlock("for.post")
		}
		done := b.newBlock("for.done")
		b.link(head, body)
		if s.Cond != nil {
			b.link(head, done)
		}
		contTo := head
		if post != nil {
			contTo = post
		}
		b.scopes = append(b.scopes, cfgScope{label: label, breakTo: done, continueTo: contTo})
		b.cur = body
		b.stmt(s.Body)
		b.terminateInto(contTo)
		if post != nil {
			b.cur = post
			b.stmt(s.Post)
			b.terminateInto(head)
		}
		b.scopes = b.scopes[:len(b.scopes)-1]
		b.cur = done

	case *ast.RangeStmt:
		label := b.takeLabel()
		head := b.newBlock("range.head")
		if b.cur != nil {
			b.link(b.cur, head)
		}
		b.cur = head
		b.add(s) // shallow: carries X/Key/Value; the body lives in successors
		body := b.newBlock("range.body")
		done := b.newBlock("range.done")
		b.link(head, body)
		b.link(head, done)
		b.scopes = append(b.scopes, cfgScope{label: label, breakTo: done, continueTo: head})
		b.cur = body
		b.stmt(s.Body)
		b.terminateInto(head)
		b.scopes = b.scopes[:len(b.scopes)-1]
		b.cur = done

	case *ast.SwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.buildSwitch(label, s.Body, func(c ast.Stmt) ([]ast.Expr, []ast.Stmt, bool) {
			cc := c.(*ast.CaseClause)
			return cc.List, cc.Body, cc.List == nil
		}, true)

	case *ast.TypeSwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Assign)
		b.buildSwitch(label, s.Body, func(c ast.Stmt) ([]ast.Expr, []ast.Stmt, bool) {
			cc := c.(*ast.CaseClause)
			return nil, cc.Body, cc.List == nil
		}, false)

	case *ast.SelectStmt:
		label := b.takeLabel()
		sel := b.block()
		if len(s.Body.List) == 0 {
			// select{} blocks forever: the path ends here.
			b.cur = nil
			return
		}
		done := b.newBlock("select.done")
		b.scopes = append(b.scopes, cfgScope{label: label, breakTo: done})
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			cb := b.newBlock("select.case")
			b.link(sel, cb)
			b.cur = cb
			if cc.Comm != nil {
				b.stmt(cc.Comm)
			}
			b.stmtList(cc.Body)
			b.terminateInto(done)
		}
		b.scopes = b.scopes[:len(b.scopes)-1]
		b.cur = done

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			label := ""
			if s.Label != nil {
				label = s.Label.Name
			}
			if sc := b.findScope(label, false); sc != nil {
				b.add(s)
				b.terminateInto(sc.breakTo)
			}
		case token.CONTINUE:
			label := ""
			if s.Label != nil {
				label = s.Label.Name
			}
			if sc := b.findScope(label, true); sc != nil {
				b.add(s)
				b.terminateInto(sc.continueTo)
			}
		case token.GOTO:
			b.add(s)
			b.terminateInto(b.labelBlock(s.Label.Name))
		case token.FALLTHROUGH:
			if b.nextCase != nil {
				b.add(s)
				b.terminateInto(b.nextCase)
			}
		}

	case *ast.ReturnStmt:
		b.add(s)
		b.terminateInto(b.cfg.Exit())

	case *ast.DeferStmt:
		b.add(s)
		b.cfg.Defers = append(b.cfg.Defers, s)

	case *ast.ExprStmt:
		b.add(s)
		if terminatesFlow(s.X) {
			b.cur = nil // panic/Exit: no normal successor
		}

	default:
		// Assignments, declarations, sends, go statements, inc/dec.
		b.add(s)
	}
}

// buildSwitch shares the block scaffolding of switch and type switch:
// every case entered from the header block, fallthrough chaining to the
// next case, no-default header edge to done.
func (b *cfgBuilder) buildSwitch(label string, body *ast.BlockStmt,
	clause func(ast.Stmt) ([]ast.Expr, []ast.Stmt, bool), allowFallthrough bool) {
	sw := b.block()
	done := b.newBlock("switch.done")
	b.scopes = append(b.scopes, cfgScope{label: label, breakTo: done})
	caseBlocks := make([]*Block, len(body.List))
	for i := range body.List {
		caseBlocks[i] = b.newBlock("switch.case")
		b.link(sw, caseBlocks[i])
	}
	hasDefault := false
	for i, c := range body.List {
		exprs, stmts, isDefault := clause(c)
		if isDefault {
			hasDefault = true
		}
		b.cur = caseBlocks[i]
		for _, e := range exprs {
			b.add(e)
		}
		saved := b.nextCase
		if allowFallthrough && i+1 < len(caseBlocks) {
			b.nextCase = caseBlocks[i+1]
		} else {
			b.nextCase = nil
		}
		b.stmtList(stmts)
		b.nextCase = saved
		b.terminateInto(done)
	}
	if !hasDefault {
		b.link(sw, done)
	}
	b.scopes = b.scopes[:len(b.scopes)-1]
	b.cur = done
}

// terminatesFlow matches calls that never return normally: the panic
// builtin, os.Exit-style Exit functions, and log/testing Fatal variants.
// Syntactic on purpose — the builder runs before (and without) type
// information.
func terminatesFlow(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		return fun.Sel.Name == "Exit" || strings.HasPrefix(fun.Sel.Name, "Fatal")
	}
	return false
}

// predecessors inverts the successor edges.
func predecessors(c *CFG) map[*Block][]*Block {
	preds := make(map[*Block][]*Block, len(c.Blocks))
	for _, blk := range c.Blocks {
		for _, s := range blk.Succs {
			preds[s] = append(preds[s], blk)
		}
	}
	return preds
}

// reachableFrom returns every block reachable from the start set
// (inclusive). Blocks for which avoid returns true are included when
// reached but their successors are not followed — they model points
// where the property of interest is re-established (a bounds check, a
// Stop call). avoid may be nil.
func reachableFrom(start []*Block, avoid func(*Block) bool) map[*Block]bool {
	seen := make(map[*Block]bool)
	stack := append([]*Block(nil), start...)
	for len(stack) > 0 {
		blk := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if blk == nil || seen[blk] {
			continue
		}
		seen[blk] = true
		if avoid != nil && avoid(blk) {
			continue
		}
		stack = append(stack, blk.Succs...)
	}
	return seen
}

// findNodeBlock locates the block and node index holding n.
func findNodeBlock(cfg *CFG, n ast.Node) (*Block, int) {
	for _, blk := range cfg.Blocks {
		for i, node := range blk.Nodes {
			if node == n {
				return blk, i
			}
		}
	}
	return nil, -1
}

// pathDominates reports whether every path from entry to the node at
// blk.Nodes[idx] passes through a node satisfying isGuard first: a
// guard earlier in the same block dominates trivially; otherwise no
// entry path avoiding every guard block may reach blk. This is the
// dominance question monolint asks of prune-floor comparisons.
func pathDominates(cfg *CFG, blk *Block, idx int, isGuard func(ast.Node) bool) bool {
	for _, n := range blk.Nodes[:idx] {
		if isGuard(n) {
			return true
		}
	}
	isGuardBlock := func(b *Block) bool {
		for _, n := range b.Nodes {
			if isGuard(n) {
				return true
			}
		}
		return false
	}
	reached := reachableFrom([]*Block{cfg.Entry()}, func(b *Block) bool {
		return b != blk && isGuardBlock(b)
	})
	return !reached[blk]
}

// String renders the graph for golden tests: one line per block with its
// nodes (single-line, whitespace-collapsed, truncated) and successors.
func (c *CFG) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s:\n", c.Name)
	for _, blk := range c.Blocks {
		fmt.Fprintf(&sb, "  b%d %s:", blk.Index, blk.Kind)
		if len(blk.Nodes) > 0 {
			parts := make([]string, len(blk.Nodes))
			for i, n := range blk.Nodes {
				parts[i] = nodeString(n)
			}
			fmt.Fprintf(&sb, " {%s}", strings.Join(parts, "; "))
		}
		if len(blk.Succs) > 0 {
			names := make([]string, len(blk.Succs))
			for i, s := range blk.Succs {
				names[i] = fmt.Sprintf("b%d", s.Index)
			}
			fmt.Fprintf(&sb, " -> %s", strings.Join(names, " "))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func nodeString(n ast.Node) string {
	if rng, ok := n.(*ast.RangeStmt); ok {
		return "range " + nodeString(rng.X)
	}
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, token.NewFileSet(), n); err != nil {
		return fmt.Sprintf("<%T>", n)
	}
	s := strings.Join(strings.Fields(buf.String()), " ")
	if len(s) > 60 {
		s = s[:57] + "..."
	}
	return s
}
