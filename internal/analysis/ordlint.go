package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// OrdPackages are the packages that take runtime mutexes: every
// goroutine-owning package plus the lock-using utility packages, so an
// inversion spanning any two of them is visible in one graph.
var OrdPackages = []string{
	"rbcast/internal/sim",
	"rbcast/internal/netsim",
	"rbcast/internal/soak",
	"rbcast/internal/node",
	"rbcast/internal/live",
	"rbcast/internal/udp",
	"rbcast/internal/trace",
	"rbcast/internal/replica",
}

// OrdLint builds the whole-program lock-order graph: an edge A → B
// whenever lock class B is acquired — directly, or anywhere down a
// static call chain (bottom-up lock summaries over the call graph) —
// while A is held (held-set walk plus the interprocedural entry-held
// facts, so `fooLocked` helpers charge their acquisitions to the lock
// their callers hold). A cycle in that graph is a potential deadlock:
// two goroutines taking the classes in opposite orders block each
// other forever. Each cycle is reported once, with every edge's
// acquisition chain in the message; a self-edge is reported as a
// recursive acquisition (sync.Mutex is not reentrant). Classes are
// instance-blind, so ordered traversal over two locks of one class is
// flagged too — which is the conservative reading the fleet code wants.
var OrdLint = &Analyzer{
	Name: "ordlint",
	Doc: "the whole-program lock acquisition graph must be acyclic: cycles are " +
		"potential deadlocks, reported with both acquisition chains",
	Run: runOrdLint,
}

func runOrdLint(pass *Pass) error {
	if pass.Prog == nil {
		return nil
	}
	pass.Prog.ensureOrdDiags()
	for _, pd := range pass.Prog.ordDiags {
		if pd.pkgPath == pass.Pkg.Path() {
			pass.Report(pd.d)
		}
	}
	return nil
}

func (p *Program) ensureOrdDiags() {
	if p.ordDone {
		return
	}
	p.ordDone = true
	p.ordDiags = p.sortedProgDiags(computeOrdDiags(p))
}

// ordEdge is one observed ordering: to is acquired while from is held.
type ordEdge struct {
	from, to string
	node     *FuncNode // function the ordering was observed in
	pos      token.Pos // acquisition site, or the call leading to it
	chain    []string  // call chain to the acquisition (nil when direct)
}

func (e *ordEdge) describe(p *Program) string {
	s := fmt.Sprintf("%s -> %s (acquired at %s in %s", e.from, e.to, shortPos(p.Fset, e.pos), e.node.Name)
	if len(e.chain) > 1 {
		s += " via " + strings.Join(e.chain, " -> ")
	}
	return s + ")"
}

func computeOrdDiags(p *Program) []progDiag {
	edges := make(map[string]map[string]*ordEdge)
	var selfEdges []*ordEdge
	addEdge := func(e *ordEdge) {
		if e.from == e.to {
			selfEdges = append(selfEdges, e)
			return
		}
		m := edges[e.from]
		if m == nil {
			m = make(map[string]*ordEdge)
			edges[e.from] = m
		}
		if _, have := m[e.to]; !have {
			m[e.to] = e
		}
	}

	for _, n := range p.Graph.Nodes {
		if !pkgInScope(n.Pkg.Path, OrdPackages) {
			continue
		}
		entry := p.entryHeldOf(n)
		siteEdges := make(map[*ast.CallExpr][]*CallEdge)
		for _, e := range n.Out {
			siteEdges[e.Site] = append(siteEdges[e.Site], e)
		}
		p.walkLocks(n, func(node ast.Node, held map[string]bool) {
			call, ok := node.(*ast.CallExpr)
			if !ok {
				return
			}
			eff := unionHeld(entry, held)
			if class, locks, ok := p.lockEventClass(n, call); ok {
				if locks {
					for h := range eff {
						addEdge(&ordEdge{from: h, to: class, node: n, pos: call.Pos(), chain: []string{n.Name}})
					}
				}
				return
			}
			if len(eff) == 0 {
				return
			}
			for _, ce := range siteEdges[call] {
				if ce.Kind == EdgeGo {
					continue // the spawned goroutine holds none of our locks
				}
				for class, w := range p.lockSummaryOf(ce.Callee).acquires {
					for h := range eff {
						addEdge(&ordEdge{from: h, to: class, node: n, pos: call.Pos(),
							chain: append([]string{n.Name}, w.chain...)})
					}
				}
			}
		})
	}

	var out []progDiag
	for _, e := range selfEdges {
		msg := fmt.Sprintf("lock %s is acquired while already held (%s): sync mutexes are not "+
			"reentrant, so this self-deadlocks (or deadlocks across two instances of the class)",
			e.to, e.describe(p))
		out = append(out, progDiag{pkgPath: e.node.Pkg.Path,
			d: Diagnostic{Analyzer: "ordlint", Pos: e.pos, Message: msg}})
	}
	for _, scc := range lockSCCs(edges) {
		inSCC := make(map[string]bool, len(scc))
		for _, c := range scc {
			inSCC[c] = true
		}
		var parts []string
		var witness *ordEdge
		for _, from := range scc {
			tos := make([]string, 0, len(edges[from]))
			for to := range edges[from] {
				if inSCC[to] {
					tos = append(tos, to)
				}
			}
			sort.Strings(tos)
			for _, to := range tos {
				e := edges[from][to]
				parts = append(parts, e.describe(p))
				if witness == nil {
					witness = e
				}
			}
		}
		msg := fmt.Sprintf("lock-order cycle among {%s}: %s — goroutines acquiring these classes "+
			"in different orders can deadlock; pick one global order",
			strings.Join(scc, ", "), strings.Join(parts, "; "))
		out = append(out, progDiag{pkgPath: witness.node.Pkg.Path,
			d: Diagnostic{Analyzer: "ordlint", Pos: witness.pos, Message: msg}})
	}
	return out
}

// lockSCCs returns the strongly connected components of size ≥ 2 of the
// order graph (Tarjan), each sorted internally, components ordered by
// their first class for deterministic output.
func lockSCCs(edges map[string]map[string]*ordEdge) [][]string {
	classes := make(map[string]bool)
	for from, m := range edges {
		classes[from] = true
		for to := range m {
			classes[to] = true
		}
	}
	order := make([]string, 0, len(classes))
	for c := range classes {
		order = append(order, c)
	}
	sort.Strings(order)

	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	var stack []string
	next := 0
	var sccs [][]string

	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		tos := make([]string, 0, len(edges[v]))
		for to := range edges[v] {
			tos = append(tos, to)
		}
		sort.Strings(tos)
		for _, w := range tos {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			if len(scc) >= 2 {
				sort.Strings(scc)
				sccs = append(sccs, scc)
			}
		}
	}
	for _, v := range order {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}
	sort.Slice(sccs, func(i, j int) bool { return sccs[i][0] < sccs[j][0] })
	return sccs
}
