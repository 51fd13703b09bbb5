package harness

import (
	"fmt"
	"strings"

	"rbcast/internal/core"
	"rbcast/internal/netsim"
)

// ParentGraphDOT renders the current host parent graph as Graphviz DOT:
// hosts grouped into their true clusters, an edge from every host to its
// parent, leaders double-circled, and the source shaded. Useful for
// eyeballing convergence (`rbsim -dot out.dot && dot -Tsvg out.dot`).
func (rt *Runtime) ParentGraphDOT() string {
	var b strings.Builder
	b.WriteString("digraph parentgraph {\n")
	b.WriteString("  rankdir=BT;\n")
	b.WriteString("  node [shape=circle fontname=\"sans-serif\"];\n")

	truth := rt.Net.TrueClusters()
	source := rt.Topo.Source
	for _, c := range truth.Clusters {
		fmt.Fprintf(&b, "  subgraph cluster_%d {\n", c.ID)
		fmt.Fprintf(&b, "    label=\"cluster %d\";\n", c.ID)
		for _, h := range c.Hosts {
			attrs := []string{fmt.Sprintf("label=\"%d\"", h)}
			if th := rt.TreeHost(core.HostID(h)); th != nil && th.IsLeader() {
				attrs = append(attrs, "shape=doublecircle")
			}
			if h == source {
				attrs = append(attrs, "style=filled", "fillcolor=lightgray")
			}
			fmt.Fprintf(&b, "    h%d [%s];\n", h, strings.Join(attrs, " "))
		}
		b.WriteString("  }\n")
	}

	for i, h := range rt.TreeHosts {
		id, p := rt.result.HostList[i], h.Parent()
		if p == core.Nil {
			continue
		}
		style := ""
		if truth.Of(netsim.HostID(id)) != truth.Of(netsim.HostID(p)) {
			style = " [style=bold color=red]" // expensive (inter-cluster) edge
		}
		fmt.Fprintf(&b, "  h%d -> h%d%s;\n", id, p, style)
	}
	b.WriteString("}\n")
	return b.String()
}
