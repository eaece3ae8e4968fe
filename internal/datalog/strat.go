package datalog

import (
	"fmt"
	"sort"
)

// depEdge is a dependency of a head predicate on a body predicate.
type depEdge struct {
	from, to string // predicate keys; from's rules mention to in a body
	negative bool   // through negation or aggregation (nonmonotonic)
}

// depGraph is the predicate dependency graph of a program.
type depGraph struct {
	nodes map[string]struct{}
	edges []depEdge
	adj   map[string][]int // node -> indices into edges
}

// buildDepGraph constructs the dependency graph. Aggregation counts as a
// negative dependency: the aggregate value for a group is only final once
// the aggregated predicate is fully computed, exactly like negation.
func buildDepGraph(rules []Rule) *depGraph {
	g := &depGraph{nodes: make(map[string]struct{}), adj: make(map[string][]int)}
	addNode := func(k string) {
		g.nodes[k] = struct{}{}
	}
	addEdge := func(from, to string, neg bool) {
		addNode(from)
		addNode(to)
		g.adj[from] = append(g.adj[from], len(g.edges))
		g.edges = append(g.edges, depEdge{from: from, to: to, negative: neg})
	}
	for _, r := range rules {
		h := r.Head.Key()
		addNode(h)
		for _, e := range r.Body {
			switch b := e.(type) {
			case Literal:
				if IsBuiltin(b.Pred, len(b.Args)) {
					continue
				}
				addEdge(h, b.Key(), b.Neg)
			case Aggregate:
				for _, l := range b.Body {
					if IsBuiltin(l.Pred, len(l.Args)) {
						continue
					}
					addEdge(h, l.Key(), true)
				}
			}
		}
	}
	return g
}

// sccResult holds the strongly connected components of the dependency
// graph, in reverse topological order (dependencies before dependents).
type sccResult struct {
	comp   map[string]int // node -> component id
	order  [][]string     // component id -> member nodes
	graph  *depGraph
	levels []int // component id -> stratum level
}

// tarjanSCC computes strongly connected components iteratively.
func tarjanSCC(g *depGraph) *sccResult {
	nodes := make([]string, 0, len(g.nodes))
	for n := range g.nodes {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes) // determinism

	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	var stack []string
	comp := make(map[string]int)
	var order [][]string
	counter := 0

	type frame struct {
		node string
		ei   int // next adjacent edge index position
	}
	for _, start := range nodes {
		if _, seen := index[start]; seen {
			continue
		}
		var call []frame
		call = append(call, frame{node: start})
		index[start] = counter
		low[start] = counter
		counter++
		stack = append(stack, start)
		onStack[start] = true

		for len(call) > 0 {
			f := &call[len(call)-1]
			adj := g.adj[f.node]
			advanced := false
			for f.ei < len(adj) {
				e := g.edges[adj[f.ei]]
				f.ei++
				w := e.to
				if _, seen := index[w]; !seen {
					index[w] = counter
					low[w] = counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					call = append(call, frame{node: w})
					advanced = true
					break
				} else if onStack[w] {
					if index[w] < low[f.node] {
						low[f.node] = index[w]
					}
				}
			}
			if advanced {
				continue
			}
			// Finished node.
			v := f.node
			call = call[:len(call)-1]
			if len(call) > 0 {
				parent := call[len(call)-1].node
				if low[v] < low[parent] {
					low[parent] = low[v]
				}
			}
			if low[v] == index[v] {
				id := len(order)
				var members []string
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = id
					members = append(members, w)
					if w == v {
						break
					}
				}
				sort.Strings(members)
				order = append(order, members)
			}
		}
	}
	return &sccResult{comp: comp, order: order, graph: g}
}

// ErrNotStratified is returned (wrapped) when a program has recursion
// through negation; the engine then falls back to the well-founded
// semantics unless aggregation is also involved.
var ErrNotStratified = fmt.Errorf("datalog: program is not stratified")

// stratify assigns each component a stratum level such that positive
// dependencies stay within or below a level and negative dependencies
// strictly below. It reports whether the program is stratified, and
// separately whether any aggregate dependency is cyclic (never allowed).
func (s *sccResult) stratify(rules []Rule) (stratified bool, aggCycle bool) {
	stratified = true
	// Detect negative edges within a component.
	for _, e := range s.graph.edges {
		if e.negative && s.comp[e.from] == s.comp[e.to] {
			stratified = false
			break
		}
	}
	// Aggregation through recursion is rejected outright: check whether
	// any aggregate dependency lands in the head's own component.
	for _, r := range rules {
		h := r.Head.Key()
		for _, e := range r.Body {
			agg, ok := e.(Aggregate)
			if !ok {
				continue
			}
			for _, l := range agg.Body {
				if IsBuiltin(l.Pred, len(l.Args)) {
					continue
				}
				if s.comp[h] == s.comp[l.Key()] {
					aggCycle = true
				}
			}
		}
	}
	// Compute levels: Tarjan emits components in reverse topological
	// order (all dependencies of a component appear before it), so a
	// single pass suffices.
	s.levels = make([]int, len(s.order))
	edgesByFromComp := make(map[int][]depEdge)
	for _, e := range s.graph.edges {
		fc := s.comp[e.from]
		edgesByFromComp[fc] = append(edgesByFromComp[fc], e)
	}
	for id := range s.order {
		level := 0
		for _, e := range edgesByFromComp[id] {
			tc := s.comp[e.to]
			if tc == id {
				continue
			}
			need := s.levels[tc]
			if e.negative {
				need++
			}
			if need > level {
				level = need
			}
		}
		s.levels[id] = level
	}
	return stratified, aggCycle
}

// strata groups the program's rules by stratum level, lowest first. Facts
// (empty-body rules) land in the stratum of their head predicate.
func (s *sccResult) strata(rules []Rule) [][]Rule {
	maxLevel := 0
	for _, l := range s.levels {
		if l > maxLevel {
			maxLevel = l
		}
	}
	out := make([][]Rule, maxLevel+1)
	for _, r := range rules {
		lvl := s.levels[s.comp[r.Head.Key()]]
		out[lvl] = append(out[lvl], r)
	}
	return out
}
