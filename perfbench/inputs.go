package main

import (
	"fmt"
	"math/rand"
	"strings"

	"carac/internal/datagen"
)

// edge is one binary ground fact.
type edge struct{ a, b int32 }

// inputs is everything a workload hands the engine: the program text in
// both formulations (rules plus ground facts) and the churn set that update
// batches delete and re-insert. The engine receives nothing else; the
// benchmark keeps the edge lists for its own oracle.
type inputs struct {
	unopt, hand string // program text, Unoptimized and HandOptimized rule orders
	churnRel    string // relation the churn batches touch
	base        []edge // ground facts of churnRel outside the churn set
	churn       []edge // ground facts of churnRel deleted and re-inserted by updates
	deref       []edge // CSPA only: Derefr facts
	maxID       int32  // largest node or variable id
}

// tcRules holds the transitive-closure rules per formulation; the
// Unoptimized order leads with the non-delta edge scan, as in
// internal/workloads.TransitiveClosure.
var tcRules = [2]string{
	"tc(x, y) :- edge(x, y).\ntc(x, y) :- tc(x, z), edge(z, y).\n",
	"tc(x, y) :- edge(x, y).\ntc(x, y) :- edge(z, y), tc(x, z).\n",
}

// cspaRules holds Graspan's CSPA (paper Fig 1) per formulation, in the atom
// orders of internal/analysis.CSPA.
var cspaRules = [2]string{
	`VaFlow(v1, v2) :- Assign(v1, v3), MAlias(v3, v2).
VaFlow(v1, v2) :- VaFlow(v1, v3), VaFlow(v3, v2).
MAlias(v1, v0) :- VAlias(v2, v3), Derefr(v3, v0), Derefr(v2, v1).
VAlias(v1, v2) :- VaFlow(v3, v2), VaFlow(v3, v1).
VAlias(v1, v2) :- VaFlow(v0, v2), MAlias(v3, v0), VaFlow(v3, v1).
`,
	`VaFlow(v1, v2) :- MAlias(v3, v2), Assign(v1, v3).
VaFlow(v1, v2) :- VaFlow(v3, v2), VaFlow(v1, v3).
MAlias(v1, v0) :- Derefr(v3, v0), Derefr(v2, v1), VAlias(v2, v3).
VAlias(v1, v2) :- VaFlow(v3, v2), VaFlow(v3, v1).
VAlias(v1, v2) :- VaFlow(v0, v2), VaFlow(v3, v1), MAlias(v3, v0).
`,
}

const cspaCommon = `VaFlow(v2, v1) :- Assign(v2, v1).
VaFlow(v1, v1) :- Assign(v1, v2).
VaFlow(v1, v1) :- Assign(v2, v1).
MAlias(v1, v1) :- Assign(v2, v1).
MAlias(v1, v1) :- Assign(v1, v2).
`

// randomGraph draws a random graph of n nodes with m distinct non-loop
// edges: a cycle through all nodes in a random order plus uniform random
// chords. The cycle makes the graph strongly connected, so the closure has
// n*n facts whatever the seed and runs on different seeds do equal work.
func randomGraph(rng *rand.Rand, n, m int) []edge {
	seen := make(map[edge]bool, m)
	out := make([]edge, 0, m)
	perm := rng.Perm(n)
	for i := range perm {
		e := edge{int32(perm[i]), int32(perm[(i+1)%n])}
		seen[e] = true
		out = append(out, e)
	}
	for len(out) < m {
		e := edge{int32(rng.Intn(n)), int32(rng.Intn(n))}
		if e.a == e.b || seen[e] {
			continue
		}
		seen[e] = true
		out = append(out, e)
	}
	return out
}

// detourChurn builds k churn paths a→f→b through fresh nodes f numbered
// from next, between random existing nodes below n. Every second path also
// gets a permanent 2-hop detour a→g→b through another fresh node, so
// deleting the churn path over-deletes facts that DRed must rederive.
func detourChurn(rng *rand.Rand, n int, next int32, k int) (churn, detours []edge, maxID int32) {
	for i := 0; i < k; i++ {
		a, b := int32(rng.Intn(n)), int32(rng.Intn(n))
		f := next
		next++
		churn = append(churn, edge{a, f}, edge{f, b})
		if i%2 == 0 {
			g := next
			next++
			detours = append(detours, edge{a, g}, edge{g, b})
		}
	}
	return churn, detours, next - 1
}

// tcInputs generates a transitive-closure workload over a random graph of
// nodes/edges plus k churn paths.
func tcInputs(seed int64, nodes, edges, k int) *inputs {
	rng := rand.New(rand.NewSource(seed))
	base := randomGraph(rng, nodes, edges)
	churn, detours, maxID := detourChurn(rng, nodes, int32(nodes), k)
	in := &inputs{churnRel: "edge", base: append(base, detours...), churn: churn, maxID: maxID}
	decls := ".decl edge(x: number, y: number)\n.decl tc(x: number, y: number)\n"
	facts := factText("edge", in.base, in.churn)
	in.hand = decls + tcRules[0] + facts
	in.unopt = decls + tcRules[1] + facts
	return in
}

// cspaInputs generates a CSPA workload from datagen.CSPAGraph(n, seed) plus
// k churn value-flow paths Assign(f, a), Assign(b, f) through fresh
// variables f.
func cspaInputs(seed int64, n, k int) *inputs {
	f := datagen.CSPAGraph(n, seed)
	var vars int32
	for _, e := range f.Assign {
		vars = max(vars, e.Src+1, e.Dst+1)
	}
	next := f.NumVar
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	churn, detours, maxID := detourChurn(rng, int(vars), next, k)
	// detourChurn yields edges a→f, f→b; value flows a → f → b is
	// Assign(f, a), Assign(b, f).
	flip := func(es []edge) []edge {
		out := make([]edge, len(es))
		for i, e := range es {
			out[i] = edge{e.b, e.a}
		}
		return out
	}
	in := &inputs{churnRel: "Assign", churn: flip(churn), maxID: maxID}
	for _, e := range f.Assign {
		in.base = append(in.base, edge{e.Src, e.Dst})
	}
	in.base = append(in.base, flip(detours)...)
	for _, e := range f.Derefr {
		in.deref = append(in.deref, edge{e.Src, e.Dst})
		in.maxID = max(in.maxID, e.Src, e.Dst)
	}
	decls := ".decl Assign(a: number, b: number)\n.decl Derefr(a: number, b: number)\n" +
		".decl VaFlow(a: number, b: number)\n.decl VAlias(a: number, b: number)\n.decl MAlias(a: number, b: number)\n"
	facts := factText("Assign", in.base, in.churn) + factText("Derefr", in.deref)
	in.hand = decls + cspaRules[0] + cspaCommon + facts
	in.unopt = decls + cspaRules[1] + cspaCommon + facts
	return in
}

// factText renders ground facts of rel in Datalog syntax.
func factText(rel string, lists ...[]edge) string {
	var sb strings.Builder
	for _, es := range lists {
		for _, e := range es {
			fmt.Fprintf(&sb, "%s(%d, %d).\n", rel, e.a, e.b)
		}
	}
	return sb.String()
}
