package main

import (
	"fmt"
	"math/bits"
)

// matrix is a binary relation over ids 0..n-1 as one bitset row per source
// id. The oracles compute in it and engine outputs are checked against it.
type matrix struct {
	n, words int
	bits     []uint64
}

func newMatrix(n int) *matrix {
	w := (n + 63) / 64
	return &matrix{n: n, words: w, bits: make([]uint64, n*w)}
}

func (m *matrix) row(i int32) []uint64 { return m.bits[int(i)*m.words : int(i+1)*m.words] }

func (m *matrix) has(a, b int32) bool {
	return a >= 0 && b >= 0 && int(a) < m.n && int(b) < m.n && m.row(a)[b>>6]&(1<<(b&63)) != 0
}

func (m *matrix) set(a, b int32) bool {
	w := &m.row(a)[b>>6]
	bit := uint64(1) << (b & 63)
	if *w&bit != 0 {
		return false
	}
	*w |= bit
	return true
}

func (m *matrix) count() int {
	c := 0
	for _, w := range m.bits {
		c += bits.OnesCount64(w)
	}
	return c
}

// each calls f for every member of row i.
func (m *matrix) each(i int32, f func(j int32)) {
	for wi, w := range m.row(i) {
		for w != 0 {
			f(int32(wi*64 + bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
}

// orRow sets dst |= src over one row's words.
func orRow(dst, src []uint64) {
	for i := range dst {
		dst[i] |= src[i]
	}
}

// diffInto stores new \ full into delta, adds it to full, and reports
// whether anything was new.
func diffInto(newer, full, delta *matrix) bool {
	any := false
	for i, w := range newer.bits {
		d := w &^ full.bits[i]
		delta.bits[i] = d
		full.bits[i] |= d
		if d != 0 {
			any = true
		}
	}
	return any
}

// checkRows compares the tuples an engine relation yields through each
// against want: every tuple must be in want, none may repeat, and the
// count must match.
func checkRows(rel string, want *matrix, each func(func(t []int32) bool)) error {
	seen := newMatrix(want.n)
	n := 0
	var bad error
	each(func(t []int32) bool {
		if len(t) != 2 || !want.has(t[0], t[1]) {
			bad = fmt.Errorf("%s: engine derived %v, which the oracle does not", rel, t)
			return false
		}
		if !seen.set(t[0], t[1]) {
			bad = fmt.Errorf("%s: engine holds %v twice", rel, t)
			return false
		}
		n++
		return true
	})
	if bad != nil {
		return bad
	}
	if c := want.count(); n != c {
		return fmt.Errorf("%s: engine holds %d rows, oracle %d", rel, n, c)
	}
	return nil
}

// closure is the reference transitive closure: one breadth-first search
// per source node over the edge list.
func closure(n int, edges []edge) *matrix {
	adj := make([][]int32, n)
	for _, e := range edges {
		adj[e.a] = append(adj[e.a], e.b)
	}
	m := newMatrix(n)
	queue := make([]int32, 0, n)
	for s := int32(0); int(s) < n; s++ {
		queue = append(queue[:0], adj[s]...)
		for _, d := range adj[s] {
			m.set(s, d)
		}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, d := range adj[v] {
				if m.set(s, d) {
					queue = append(queue, d)
				}
			}
		}
	}
	return m
}

// cspaOracle holds the reference CSPA fixpoint.
type cspaOracle struct{ vaflow, valias, malias *matrix }

// evalCSPA evaluates the CSPA rules of inputs.go semi-naively over bitset
// rows. Each recursive rule is evaluated once per body atom with that atom
// restricted to the previous iteration's delta and the others full; for the
// three-atom rules the join is staged through one intermediate row per
// shared variable.
func evalCSPA(n int, assign, deref []edge) *cspaOracle {
	full := [3]*matrix{newMatrix(n), newMatrix(n), newMatrix(n)} // VaFlow, VAlias, MAlias
	delta := [3]*matrix{newMatrix(n), newMatrix(n), newMatrix(n)}
	const vf, va, ma = 0, 1, 2
	// Non-recursive rules seed the first delta.
	for _, e := range assign {
		delta[vf].set(e.a, e.b)
		delta[vf].set(e.a, e.a)
		delta[vf].set(e.b, e.b)
		delta[ma].set(e.a, e.a)
		delta[ma].set(e.b, e.b)
	}
	for r := range full {
		copy(full[r].bits, delta[r].bits)
	}
	derefRow := newMatrix(n)
	for _, e := range deref {
		derefRow.set(e.a, e.b)
	}
	tmp := make([]uint64, full[0].words)
	// via computes out[v1] |= OR_{v0 in x[v3]} z[v0] for every v3 and every
	// v1 in y[v3]: the body x(v3, v0), z(v0, v2), y(v3, v1).
	via := func(out, x, y, z *matrix) {
		for v3 := int32(0); int(v3) < n; v3++ {
			clear(tmp)
			x.each(v3, func(v0 int32) { orRow(tmp, z.row(v0)) })
			y.each(v3, func(v1 int32) { orRow(out.row(v1), tmp) })
		}
	}
	for {
		next := [3]*matrix{newMatrix(n), newMatrix(n), newMatrix(n)}
		// VaFlow(v1, v2) :- Assign(v1, v3), MAlias(v3, v2).
		for _, e := range assign {
			orRow(next[vf].row(e.a), delta[ma].row(e.b))
		}
		// VaFlow(v1, v2) :- VaFlow(v1, v3), VaFlow(v3, v2).
		for v1 := int32(0); int(v1) < n; v1++ {
			delta[vf].each(v1, func(v3 int32) { orRow(next[vf].row(v1), full[vf].row(v3)) })
			full[vf].each(v1, func(v3 int32) { orRow(next[vf].row(v1), delta[vf].row(v3)) })
		}
		// MAlias(v1, v0) :- VAlias(v2, v3), Derefr(v3, v0), Derefr(v2, v1).
		for _, e := range deref {
			delta[va].each(e.a, func(v3 int32) { orRow(next[ma].row(e.b), derefRow.row(v3)) })
		}
		// VAlias(v1, v2) :- VaFlow(v3, v2), VaFlow(v3, v1).
		for v3 := int32(0); int(v3) < n; v3++ {
			delta[vf].each(v3, func(v1 int32) { orRow(next[va].row(v1), full[vf].row(v3)) })
			full[vf].each(v3, func(v1 int32) { orRow(next[va].row(v1), delta[vf].row(v3)) })
		}
		// VAlias(v1, v2) :- VaFlow(v0, v2), MAlias(v3, v0), VaFlow(v3, v1).
		via(next[va], delta[ma], full[vf], full[vf])
		via(next[va], full[ma], delta[vf], full[vf])
		via(next[va], full[ma], full[vf], delta[vf])

		changed := false
		for r := range full {
			if diffInto(next[r], full[r], delta[r]) {
				changed = true
			}
		}
		if !changed {
			return &cspaOracle{vaflow: full[vf], valias: full[va], malias: full[ma]}
		}
	}
}
