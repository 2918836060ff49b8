package main

import (
	"carac/internal/core"
	"carac/internal/jit"
)

// workload is one input shape plus the engine configuration it runs under.
// Every workload drives the same round of operations (see round in
// bench.go); they differ in what dominates the work.
type workload struct {
	name string
	gen  func(seed int64) *inputs
	opts core.Options
	// oracle computes the reference contents of every checked relation for
	// the ground facts given.
	oracle func(in *inputs, churnRows []edge) map[string]*matrix
	out    string // relation the storage probes replay
	// reps is how many times a round repeats its run, serving and query
	// operations; the Apply batches run once per round.
	reps int
}

// Input sizes. They keep one round of every workload near one second on a
// 2-CPU host, so a run takes tens of rounds and reports medians.
const (
	cspaFacts   = 150 // datagen.CSPAGraph size: ~4.7k facts at the fixpoint
	cspaChurn   = 1
	parNodes    = 400
	parEdges    = 1000
	parChurn    = 4
	streamNodes = 300
	streamEdges = 750
	streamChurn = 8
)

var workloads = []*workload{
	// CSPA in adversarial atom order, sequential with the bytecode JIT: join
	// ordering, compilation and the plan store do most of the work, and the
	// bytecode units are the ones the disk cache stores whole.
	{
		name: "cspa-unopt",
		gen:  func(seed int64) *inputs { return cspaInputs(seed, cspaFacts, cspaChurn) },
		opts: core.Options{
			Indexed:     true,
			SharedPlans: true,
			JIT:         jit.Config{Backend: jit.BackendBytecode, Granularity: jit.GranUnionAll},
		},
		oracle: func(in *inputs, churn []edge) map[string]*matrix {
			o := evalCSPA(int(in.maxID)+1, append(append([]edge(nil), in.base...), churn...), in.deref)
			return map[string]*matrix{"VaFlow": o.vaflow, "VAlias": o.valias, "MAlias": o.malias}
		},
		out:  "VAlias",
		reps: 4,
	},
	// One insert- and dedup-heavy recursive rule on 2 workers with adaptive
	// fan-out and the lambda JIT: the only workload on the scheduler and the
	// merge barrier.
	{
		name: "tc-parallel",
		gen:  func(seed int64) *inputs { return tcInputs(seed, parNodes, parEdges, parChurn) },
		opts: core.Options{
			Indexed:        true,
			SharedPlans:    true,
			Workers:        2,
			AdaptiveFanout: true,
			JIT:            jit.Config{Backend: jit.BackendLambda, Granularity: jit.GranUnionAll},
		},
		oracle: tcOracle,
		out:    "tc",
		reps:   1,
	},
	// The sequential interpreter with adaptive plans on a closure whose churn
	// paths have detours: counting, DeleteRows and DRed beside session reads.
	{
		name: "tc-stream",
		gen:  func(seed int64) *inputs { return tcInputs(seed, streamNodes, streamEdges, streamChurn) },
		opts: core.Options{
			Indexed:       true,
			SharedPlans:   true,
			AdaptivePlans: true,
		},
		oracle: tcOracle,
		out:    "tc",
		reps:   1,
	},
}

func tcOracle(in *inputs, churn []edge) map[string]*matrix {
	return map[string]*matrix{"tc": closure(int(in.maxID)+1, append(append([]edge(nil), in.base...), churn...))}
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
