package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"carac"
	"carac/internal/core"
	"carac/internal/interp"
	"carac/internal/ir"
	"carac/internal/jit"
	"carac/internal/jit/bytecode"
	"carac/internal/optimizer"
	"carac/internal/parser"
	"carac/internal/plancache"
	"carac/internal/stats"
	"carac/internal/storage"
)

// runCounters records the engine's own counters for the cold run, the
// rerun and the restart of a traced round.
func (b *bench) runCounters(cold, rerun, restart *core.Result, q *core.Program) {
	if cold != nil {
		s := cold.Interp
		b.layers["interp.iterations"] = float64(s.Iterations)
		b.layers["interp.derivations"] = float64(s.Derivations)
		b.layers["interp.spj_runs"] = float64(s.SPJRuns)
		b.layers["interp.plan_builds"] = float64(s.PlanBuilds)
		b.layers["interp.reopts"] = float64(s.Reopts)
		b.layers["interp.merge_tasks"] = float64(s.MergeTasks)
		b.layers["interp.seq_iters"] = float64(s.SeqIters)
		b.layers["jit.compilations"] = float64(cold.JIT.Compilations)
		b.layers["jit.compile_ms"] = ms(cold.JIT.CompileTime)
	}
	if rerun != nil {
		b.layers["interp.rerun_plan_builds"] = float64(rerun.Interp.PlanBuilds)
		b.layers["plancache.hits"] = float64(rerun.Plans.Hits + rerun.Units.Hits)
		b.layers["plancache.misses"] = float64(rerun.Plans.ColdMisses + rerun.Plans.BandMisses + rerun.Units.ColdMisses + rerun.Units.BandMisses)
		b.layers["plancache.crossrun_hits"] = float64(rerun.Plans.CrossRunHits + rerun.Units.CrossRunHits)
	}
	if restart != nil {
		b.layers["jit.restart_compilations"] = float64(restart.JIT.Compilations)
		if ds, ok := q.DiskStats(); ok {
			b.layers["plancache.disk_hits"] = float64(ds.Hits)
		}
	}
}

// cacheTag mirrors the tag internal/core writes into its cache files.
func cacheTag() string {
	return fmt.Sprintf("carac-%s plan%d unit%d snap%d",
		carac.Version, interp.PlanCodecVersion, bytecode.CodecVersion, stats.SnapshotCodecVersion)
}

// probeDiskLoad times plancache.Persister.Load of the round's cache
// directory into an empty store, decoding plans against q's catalog.
func (b *bench) probeDiskLoad(dir string, q *core.Program) {
	cat := q.Catalog()
	codecs := map[plancache.Class]plancache.EntryCodec{
		plancache.ClassPlans: {
			Decode: func(payload []byte) (any, error) {
				pl, _, err := interp.DecodePlan(payload)
				if err != nil {
					return nil, err
				}
				interp.RevalidatePlan(pl, cat)
				return pl, nil
			},
		},
		plancache.ClassUnits: jit.UnitCodec(),
	}
	per := plancache.NewPersister(dir, cacheTag(), codecs)
	store := plancache.NewStore(plancache.DefaultStoreLimit)
	t0 := time.Now()
	b.tr.call("plancache.Persister.Load", func() { per.Load(store) })
	b.layers["plancache.disk_load_ms"] = ms(time.Since(t0))
	if per.Stats().Hits == 0 && b.layers["plancache.disk_hits"] > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: the cache tag no longer matches internal/core; plancache.disk_load_ms timed a load of 0 entries")
	}
}

// probeLayers times calls into the parser, storage, optimizer, jit and
// interp packages on the workload's own inputs and outputs. They run
// between rounds, outside every end-to-end timing.
func (b *bench) probeLayers() {
	b.attempted++
	// parser: parse the program text into a fresh catalog.
	t0 := time.Now()
	b.tr.call("parser.Parse", func() { _, _ = parser.Parse(b.in.unopt, storage.NewCatalog()) })
	b.layers["parser.load_ms"] = ms(time.Since(t0))

	// storage: replay the standing fixpoint's output rows.
	var rows [][]storage.Value
	b.app.Relation(b.w.out, 2).Each(func(t []storage.Value) bool {
		rows = append(rows, append([]storage.Value(nil), t...))
		return true
	})
	if len(rows) == 0 {
		return
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	rel := storage.NewRelation(b.w.out, 2)
	t0 = time.Now()
	b.tr.call("storage.Relation.Insert", func() {
		for _, t := range rows {
			rel.Insert(t)
		}
	})
	b.layers["storage.insert_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(len(rows))
	rel.BuildIndex(0)
	runtime.GC()
	runtime.ReadMemStats(&m1)
	b.layers["storage.bytes_per_row"] = float64(int64(m1.HeapAlloc)-int64(m0.HeapAlloc)) / float64(len(rows))
	t0 = time.Now()
	b.tr.call("storage.Relation.Probe", func() {
		for _, t := range rows {
			rel.Probe(0, t[0])
			rel.Contains(t)
		}
	})
	b.layers["storage.probe_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(2*len(rows))
	gone := b.want[b.w.out]
	keep := b.wantMinus[b.w.out]
	var dead [][]storage.Value
	for _, t := range rows {
		if gone.has(t[0], t[1]) && !keep.has(t[0], t[1]) {
			dead = append(dead, t)
		}
	}
	t0 = time.Now()
	var removed int
	b.tr.call("storage.Relation.DeleteRows", func() { removed, _ = rel.DeleteRows(dead, 0) })
	b.layers["storage.delete_ms"] = ms(time.Since(t0))
	if removed != len(dead) || rel.Len() != keep.count() {
		b.check("storage.Relation.DeleteRows", fmt.Errorf("removed %d of %d rows, %d left, want %d", removed, len(dead), rel.Len(), keep.count()))
	}
	runtime.KeepAlive(rel)

	// optimizer and jit: reorder and compile every SPJ op of the program,
	// with the standing fixpoint's statistics.
	root, err := ir.Lower(b.app.AST())
	if err != nil {
		b.fail("lower", err)
		return
	}
	var spjs []*ir.SPJOp
	ir.Walk(root, func(o ir.Op) {
		if s, ok := o.(*ir.SPJOp); ok {
			spjs = append(spjs, s)
		}
	})
	cat := b.app.Catalog()
	src := stats.Catalog{Cat: cat}
	t0 = time.Now()
	b.tr.call("optimizer.Reorder", func() {
		for _, s := range spjs {
			_, _ = optimizer.Reorder(ir.CloneSPJ(s), src, optimizer.Options{})
		}
	})
	b.layers["optimizer.reorder_us"] = float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(len(spjs))
	t0 = time.Now()
	b.tr.call("jit.bytecode.Compile", func() {
		for _, s := range spjs {
			_, _ = bytecode.Compiler{}.Compile(s, cat, false)
		}
	})
	b.layers["jit.unit_compile_us"] = float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(len(spjs))

	// interp: the bare interpreter's fixpoint of the hand-optimized text.
	icat := storage.NewCatalog()
	res, err := parser.Parse(b.in.hand, icat)
	if err != nil {
		b.fail("parse", err)
		return
	}
	iroot, err := ir.Lower(res.Program)
	if err != nil {
		b.fail("lower", err)
		return
	}
	for pid, cols := range ir.JoinKeyColumns(res.Program) {
		icat.Pred(pid).BuildIndexes(cols)
	}
	in := interp.New(icat, nil)
	runtime.GC()
	t0 = time.Now()
	b.tr.call("interp.Interp.Run", func() { err = in.Run(iroot) })
	if err != nil {
		b.fail("interp run", err)
		return
	}
	b.layers["interp.eval_ms"] = ms(time.Since(t0))
	for name, m := range b.want {
		pd, ok := icat.PredByName(name)
		if !ok {
			b.check("bare interpreter", fmt.Errorf("relation %s missing", name))
			continue
		}
		b.check("bare interpreter", checkRows(name, m, func(f func([]int32) bool) { pd.Derived.Each(func(t []storage.Value) bool { return f(t) }) }))
	}
}
