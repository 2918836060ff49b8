package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"carac/internal/core"
	"carac/internal/storage"
)

// setups is how many times a run builds its standing state; setup_s is
// their median.
const setups = 7

// queriesPerEpoch is how many new clients open a session on the epoch that
// re-inserts the churn set, after its first query materialized it.
const queriesPerEpoch = 3

// bench is one run of one workload.
type bench struct {
	w    *workload
	in   *inputs
	opts core.Options // the workload's options without a cache directory
	tmp  string       // scratch directory inside the checkout, removed at exit

	want, wantMinus map[string]*matrix // oracle with and without the churn set

	rec       *recorder
	tr        *tracer // nil unless this round is traced
	attempted int
	failed    int
	mismatch  []string

	// Standing state built by setup: a Program maintained by Apply and a
	// materializing Server, each holding the full fixpoint between rounds.
	app            *core.Program
	appDel, appIns *core.Tx
	srv            *core.Server
	srvDel, srvIns *core.Tx
	srvProg        *core.Program

	// Per-layer counters of the last traced round.
	layers map[string]float64
}

func newBench(w *workload, seed int64, tmp string) *bench {
	in := w.gen(seed)
	b := &bench{w: w, in: in, opts: w.opts, tmp: tmp, rec: newRecorder(), layers: map[string]float64{}}
	b.want = w.oracle(in, in.churn)
	b.wantMinus = w.oracle(in, nil)
	return b
}

// fail counts a failed operation.
func (b *bench) fail(op string, err error) {
	b.failed++
	fmt.Fprintf(os.Stderr, "perfbench: %s failed: %v\n", op, err)
}

// check records an output mismatch; mismatches make the run incorrect.
func (b *bench) check(op string, err error) {
	if err != nil {
		b.mismatch = append(b.mismatch, op+": "+err.Error())
		fmt.Fprintf(os.Stderr, "perfbench: %s: wrong output: %v\n", op, err)
	}
}

// cpuTime is the CPU time the process has used so far, all threads, user
// and system. The guest kernel leaves out time the hypervisor took from the
// virtual CPU (steal), which wall time includes.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// timed runs f as one attempted operation after a full GC and returns the
// CPU time and the wall time it took; ok is false when f failed.
func (b *bench) timed(op string, f func() error) (cpu, wall time.Duration, ok bool) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.attempted++
	b.tr.begin("bench." + op)
	c0, t0 := cpuTime(), time.Now()
	err := f()
	cpu, wall = cpuTime()-c0, time.Since(t0)
	b.tr.end()
	runtime.ReadMemStats(&m1)
	if err != nil {
		b.fail(op, err)
		return cpu, wall, false
	}
	b.rec.add("runtime.alloc_mb", "MB", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
	b.rec.add("runtime.gc_cycles", "count", float64(m1.NumGC-m0.NumGC))
	return cpu, wall, true
}

// record adds one sample of an end-to-end time metric: the CPU time under
// its name, in the unit its name ends with, and the wall time under
// "wall."+name for the printed table.
func (b *bench) record(name string, cpu, wall time.Duration) {
	unit, scale := "s", 1.0
	if strings.HasSuffix(name, "_ms") {
		unit, scale = "ms", 1e3
	}
	b.rec.add(name, unit, cpu.Seconds()*scale)
	b.rec.add("wall."+name, unit, wall.Seconds()*scale)
}

// load builds a fresh Program from the workload's program text.
func (b *bench) load(src string) (*core.Program, error) {
	p := core.NewProgram()
	var err error
	b.tr.call("core.Program.LoadSource", func() { err = p.LoadSource(src) })
	return p, err
}

// run is Program.Run inside a span.
func (b *bench) run(p *core.Program, opts core.Options) (res *core.Result, err error) {
	b.tr.call("core.Program.Run", func() { res, err = p.Run(opts) })
	return res, err
}

// apply is Program.Apply on the standing Program inside a span.
func (b *bench) apply(tx *core.Tx) (res *core.ApplyResult, err error) {
	b.tr.call("core.Program.Apply", func() { res, err = b.app.Apply(tx, b.opts) })
	return res, err
}

// churnTxs builds the delete and the re-insert batch of the churn set.
func (b *bench) churnTxs(p *core.Program) (del, ins *core.Tx, err error) {
	rel := p.Relation(b.in.churnRel, 2)
	del, ins = p.NewTx(), p.NewTx()
	for _, e := range b.in.churn {
		if err = del.Delete(rel, int(e.a), int(e.b)); err != nil {
			return nil, nil, err
		}
		if err = ins.Insert(rel, int(e.a), int(e.b)); err != nil {
			return nil, nil, err
		}
	}
	return del, ins, nil
}

// checkProgram compares every checked relation of p with want.
func (b *bench) checkProgram(op string, p *core.Program, want map[string]*matrix) {
	b.tr.begin("oracle.check")
	defer b.tr.end()
	for name, m := range want {
		rel := p.Relation(name, 2)
		b.check(op, checkRows(name, m, func(f func([]int32) bool) { rel.Each(func(t []storage.Value) bool { return f(t) }) }))
	}
}

// checkSession compares every checked relation a session sees with want.
func (b *bench) checkSession(op string, s *core.Session, want map[string]*matrix) {
	b.tr.begin("oracle.check")
	defer b.tr.end()
	for name, m := range want {
		rel := b.srvProg.Relation(name, 2)
		b.check(op, checkRows(name, m, func(f func([]int32) bool) { s.Each(rel, func(t []storage.Value) bool { return f(t) }) }))
	}
}

// snapshot copies every checked relation of p into matrices of want's size.
func (b *bench) snapshot(p *core.Program) map[string]*matrix {
	out := map[string]*matrix{}
	for name, m := range b.want {
		c := newMatrix(m.n)
		p.Relation(name, 2).Each(func(t []storage.Value) bool {
			if t[0] < 0 || t[1] < 0 || int(t[0]) >= c.n || int(t[1]) >= c.n {
				return true // out of range: the oracle check reports it
			}
			c.set(t[0], t[1])
			return true
		})
		out[name] = c
	}
	return out
}

// setup builds the standing state from the generated program text: a
// Program at its fixpoint with counted facts, ready for Apply, and a
// materializing Server whose first epoch is derived. It returns the wall
// time from program text to ready.
func (b *bench) setup() (cpu, wall time.Duration, err error) {
	b.app, b.srv, b.srvProg = nil, nil, nil
	runtime.GC()
	c0, t0 := cpuTime(), time.Now()
	b.attempted++
	app, err := b.load(b.in.unopt)
	if err != nil {
		return 0, 0, err
	}
	if _, err = b.run(app, b.opts); err != nil {
		return 0, 0, err
	}
	// Counted mode is switched on by the first Apply; an empty batch does
	// it here so every timed batch runs on the same path.
	b.tr.call("core.Program.Apply", func() { _, err = app.Apply(app.NewTx(), b.opts) })
	if err != nil {
		return 0, 0, err
	}
	sp, err := b.load(b.in.unopt)
	if err != nil {
		return 0, 0, err
	}
	sopts := b.opts
	sopts.Materialize = true
	var srv *core.Server
	b.tr.call("core.Program.Serve", func() { srv, err = sp.Serve(sopts) })
	if err != nil {
		return 0, 0, err
	}
	var sess *core.Session
	b.tr.call("core.Server.Session", func() { sess, err = srv.Session() })
	if err != nil {
		return 0, 0, err
	}
	b.tr.call("core.Session.Query", func() { _, err = sess.Query() })
	cpu, wall = cpuTime()-c0, time.Since(t0)
	if err == nil {
		b.app, b.srv, b.srvProg = app, srv, sp
		b.checkProgram("setup Apply program", app, b.want)
		b.checkSession("setup server", sess, b.want)
	}
	b.tr.call("core.Session.Close", func() { sess.Close() })
	if err != nil {
		return 0, 0, err
	}
	if b.appDel, b.appIns, err = b.churnTxs(app); err != nil {
		return 0, 0, err
	}
	if b.srvDel, b.srvIns, err = b.churnTxs(sp); err != nil {
		return 0, 0, err
	}
	// Live heap with the standing state held. It is read here rather than
	// after each round because a materializing server's heap grows with
	// every publish, which would tie the figure to the run's length.
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	b.rec.add("live_heap_mb", "MB", float64(m.HeapAlloc)/(1<<20))
	return cpu, wall, nil
}

// round runs every timed operation of the workload and records its
// samples. The operations and their order are the same in every round, so
// attempted counts are whole multiples of one round.
func (b *bench) round(n int) {
	for i := 0; i < b.w.reps; i++ {
		b.cycle(filepath.Join(b.tmp, fmt.Sprintf("cache-%d-%d", n, i)))
	}

	// Incremental maintenance on the standing Program.
	var del *core.ApplyResult
	cold0 := 0
	if cpu, wall, ok := b.timed("apply_delete", func() (err error) { del, err = b.apply(b.appDel); return }); ok {
		b.record("apply_delete_ms", cpu, wall)
		b.checkProgram("apply delete", b.app, b.wantMinus)
		if del.Cold {
			cold0++
		}
	}
	var ins *core.ApplyResult
	if cpu, wall, ok := b.timed("apply_insert", func() (err error) { ins, err = b.apply(b.appIns); return }); ok {
		b.record("apply_insert_ms", cpu, wall)
		b.checkProgram("apply insert", b.app, b.want)
		if ins.Cold {
			cold0++
		}
	}
	if b.tr != nil {
		b.layers["core.apply_cold"] = float64(cold0)
		if del != nil {
			b.layers["interp.retracted"] = float64(del.Interp.Retracted)
			b.layers["interp.rederived"] = float64(del.Interp.Rederived)
		}
	}

	// Serving: each batch made visible, then new clients on the epoch.
	for i := 0; i < b.w.reps; i++ {
		warm0 := b.srv.Stats().WarmStarts
		b.visible("visible_delete_ms", b.srvDel, b.wantMinus)
		b.visible("visible_insert_ms", b.srvIns, b.want)
		if b.tr != nil {
			b.layers["core.warm_starts"] = float64(b.srv.Stats().WarmStarts - warm0)
		}
		for j := 0; j < queriesPerEpoch; j++ {
			b.query()
		}
	}
}

// cycle times a cold run, a rerun and a disk-warm restart over a fresh
// cache directory.
func (b *bench) cycle(dir string) {
	defer os.RemoveAll(dir)
	opts := b.opts
	opts.CacheDir = dir
	var cold, restart *core.Result
	p, err := b.load(b.in.unopt)
	if err != nil {
		b.fail("load", err)
		return
	}
	if cpu, wall, ok := b.timed("run", func() (err error) { cold, err = b.run(p, opts); return }); ok {
		b.record("run_s", cpu, wall)
		b.checkProgram("run", p, b.want)
	}
	coldRows := b.snapshot(p)
	var rerun *core.Result
	if cpu, wall, ok := b.timed("rerun", func() (err error) { rerun, err = b.run(p, opts); return }); ok {
		b.record("rerun_s", cpu, wall)
		b.checkProgram("rerun", p, b.want)
	}
	q, err := b.load(b.in.unopt)
	if err != nil {
		b.fail("load", err)
		return
	}
	if cpu, wall, ok := b.timed("restart", func() (err error) { restart, err = b.run(q, opts); return }); ok {
		b.record("restart_s", cpu, wall)
		b.checkProgram("restart equals cold run", q, coldRows)
		b.checkProgram("restart", q, b.want)
	}
	if b.tr != nil {
		b.runCounters(cold, rerun, restart, q)
		b.probeDiskLoad(dir, q)
	}
}

// visible ingests one batch on the server and times it from IngestTx
// through Publish to the first answered query on the new epoch.
func (b *bench) visible(metric string, tx *core.Tx, want map[string]*matrix) {
	var sess *core.Session
	var ingest, publish time.Duration
	cpu, wall, ok := b.timed(metric, func() error {
		t0 := time.Now()
		var err error
		b.tr.call("core.Server.IngestTx", func() { _, err = b.srv.IngestTx(tx) })
		if err != nil {
			return err
		}
		t1 := time.Now()
		b.tr.call("core.Server.Publish", func() { b.srv.Publish() })
		t2 := time.Now()
		ingest, publish = t1.Sub(t0), t2.Sub(t1)
		b.tr.call("core.Server.Session", func() { sess, err = b.srv.Session() })
		if err != nil {
			return err
		}
		b.tr.call("core.Session.Query", func() { _, err = sess.Query() })
		return err
	})
	if sess != nil {
		if ok {
			b.record(metric, cpu, wall)
			b.rec.add("core.ingest_ms", "ms", ms(ingest))
			b.rec.add("core.publish_ms", "ms", ms(publish))
			b.checkSession(metric, sess, want)
		}
		b.tr.call("core.Session.Close", func() { sess.Close() })
	}
}

// query times what a new client pays on an already materialized epoch:
// Session, Query and Close.
func (b *bench) query() {
	var sess *core.Session
	var open, hit time.Duration
	cpu, wall, ok := b.timed("query", func() error {
		t0 := time.Now()
		var err error
		b.tr.call("core.Server.Session", func() { sess, err = b.srv.Session() })
		if err != nil {
			return err
		}
		t1 := time.Now()
		b.tr.call("core.Session.Query", func() { _, err = sess.Query() })
		open, hit = t1.Sub(t0), time.Since(t1)
		return err
	})
	if sess == nil {
		return
	}
	if ok {
		b.checkSession("query", sess, b.want)
	}
	c0, t0 := cpuTime(), time.Now()
	b.tr.call("core.Session.Close", func() { sess.Close() })
	if ok {
		b.record("query_ms", cpu+cpuTime()-c0, wall+time.Since(t0))
		b.rec.add("core.session_open_ms", "ms", ms(open))
		b.rec.add("core.hit_us", "us", float64(hit.Nanoseconds())/1e3)
	}
}

// formulations checks that the HandOptimized formulation derives exactly
// what the Unoptimized one does, against the standing Program.
func (b *bench) formulations() {
	b.attempted++
	h, err := b.load(b.in.hand)
	if err != nil {
		b.fail("hand-optimized load", err)
		return
	}
	if _, err := b.run(h, b.opts); err != nil {
		b.fail("hand-optimized run", err)
		return
	}
	b.checkProgram("hand-optimized equals unoptimized", h, b.snapshot(b.app))
	b.checkProgram("hand-optimized", h, b.want)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
