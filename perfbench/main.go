// Command perfbench is the repository's benchmark: it drives one workload
// through the engine's public entry points for a fixed time, checks every
// output against an oracle computed outside the engine, and prints every
// metric by name and unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	bash perfbench/run.sh --workload tc-stream --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload tc-stream --compare 5 --seconds 30
//
// With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones; see README.md.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

type metric struct{ name, unit string }

// endToEnd are the metrics a user sees; every workload reports each.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"live_heap_mb", "MB"},
	{"run_s", "s"},
	{"rerun_s", "s"},
	{"restart_s", "s"},
	{"apply_delete_ms", "ms"},
	{"apply_insert_ms", "ms"},
	{"visible_delete_ms", "ms"},
	{"visible_insert_ms", "ms"},
	{"query_ms", "ms"},
}

// perLayer are the metrics a traced run reports.
var perLayer = []metric{
	{"parser.load_ms", "ms"},
	{"storage.insert_ns", "ns"},
	{"storage.probe_ns", "ns"},
	{"storage.bytes_per_row", "B"},
	{"storage.delete_ms", "ms"},
	{"optimizer.reorder_us", "us"},
	{"interp.iterations", "count"},
	{"interp.derivations", "count"},
	{"interp.spj_runs", "count"},
	{"interp.plan_builds", "count"},
	{"interp.rerun_plan_builds", "count"},
	{"interp.reopts", "count"},
	{"interp.merge_tasks", "count"},
	{"interp.seq_iters", "count"},
	{"interp.retracted", "count"},
	{"interp.rederived", "count"},
	{"interp.eval_ms", "ms"},
	{"jit.compilations", "count"},
	{"jit.restart_compilations", "count"},
	{"jit.compile_ms", "ms"},
	{"jit.unit_compile_us", "us"},
	{"plancache.hits", "count"},
	{"plancache.misses", "count"},
	{"plancache.crossrun_hits", "count"},
	{"plancache.disk_hits", "count"},
	{"plancache.disk_load_ms", "ms"},
	{"core.session_open_ms", "ms"},
	{"core.hit_us", "us"},
	{"core.ingest_ms", "ms"},
	{"core.publish_ms", "ms"},
	{"core.warm_starts", "count"},
	{"core.apply_cold", "count"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"self.bench_ms", "ms"},
	{"self.core_ms", "ms"},
	{"self.oracle_ms", "ms"},
	{"self.parser_ms", "ms"},
	{"self.storage_ms", "ms"},
	{"self.optimizer_ms", "ms"},
	{"self.jit_ms", "ms"},
	{"self.plancache_ms", "ms"},
	{"self.interp_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: cspa-unopt, tc-parallel or tc-stream")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 30, "how long to measure")
	trace := fs.Int("trace", 0, "1 runs the traced mode and reports per-layer metrics")
	compare := fs.Int("compare", 0, "run two sets of this many runs each in child processes and compare them")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	w := findWorkload(*name)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	if *compare > 0 {
		return compareSets(w.name, *seed, *seconds, *trace, *compare)
	}
	printHost()
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	t0 := time.Now()
	b := newBench(w, *seed, tmp)
	fmt.Printf("workload %s seed %d: oracle computed in %.2fs\n", w.name, *seed, time.Since(t0).Seconds())
	var tr *tracer
	if *trace == 1 {
		tr = &tracer{t0: time.Now()}
	}
	b.tr = tr
	for i := 0; i < setups; i++ {
		cpu, wall, err := b.setup()
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: setup failed:", err)
			return 1
		}
		b.record("setup_s", cpu, wall)
	}

	start := time.Now()
	budget := time.Duration(*seconds) * time.Second
	n := 0
	for ; time.Since(start) < budget || (tr != nil && n < 2); n++ {
		// A traced run alternates untraced and traced rounds, so the
		// tracing overhead is measured in one process.
		traced := tr != nil && n%2 == 1
		b.tr = nil
		if traced {
			b.tr = tr
		}
		from := 0
		if tr != nil {
			from = len(tr.spans)
		}
		r0 := time.Now()
		b.round(n)
		rd := time.Since(r0)
		if tr == nil {
			continue
		}
		if !traced {
			b.rec.add("round.untraced_s", "s", rd.Seconds())
			continue
		}
		b.rec.add("round.traced_s", "s", rd.Seconds())
		b.probeLayers()
		self := tr.selfTimes(from)
		for _, l := range []string{"bench", "core", "oracle", "parser", "storage", "optimizer", "jit", "plancache", "interp"} {
			b.rec.add("self."+l+"_ms", "ms", ms(self[l]))
		}
		for k, v := range b.layers {
			b.rec.add(k, "", v)
		}
	}
	b.tr = tr
	b.formulations()
	fmt.Printf("%d rounds in %.1fs\n", n, time.Since(start).Seconds())

	list := endToEnd
	if tr != nil {
		list = perLayer
		ut, tt := median(b.rec.samples["round.untraced_s"]), median(b.rec.samples["round.traced_s"])
		if ut > 0 {
			b.rec.add("trace.overhead_pct", "%", (tt/ut-1)*100)
		}
		path := spanPath(w.name, *seed)
		if err := tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		} else {
			fmt.Printf("%d spans written to %s\n", len(tr.spans), path)
		}
	}
	out := map[string]any{}
	for _, m := range list {
		vs := b.rec.samples[m.name]
		v := median(vs)
		q1, q3 := quartiles(vs)
		fmt.Printf("%-26s %14.4f %-5s  n=%-3d q1=%.4f q3=%.4f", m.name, v, m.unit, len(vs), q1, q3)
		if ws, ok := b.rec.samples["wall."+m.name]; ok {
			fmt.Printf("  wall median %.4f", median(ws))
		}
		fmt.Println()
		out[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	for _, s := range b.mismatch {
		fmt.Println("MISMATCH", s)
	}
	// A map of strings, numbers and booleans always marshals.
	res, _ := json.Marshal(map[string]any{
		"correct":   len(b.mismatch) == 0,
		"attempted": b.attempted,
		"failed":    b.failed,
		"metrics":   out,
	})
	fmt.Println(string(res))
	return 0
}

func workloadNames() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, ", ")
}

// printHost prints what the figures depend on.
func printHost() {
	model := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	fmt.Printf("host: %d cores, %s, GOMAXPROCS %d, %s %s/%s\n",
		runtime.NumCPU(), model, runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}

// compareSets runs two sets of runs runs each, as child processes with
// distinct seeds, and prints every metric's median and quartiles per set
// and the difference of the medians.
func compareSets(name string, seed int64, seconds, trace, runs int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	var sets [2]map[string][]float64
	units := map[string]string{}
	fails := [2][2]int{}
	for s := range sets {
		sets[s] = map[string][]float64{}
		for i := 0; i < runs; i++ {
			sd := seed + int64(s*runs+i)
			cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatInt(sd, 10),
				"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
			cmd.Stderr = os.Stderr
			outb, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: run with seed %d: %v\n", sd, err)
				return 1
			}
			lines := strings.Split(strings.TrimSpace(string(outb)), "\n")
			var res struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.NewDecoder(bytes.NewReader([]byte(lines[len(lines)-1]))).Decode(&res); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: run with seed %d printed no result: %v\n", sd, err)
				return 1
			}
			if !res.Correct {
				fmt.Fprintf(os.Stderr, "perfbench: run with seed %d reported wrong outputs\n", sd)
			}
			fails[s][0] += res.Attempted
			fails[s][1] += res.Failed
			for k, v := range res.Metrics {
				sets[s][k] = append(sets[s][k], v.Value)
				units[k] = v.Unit
			}
			fmt.Fprintf(os.Stderr, "set %d run %d (seed %d) done\n", s+1, i+1, sd)
		}
	}
	names := make([]string, 0, len(units))
	for k := range units {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("%-26s %-5s %12s %12s %12s %7s | %12s %7s | %7s\n", "metric", "unit", "A median", "A q1", "A q3", "A iqr%", "B median", "B iqr%", "B-A %")
	for _, k := range names {
		a, bv := sets[0][k], sets[1][k]
		ma, mb := median(a), median(bv)
		a1, a3 := quartiles(a)
		b1, b3 := quartiles(bv)
		fmt.Printf("%-26s %-5s %12.4f %12.4f %12.4f %7.2f | %12.4f %7.2f | %7.2f\n",
			k, units[k], ma, a1, a3, pct(a3-a1, ma), mb, pct(b3-b1, mb), pct(mb-ma, ma))
	}
	fmt.Printf("failed/attempted: set A %d/%d, set B %d/%d\n", fails[0][1], fails[0][0], fails[1][1], fails[1][0])
	return 0
}

func pct(x, base float64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * x / base
}
