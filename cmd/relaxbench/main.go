// Command relaxbench regenerates every table and figure of "Efficiency
// Guarantees for Parallel Incremental Algorithms under Relaxed Schedulers"
// (SPAA 2019) from this repository's implementations.
//
// Usage:
//
//	relaxbench [flags] <experiment> [<experiment>...]
//
// Experiments:
//
//	graphs        input-family statistics (Section 7 sample graphs)
//	fig1          Figure 1: SSSP overhead and speedup vs. thread count
//	fig1-overhead Figure 1 left only
//	fig1-speedup  Figure 1 right only
//	fig2          Figure 2: overhead vs. queue multiplier
//	batchsweep    batch size x backend x threads on parallel SSSP (its
//	              batch-1 column is the backends head-to-head)
//	thm33         Theorem 3.3: extra steps vs. n and k (adversarial)
//	thm51         Theorem 5.1 / Claim 1: MultiQueue lower bound
//	thm61         Theorem 6.1: relaxed SSSP pop counts
//	thm43         Theorem 4.3: transactional aborts
//	ablation      scheduler-family comparison (extension)
//	parinc        parallel incremental execution wasted work (extension)
//	iterative     greedy MIS / coloring under relaxed schedulers (extension)
//	bnb           Karp-Zhang branch-and-bound under relaxation (extension)
//	parbnb        parallel branch-and-bound: backends x threads (extension)
//	parmis        parallel greedy MIS / coloring: backends x threads (extension)
//	pardelaunay   parallel Delaunay triangulation: backends x threads,
//	              mesh verified against the sequential result (extension)
//	stream        streaming top-k job scheduler: external producers emit
//	              prioritized jobs at a configurable arrival rate while
//	              workers drain — backends x threads x arrival rates, with
//	              the rank error of the executed order vs. the true
//	              priority order and the p50/p99/p999 sojourn-latency
//	              quantiles per row (extension)
//	affinity      shard-affine vs. uniform handle placement on the
//	              lock-free backend: a pure queue microbenchmark isolating
//	              the home-shard cache-locality effect (extension)
//	chaos         engine throughput under seeded fault injection (worker
//	              stalls, forced re-insertions, poisoned tasks) vs. the
//	              fault-free baseline, with every run's books verified
//	              against the injector's ground truth (extension)
//	idlecost      idle CPU cost and wake-up latency of the engine's
//	              parking idle path: a stream held idle, then hit with a
//	              burst — process CPU over the quiet window next to the
//	              burst's sojourn-latency quantiles (extension)
//	txn           OCC transactional workload: backends x Zipf skews x
//	              threads, every run certified serializable (extension)
//	all           everything above
//
// The compare subcommand diffs two recorded trajectories:
//
//	relaxbench compare [-threshold PCT] OLD.json NEW.json
//
// printing per-experiment throughput deltas (rows matched by their identity
// columns) and exiting nonzero on malformed input — so BENCH_PR3.json vs
// BENCH_PR4.json is a one-liner. With -threshold PCT it also exits nonzero
// when any matched row regresses OpsPerSec by strictly more than PCT
// percent, which is how CI gates on recorded trajectories.
//
// Flags control workload scale; -scale 1 is the full-size run used in
// EXPERIMENTS.md, larger values shrink the workloads proportionally.
// -backend runs the parallel experiments on a specific concurrent queue
// (the batchsweep experiment always sweeps all of them), and
// -json replaces the text tables with one machine-readable JSON object per
// experiment on stdout. -out FILE additionally writes the same JSON-lines
// stream to FILE regardless of -json, which is how the per-PR BENCH_*.json
// trajectories at the repository root are recorded (see scripts/bench.sh).
//
// -cpuprofile FILE and -memprofile FILE capture pprof profiles of the
// selected experiments (the CPU profile spans every experiment run; the
// heap profile is written after the last one), so hot-path work on the
// queue backends can be profiled without ad-hoc patching:
//
//	relaxbench -scale 64 -cpuprofile cpu.pprof batchsweep
//	go tool pprof cpu.pprof
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"relaxsched/internal/cq"
	"relaxsched/internal/experiments"
)

func main() {
	var (
		scale      = flag.Int("scale", 1, "divide default workload sizes by this factor")
		trials     = flag.Int("trials", 3, "repetitions averaged per row")
		seed       = flag.Uint64("seed", 42, "workload random seed")
		maxThreads = flag.Int("maxthreads", 0, "cap the thread sweep (0 = NumCPU)")
		backend    = flag.String("backend", "", fmt.Sprintf("concurrent queue backend for parallel experiments (%v; empty = default)", cq.Backends()))
		jsonOut    = flag.Bool("json", false, "emit one JSON object per experiment instead of text tables")
		outPath    = flag.String("out", "", "also write the JSON-lines stream to this file (e.g. BENCH_PR2.json)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile spanning all selected experiments to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile (after the last experiment) to this file")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: relaxbench [flags] <experiment> [<experiment>...]\n       relaxbench compare [-threshold PCT] OLD.json NEW.json\nrun 'go doc relaxsched/cmd/relaxbench' for the experiment list\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() < 1 {
		flag.Usage()
		os.Exit(2)
	}
	if flag.Arg(0) == "compare" {
		cmp := flag.NewFlagSet("compare", flag.ExitOnError)
		threshold := cmp.Float64("threshold", -1, "exit nonzero when any matched row regresses OpsPerSec by more than this percentage (negative = report only)")
		cmp.Usage = func() {
			fmt.Fprintln(os.Stderr, compareUsage)
			cmp.PrintDefaults()
		}
		cmp.Parse(flag.Args()[1:])
		if cmp.NArg() != 2 {
			fmt.Fprintln(os.Stderr, compareUsage)
			os.Exit(2)
		}
		if err := compareThreshold(cmp.Arg(0), cmp.Arg(1), *threshold, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "relaxbench: compare: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if !cq.Backend(*backend).Valid() {
		fmt.Fprintf(os.Stderr, "relaxbench: unknown backend %q (have %v)\n", *backend, cq.Backends())
		os.Exit(2)
	}
	cfg := experiments.Config{
		Seed:       *seed,
		Trials:     *trials,
		GraphScale: *scale,
		MaxThreads: *maxThreads,
		Backend:    cq.Backend(*backend),
	}
	// Validate every experiment name before touching the -out file: a typo
	// must not truncate a previously recorded trajectory.
	for _, exp := range flag.Args() {
		if !knownExperiment(exp) {
			fmt.Fprintf(os.Stderr, "relaxbench: unknown experiment %q\n", exp)
			os.Exit(2)
		}
	}
	out := output{json: *jsonOut, w: os.Stdout}
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "relaxbench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		out.record = f
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "relaxbench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "relaxbench: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	for _, exp := range flag.Args() {
		if err := run(exp, cfg, out); err != nil {
			fmt.Fprintf(os.Stderr, "relaxbench: %v\n", err)
			os.Exit(1)
		}
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "relaxbench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC() // settle live-heap accounting before the snapshot
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "relaxbench: memprofile: %v\n", err)
			os.Exit(1)
		}
	}
}

// output selects between human-readable tables and machine-readable JSON
// on stdout; record, if non-nil, additionally receives the JSON-lines
// stream (the per-PR benchmark-trajectory file).
type output struct {
	json   bool
	w      io.Writer
	record io.Writer
}

// renderable is any experiment result that can print itself as a table.
type renderable interface {
	Render(w io.Writer) error
}

// emit writes one experiment result: a titled text table, or in JSON mode a
// single {"experiment": ..., "rows"/...: ...} object per line, so `relaxbench
// -json all` produces a JSON-lines stream. The record file, when set,
// always receives the JSON form.
func (o output) emit(name, title string, res renderable) error {
	if err := o.recordJSON(name, res); err != nil {
		return err
	}
	if o.json {
		return encodeJSON(o.w, name, res)
	}
	fmt.Fprintf(o.w, "\n== %s ==\n\n", title)
	return res.Render(o.w)
}

func (o output) emitJSON(name string, result any) error {
	if err := o.recordJSON(name, result); err != nil {
		return err
	}
	return encodeJSON(o.w, name, result)
}

func (o output) recordJSON(name string, result any) error {
	if o.record == nil {
		return nil
	}
	return encodeJSON(o.record, name, result)
}

func encodeJSON(w io.Writer, name string, result any) error {
	return json.NewEncoder(w).Encode(struct {
		Experiment string `json:"experiment"`
		Result     any    `json:"result"`
	}{Experiment: name, Result: result})
}

// experimentSpec couples an experiment driver with its table title.
type experimentSpec struct {
	title string
	run   func(experiments.Config) (renderable, error)
}

// noErr adapts an error-free experiment driver to the common shape.
func noErr[R renderable](f func(experiments.Config) R) func(experiments.Config) (renderable, error) {
	return func(c experiments.Config) (renderable, error) { return f(c), nil }
}

// withErr adapts a fallible experiment driver to the common shape.
func withErr[R renderable](f func(experiments.Config) (R, error)) func(experiments.Config) (renderable, error) {
	return func(c experiments.Config) (renderable, error) { return f(c) }
}

// experimentTable maps experiment names to drivers; fig1 and its variants
// are dispatched separately (one sweep renders two tables).
var experimentTable = map[string]experimentSpec{
	"graphs":      {"Input families (Section 7 sample graphs)", noErr(experiments.Graphs)},
	"fig2":        {"Figure 2: SSSP relaxation overhead vs. queue multiplier", noErr(func(c experiments.Config) experiments.Fig2Result { return experiments.Fig2(c, nil) })},
	"batchsweep":  {"Batch amortization: batch size x backend x threads (parallel SSSP)", noErr(experiments.BatchSweep)},
	"thm33":       {"Theorem 3.3: extra steps under the adversarial k-relaxed scheduler", withErr(experiments.Thm33)},
	"thm51":       {"Theorem 5.1 / Claim 1: MultiQueue lower bound (extra steps >= (1/8) ln n)", withErr(experiments.Thm51)},
	"thm61":       {"Theorem 6.1: relaxed SSSP pops <= n + O(k^2 dmax/wmin)", withErr(experiments.Thm61)},
	"thm43":       {"Theorem 4.3: transactional aborts O(k^2 (C+k)^2 log n)", withErr(experiments.Thm43)},
	"ablation":    {"Ablation: scheduler families on identical workloads", withErr(experiments.Ablation)},
	"parinc":      {"Extension: parallel incremental execution (goroutines over concurrent relaxed queues)", withErr(experiments.ParInc)},
	"iterative":   {"Extension: greedy iterative algorithms (MIS, coloring) under relaxed schedulers", withErr(experiments.Iterative)},
	"bnb":         {"Extension: Karp-Zhang branch-and-bound under relaxed schedulers", withErr(experiments.BnB)},
	"parbnb":      {"Extension: parallel branch-and-bound (engine workload, backends x threads)", withErr(experiments.ParBnB)},
	"parmis":      {"Extension: parallel greedy MIS / coloring (engine workload, backends x threads)", withErr(experiments.ParMIS)},
	"pardelaunay": {"Extension: parallel Delaunay triangulation (on-line DAG discovery, backends x threads)", withErr(experiments.ParDelaunay)},
	"stream":      {"Extension: streaming top-k job scheduler (external producers, backends x threads x arrival rates)", withErr(experiments.Stream)},
	"affinity":    {"Extension: shard-affine vs. uniform handle placement (lock-free backend microbenchmark)", noErr(experiments.Affinity)},
	"chaos":       {"Extension: fault-injection overhead (seeded stalls, forced blocks, poisoned tasks; backends x threads)", withErr(experiments.Chaos)},
	"txn":         {"Extension: OCC transactional workload (self-certifying serializability; backends x Zipf skews x threads)", withErr(experiments.Txn)},
	"idlecost":    {"Extension: idle CPU cost and wake-up latency of the parking idle path", withErr(experiments.IdleCost)},
}

// allOrder is the order `relaxbench all` runs experiments in.
var allOrder = []string{"graphs", "fig1", "fig2", "batchsweep", "thm33", "thm51", "thm61", "thm43", "ablation", "parinc", "iterative", "bnb", "parbnb", "parmis", "pardelaunay", "stream", "affinity", "chaos", "idlecost", "txn"}

// knownExperiment reports whether exp is a name run can dispatch.
func knownExperiment(exp string) bool {
	switch exp {
	case "fig1", "fig1-overhead", "fig1-speedup", "all":
		return true
	}
	_, ok := experimentTable[exp]
	return ok
}

func run(exp string, cfg experiments.Config, out output) error {
	switch exp {
	case "fig1":
		return runFig1(cfg, out, true, true)
	case "fig1-overhead":
		return runFig1(cfg, out, true, false)
	case "fig1-speedup":
		return runFig1(cfg, out, false, true)
	case "all":
		for _, e := range allOrder {
			if err := run(e, cfg, out); err != nil {
				return fmt.Errorf("%s: %w", e, err)
			}
		}
		return nil
	}
	spec, ok := experimentTable[exp]
	if !ok {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	res, err := spec.run(cfg)
	if err != nil {
		return err
	}
	return out.emit(exp, spec.title, res)
}

// runFig1 handles Figure 1's two tables (left: overheads, right: speedups)
// sharing one sweep.
func runFig1(cfg experiments.Config, out output, overheads, speedups bool) error {
	res := experiments.Fig1(cfg)
	name := "fig1"
	switch {
	case overheads && !speedups:
		name = "fig1-overhead"
	case speedups && !overheads:
		name = "fig1-speedup"
	}
	if out.json {
		return out.emitJSON(name, res)
	}
	if err := out.recordJSON(name, res); err != nil {
		return err
	}
	if overheads {
		fmt.Fprintf(out.w, "\n== %s ==\n\n", "Figure 1 (left): SSSP relaxation overhead vs. threads (queues = 2x threads)")
		if err := res.RenderOverheads(out.w); err != nil {
			return err
		}
	}
	if speedups {
		fmt.Fprintf(out.w, "\n== %s ==\n\n", "Figure 1 (right): SSSP speedup vs. threads")
		if err := res.RenderSpeedups(out.w); err != nil {
			return err
		}
	}
	return nil
}
