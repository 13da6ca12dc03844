// Command relaxsched-bench is the repository benchmark. It runs one workload
// for a fixed wall-clock budget, verifies every solve against a sequential
// oracle outside the timed region, and prints its metrics by name and unit,
// ending with one JSON object on the last line of standard output:
//
//	bash benchmark/run.sh --workload sssp-road --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics. --trace 1 is the traced run: it
// alternates untraced and traced solves, probes every layer the workload
// uses at the workload's own backend, batch size and thread count, reports
// the per-layer metrics, and writes the recorded spans to
// .bench_build/spans-<workload>-<seed>.jsonl. README.md lists the metrics
// and the end-to-end metric each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the JSON object printed as the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDef names a metric and its unit; the lists below are the exact
// metric sets BENCHMARK.json declares.
type metricDef struct{ name, unit string }

var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"solve_s_p50", "s"},
	{"solve_s_tail", "s"},
	{"pops_per_task", "ratio"},
	{"cpu_s_per_solve", "s"},
	{"alloc_b_per_task", "B"},
	{"max_rss_mb", "MB"},
	{"verified_frac", "ratio"},
}

var perLayerMetrics = []metricDef{
	{"graph.road_s", "s"},
	{"sssp.dijkstra_s", "s"},
	{"delaunay.triangulate_seq_s", "s"},
	{"txn.generate_s", "s"},
	{"sssp.processed_per_reached", "ratio"},
	{"sssp.stale_per_reached", "ratio"},
	{"delaunay.blocked_per_point", "ratio"},
	{"delaunay.tris_per_point", "ratio"},
	{"geom.incircle_ns", "ns"},
	{"geom.orient_ns", "ns"},
	{"txn.abort_ratio", "ratio"},
	{"txn.try_execute_ns", "ns"},
	{"txn.workload_share", "ratio"},
	{"txn.certify_s", "s"},
	{"sssp.verify_s", "s"},
	{"delaunay.verify_s", "s"},
	{"engine.noop_seeded_ns_per_task", "ns"},
	{"engine.noop_spawn_ns_per_task", "ns"},
	{"engine.share_est", "ratio"},
	{"cq.mixed.ns_per_op", "ns"},
	{"cq.mixed.empty_per_pop", "ratio"},
	{"cq.drain.ns_per_pop", "ns"},
	{"cq.drain.empty_per_pop", "ratio"},
	{"cq.batch.push_ns_per_pair", "ns"},
	{"cq.batch.pop_ns_per_pair", "ns"},
	{"cq.rank_err_mean", "count"},
	{"cq.rank_err_max", "count"},
	{"epoch.enter_exit_ns", "ns"},
	{"epoch.retire_ns", "ns"},
	{"inflight.produce_complete_ns", "ns"},
	{"inflight.quiescent_ns", "ns"},
	{"park.wake_none_ns", "ns"},
	{"park.roundtrip_us", "us"},
	{"baseline.t1_exact_s", "s"},
	{"baseline.speedup", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

func main() {
	name := flag.String("workload", "", "workload to run: "+fmt.Sprint(workloadNames()))
	seed := flag.Uint64("seed", 1, "input seed; per-solve engine seeds derive from it")
	seconds := flag.Int("seconds", 20, "wall-clock budget of the measured solve loop")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.Parse()
	spec, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: --workload %v --seed N --seconds S --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	fmt.Printf("workload %s  seed %d  seconds %d  trace %d  NumCPU %d  GOMAXPROCS %d  threads %d\n",
		*name, *seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), threads)

	s := &session{seed: *seed}
	budget := time.Duration(*seconds) * time.Second
	var rep report
	var err error
	if *trace == 0 {
		rep, err = s.endToEnd(spec, budget)
	} else {
		rep, err = s.traced(spec, budget)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// printMetrics prints every metric of defs in order, one per line.
func printMetrics(defs []metricDef, m map[string]metric) {
	for _, d := range defs {
		fmt.Printf("  %-32s %14.6g %s\n", d.name, m[d.name].Value, d.unit)
	}
}

// fill converts values keyed by metric name into the report's metric map,
// failing if defs names a metric that was not measured.
func fill(defs []metricDef, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out, nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
