// Benchmarks, one per table and figure of the paper (see DESIGN.md's
// per-experiment index). Each benchmark runs the same experiment driver as
// cmd/relaxbench at a reduced scale and reports the headline metric of the
// corresponding plot via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// regenerates every row family the paper reports. For full-scale numbers
// use: go run ./cmd/relaxbench -scale 1 all (recorded in EXPERIMENTS.md).
package relaxsched_test

import (
	"fmt"
	"testing"

	"relaxsched"
	"relaxsched/internal/experiments"
)

// benchConfig is sized so a single iteration takes well under a second.
func benchConfig() experiments.Config {
	return experiments.Config{Seed: 42, Trials: 1, GraphScale: 32, MaxThreads: 8}
}

// BenchmarkGraphGen regenerates the input-statistics table (Section 7's
// sample-graph list).
func BenchmarkGraphGen(b *testing.B) {
	c := benchConfig()
	var road experiments.GraphRow
	for i := 0; i < b.N; i++ {
		res := experiments.Graphs(c)
		road = res.Rows[1]
	}
	b.ReportMetric(float64(road.HopDiameter), "road-hop-diam")
	b.ReportMetric(road.DmaxOverWmin, "road-dmax/wmin")
}

// BenchmarkFig1Overhead regenerates Figure 1 (left): SSSP relaxation
// overhead vs. threads. The reported metrics are the overheads at the
// highest thread count.
func BenchmarkFig1Overhead(b *testing.B) {
	c := benchConfig()
	var last experiments.Fig1Result
	for i := 0; i < b.N; i++ {
		last = experiments.Fig1(c)
	}
	for _, row := range last.Rows {
		if row.Threads == c.MaxThreads {
			b.ReportMetric(row.Overhead, row.Graph+"-overhead")
		}
	}
}

// BenchmarkFig1Speedup regenerates Figure 1 (right): SSSP speedup vs.
// threads.
func BenchmarkFig1Speedup(b *testing.B) {
	c := benchConfig()
	var last experiments.Fig1Result
	for i := 0; i < b.N; i++ {
		last = experiments.Fig1(c)
	}
	for _, row := range last.Rows {
		if row.Threads == c.MaxThreads {
			b.ReportMetric(row.Speedup, row.Graph+"-speedup")
		}
	}
}

// BenchmarkFig2 regenerates Figure 2: overhead vs. queue multiplier at a
// fixed thread count; the reported metric is the road overhead at the
// largest multiplier (the paper's most relaxation-sensitive point).
func BenchmarkFig2(b *testing.B) {
	c := benchConfig()
	var last experiments.Fig2Result
	for i := 0; i < b.N; i++ {
		last = experiments.Fig2(c, []int{4})
	}
	for _, row := range last.Rows {
		if row.Graph == "road" && row.Multiplier == 8 {
			b.ReportMetric(row.Overhead, "road-mult8-overhead")
		}
	}
}

// BenchmarkThm33 regenerates the Theorem 3.3 table: extra steps under the
// adversarial k-relaxed scheduler; reports the log-fit quality of the
// n-sweep (1.0 = perfectly logarithmic growth).
func BenchmarkThm33(b *testing.B) {
	c := benchConfig()
	var last experiments.Thm33Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Thm33(c)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.LogFitR2[experiments.AlgoSort], "sort-logfit-r2")
	b.ReportMetric(last.LogFitR2[experiments.AlgoDelaunay], "delaunay-logfit-r2")
}

// BenchmarkThm51 regenerates the Theorem 5.1 / Claim 1 lower-bound table;
// reports the measured adjacent-inversion rate (Claim 1 floor: 0.125).
func BenchmarkThm51(b *testing.B) {
	c := benchConfig()
	var last experiments.Thm51Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Thm51(c)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	row := last.Rows[len(last.Rows)-1]
	b.ReportMetric(row.InvRate, "inv-rate")
	b.ReportMetric(row.ExtraSteps/row.LowerBound, "extra/floor")
}

// BenchmarkThm61 regenerates the Theorem 6.1 table: relaxed SSSP pop
// counts; reports extra pops per unit of k^2*dmax/wmin for the road family
// at the largest k (the theorem's leading term).
func BenchmarkThm61(b *testing.B) {
	c := benchConfig()
	var last experiments.Thm61Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Thm61(c)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	for _, row := range last.Rows {
		if row.Graph == "road" && row.Scheduler == "k-relaxed" && row.K == 64 {
			b.ReportMetric(row.ExtraPops, "road-k64-extra-pops")
		}
	}
}

// BenchmarkThm43 regenerates the Theorem 4.3 transactional-abort table;
// reports the log-fit quality of the abort growth.
func BenchmarkThm43(b *testing.B) {
	c := benchConfig()
	var last experiments.Thm43Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Thm43(c)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.LogFitR2, "aborts-logfit-r2")
}

// BenchmarkParInc runs the parallel incremental execution extension;
// reports the wasted-pop rate of the Delaunay DAG at the highest thread
// count.
func BenchmarkParInc(b *testing.B) {
	c := benchConfig()
	var last experiments.ParIncResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.ParInc(c)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	for _, row := range last.Rows {
		if row.Algo == experiments.AlgoDelaunay && row.Threads == c.MaxThreads {
			b.ReportMetric(row.ExtraRate, "delaunay-extra/n")
		}
	}
}

// BenchmarkIterative runs the greedy MIS / coloring extension (the
// future-work generalization named in the paper's conclusion); reports
// MIS extra steps per ln n at the largest n.
func BenchmarkIterative(b *testing.B) {
	c := benchConfig()
	var last experiments.IterativeResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.Iterative(c)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	for _, row := range last.Rows {
		if row.Algo == "greedy-mis" && row.Scheduler == "k-relaxed" {
			b.ReportMetric(row.PerLogN, "mis-extra/ln(n)")
		}
	}
}

// BenchmarkBnB runs the Karp-Zhang branch-and-bound extension; reports
// the work overhead of the k=64 adversarial scheduler over exact
// best-first search.
func BenchmarkBnB(b *testing.B) {
	c := benchConfig()
	var last experiments.BnBResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.BnB(c)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	for _, row := range last.Rows {
		if row.Scheduler == "k-relaxed" && row.K == 64 {
			b.ReportMetric(row.Overhead, "k64-work-overhead")
		}
	}
}

// BenchmarkAblation runs the scheduler-family comparison (the extension
// table in DESIGN.md); reports the MultiQueue mean rank at 2 choices.
func BenchmarkAblation(b *testing.B) {
	c := benchConfig()
	var last experiments.AblationResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.Ablation(c)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	for _, row := range last.Rows {
		if row.Scheduler == "mq8-c2" {
			b.ReportMetric(row.MeanRank, "mq8-c2-mean-rank")
		}
	}
}

// BenchmarkParallelSSSP sweeps the parallel engine's two hot-path axes —
// queue backend and worker batch size — on one road-like graph, so
// `go test -bench=ParallelSSSP` shows the batch amortization before/after
// locally. Batch 1 is the per-element PR-1 protocol; larger batches
// amortize one lock acquisition or CAS per batch. The reported metric is
// pops per second of wall time (the same ops/sec the batchsweep experiment
// records in BENCH_PR2.json).
func BenchmarkParallelSSSP(b *testing.B) {
	g := relaxsched.RoadGraphWith(relaxsched.RoadGraphOptions{Width: 120, Height: 120, MaxWeight: 1000, DropPerMille: 100, Seed: 7})
	for _, backend := range relaxsched.QueueBackends() {
		for _, batch := range []int{1, 8, 64} {
			b.Run(fmt.Sprintf("%s/batch%d", backend, batch), func(b *testing.B) {
				var popped int64
				for i := 0; i < b.N; i++ {
					res := relaxsched.ParallelSSSPWith(g, 0, relaxsched.ParallelSSSPOptions{ExecOptions: relaxsched.ExecOptions{Threads: 4, QueueMultiplier: 2, Backend: backend, BatchSize: batch, Seed: uint64(i)}})
					popped += res.Popped
				}
				b.ReportMetric(float64(popped)/b.Elapsed().Seconds(), "pops/sec")
			})
		}
	}
}

// BenchmarkBatchSweep regenerates the batchsweep experiment (the
// BENCH_PR2.json trajectory) at benchmark scale; the reported metrics are
// the road-graph ops/sec of the default backend unbatched vs. at the
// largest batch, i.e. the headline amortization win, plus every backend's
// batch-1 overhead and ops/sec — the cq design axis head-to-head — at the
// highest thread count.
func BenchmarkBatchSweep(b *testing.B) {
	c := benchConfig()
	var last experiments.BatchSweepResult
	for i := 0; i < b.N; i++ {
		last = experiments.BatchSweep(c)
	}
	maxBatch := experiments.BatchSweepSizes[len(experiments.BatchSweepSizes)-1]
	for _, row := range last.Rows {
		if row.Threads != c.MaxThreads || row.Graph != "road" {
			continue
		}
		if row.Batch == 1 {
			b.ReportMetric(row.Overhead, row.Backend+"-overhead")
			b.ReportMetric(row.OpsPerSec, row.Backend+"-ops/sec")
		}
		if row.Backend == "multiqueue" {
			switch row.Batch {
			case 1:
				b.ReportMetric(row.OpsPerSec, "unbatched-ops/sec")
			case maxBatch:
				b.ReportMetric(row.OpsPerSec, fmt.Sprintf("batch%d-ops/sec", maxBatch))
			}
		}
	}
}
