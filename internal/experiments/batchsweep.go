package experiments

import (
	"io"
	"time"

	"relaxsched/internal/cq"
	"relaxsched/internal/engine"
	"relaxsched/internal/graph"
	"relaxsched/internal/sssp"
	"relaxsched/internal/stats"
)

// BatchSweepSizes are the worker batch sizes the sweep covers. Size 1 is
// the unbatched per-element protocol (the PR-1 baseline) so every recorded
// trajectory carries its own before/after comparison.
var BatchSweepSizes = []int{1, 8, 32, 64}

// ParallelSSSPStats are trial-averaged metrics of one parallel-SSSP
// configuration. BatchSweepRow embeds it, so a new metric added here flows
// into the recorded trajectory (the embedding keeps the JSON
// representation flat).
type ParallelSSSPStats struct {
	Overhead  float64 // tasks processed relaxed / tasks processed exact
	OverheadE float64
	OpsPerSec float64 // pops per second across all workers
	Speedup   float64 // sequential Dijkstra time / parallel time
	Millis    float64 // mean parallel wall time
	HostEnv
}

// measureParallelSSSP is the measurement protocol behind BatchSweep: it
// times c.trials() parallel-SSSP runs of one configuration, panics if any
// run's distances diverge from the exact ones, and returns the averaged
// metrics. seedFor keeps the sweep's historical seed schedule intact.
func measureParallelSSSP(c Config, g *graph.Graph, exact sssp.Result, seqTime time.Duration,
	opts sssp.ParallelOptions, seedFor func(trial int) uint64) ParallelSSSPStats {
	var ov, ops, sp, ms stats.Sample
	for trial := 0; trial < c.trials(); trial++ {
		opts.Seed = seedFor(trial)
		var pr sssp.ParallelResult
		elapsed := timeIt(func() { pr = sssp.ParallelWith(g, 0, opts) })
		if !sssp.Equal(pr.Dist, exact.Dist) {
			panic("experiments: parallel SSSP produced wrong distances")
		}
		ov.Add(float64(pr.Processed) / float64(exact.Reached))
		ops.Add(float64(pr.Popped) / elapsed.Seconds())
		sp.Add(seqTime.Seconds() / elapsed.Seconds())
		ms.Add(elapsed.Seconds() * 1e3) // fractional ms: runs are sub-ms at small scales
	}
	return ParallelSSSPStats{
		Overhead:  ov.Mean(),
		OverheadE: ov.StdErr(),
		OpsPerSec: ops.Mean(),
		Speedup:   sp.Mean(),
		Millis:    ms.Mean(),
		HostEnv:   Host(),
	}
}

// BatchSweepRow is one point of the batch-amortization sweep: parallel
// SSSP through one backend at one worker batch size. OpsPerSec counts
// popped pairs per second of wall time — the engine's end-to-end hot-path
// throughput — and Overhead shows what the amortization costs in
// relaxation quality (batched pops take whole runs from one internal
// structure, so ranks grow with the batch).
type BatchSweepRow struct {
	Graph   string
	Backend string
	Threads int
	Batch   int
	ParallelSSSPStats
}

// BatchSweepResult holds the full batch x backend x threads sweep.
type BatchSweepResult struct {
	Rows []BatchSweepRow
}

// BatchSweep measures what per-worker batching buys each backend on
// parallel SSSP: same graphs, same seeds, only the batch size (and with it
// the number of coordination rounds per element) varies. Batch size 1 is
// the paper's per-element protocol; larger sizes amortize one lock
// acquisition or CAS over the whole batch at the price of coarser
// relaxation. This is the experiment behind BENCH_PR2.json.
func BatchSweep(c Config) BatchSweepResult {
	var res BatchSweepResult
	for fi, fam := range Families() {
		g := fam.Gen(c, c.Seed+uint64(fi))
		exact := sssp.Dijkstra(g, 0)
		seqTime := timeIt(func() { sssp.Dijkstra(g, 0) })
		for _, backend := range cq.Backends() {
			for _, threads := range c.threadSweep() {
				for _, batch := range BatchSweepSizes {
					st := measureParallelSSSP(c, g, exact, seqTime, sssp.ParallelOptions{ExecOptions: engine.ExecOptions{
						Threads:         threads,
						QueueMultiplier: 2,
						Backend:         backend,
						BatchSize:       batch,
					}}, func(trial int) uint64 { return c.Seed ^ uint64(trial*10000+threads*100+batch) })
					res.Rows = append(res.Rows, BatchSweepRow{
						Graph:             fam.Name,
						Backend:           string(backend),
						Threads:           threads,
						Batch:             batch,
						ParallelSSSPStats: st,
					})
				}
			}
		}
	}
	return res
}

// Render writes the batch-sweep table.
func (r BatchSweepResult) Render(w io.Writer) error {
	t := stats.NewTable("graph", "backend", "threads", "batch", "overhead", "stderr", "ops/sec", "speedup", "ms")
	for _, row := range r.Rows {
		t.AddRow(row.Graph, row.Backend, row.Threads, row.Batch, row.Overhead, row.OverheadE, row.OpsPerSec, row.Speedup, row.Millis)
	}
	return t.Render(w)
}
