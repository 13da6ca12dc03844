package experiments

import (
	"bytes"
	"strings"
	"testing"

	"relaxsched/internal/cq"
)

func TestFig1Smoke(t *testing.T) {
	c := SmokeConfig()
	res := Fig1(c)
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	families := map[string]bool{}
	for _, row := range res.Rows {
		families[row.Graph] = true
		if row.Overhead < 0.999 {
			t.Fatalf("overhead %.3f < 1 on %s@%d", row.Overhead, row.Graph, row.Threads)
		}
		if row.Overhead > 5 {
			t.Fatalf("overhead %.3f implausible on %s@%d", row.Overhead, row.Graph, row.Threads)
		}
		if row.Speedup <= 0 {
			t.Fatalf("non-positive speedup on %s@%d", row.Graph, row.Threads)
		}
	}
	if len(families) != 3 {
		t.Fatalf("families covered: %v", families)
	}
	var buf bytes.Buffer
	if err := res.RenderOverheads(&buf); err != nil {
		t.Fatal(err)
	}
	if err := res.RenderSpeedups(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "random") {
		t.Fatal("render missing family name")
	}
}

func TestBatchSweepSmoke(t *testing.T) {
	c := SmokeConfig()
	res := BatchSweep(c)
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	seenBatch := map[int]bool{}
	for _, row := range res.Rows {
		seenBatch[row.Batch] = true
		if row.OpsPerSec <= 0 {
			t.Fatalf("%s/%s batch %d: non-positive ops/sec", row.Graph, row.Backend, row.Batch)
		}
		if row.Overhead < 0.999 {
			t.Fatalf("%s/%s batch %d: overhead %.3f < 1", row.Graph, row.Backend, row.Batch, row.Overhead)
		}
	}
	for _, b := range BatchSweepSizes {
		if !seenBatch[b] {
			t.Fatalf("batch size %d missing from sweep", b)
		}
	}
	if !seenBatch[1] {
		t.Fatal("unbatched baseline (batch 1) missing: trajectories need their own before/after")
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "batch") {
		t.Fatal("render missing batch column")
	}
}

func TestFig2Smoke(t *testing.T) {
	c := SmokeConfig()
	res := Fig2(c, []int{2})
	want := 3 * len(Fig2Multipliers)
	if len(res.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(res.Rows), want)
	}
	for _, row := range res.Rows {
		if row.Overhead < 0.999 || row.Overhead > 5 {
			t.Fatalf("overhead %.3f out of range", row.Overhead)
		}
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestFig2DefaultThreads(t *testing.T) {
	c := SmokeConfig()
	res := Fig2(c, nil)
	if len(res.Rows) == 0 {
		t.Fatal("no rows with default thread counts")
	}
}

func TestThm33Smoke(t *testing.T) {
	c := SmokeConfig()
	res, err := Thm33(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2*(4+5) {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.K == 1 && row.ExtraSteps != 0 {
			t.Fatalf("k=1 has %f extra steps", row.ExtraSteps)
		}
		if row.ExtraSteps < 0 {
			t.Fatal("negative extra steps")
		}
		// Trivial bound: the adversary wastes at most k-1 steps per task.
		if row.ExtraSteps > float64(row.K)*float64(row.N) {
			t.Fatalf("extra steps %f exceed trivial bound k*n (k=%d, n=%d)",
				row.ExtraSteps, row.K, row.N)
		}
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "log-fit") {
		t.Fatal("render missing fit line")
	}
}

func TestThm51Smoke(t *testing.T) {
	c := SmokeConfig()
	res, err := Thm51(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.ExtraSteps < row.LowerBound {
			t.Fatalf("%s n=%d: extra steps %.1f below theoretical floor %.1f",
				row.Algo, row.N, row.ExtraSteps, row.LowerBound)
		}
		if row.InvRate < 1.0/8 {
			t.Fatalf("%s n=%d: inversion rate %.3f below Claim 1's 1/8",
				row.Algo, row.N, row.InvRate)
		}
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestThm61Smoke(t *testing.T) {
	c := SmokeConfig()
	res, err := Thm61(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.Scheduler == "k-relaxed" && row.K == 1 && row.ExtraPops != 0 {
			t.Fatalf("exact scheduler with extra pops: %+v", row)
		}
		if row.ExtraPops < 0 {
			t.Fatalf("negative extra pops: %+v", row)
		}
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestThm43Smoke(t *testing.T) {
	c := SmokeConfig()
	res, err := Thm43(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4+5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.K == 1 && row.Workers == 4 {
			// k=1 serializes availability but workers may still overlap on
			// a chain of dependents; just require finite values.
			if row.Aborts < 0 {
				t.Fatal("negative aborts")
			}
		}
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestGraphsSmoke(t *testing.T) {
	c := SmokeConfig()
	res := Graphs(c)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byName := map[string]GraphRow{}
	for _, row := range res.Rows {
		byName[row.Name] = row
		if row.Nodes <= 0 || row.Arcs <= 0 || row.WMin < 1 {
			t.Fatalf("bad stats: %+v", row)
		}
	}
	// The road family must have the largest hop diameter — that ordering
	// is what explains Figure 1's overhead ordering.
	if byName["road"].HopDiameter <= byName["random"].HopDiameter ||
		byName["road"].HopDiameter <= byName["social"].HopDiameter {
		t.Fatalf("road diameter not dominant: %+v", res.Rows)
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestAblationSmoke(t *testing.T) {
	c := SmokeConfig()
	res, err := Ablation(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 8 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	var exactRow, mq1, mq4 *AblationRow
	for i := range res.Rows {
		switch res.Rows[i].Scheduler {
		case "exact":
			exactRow = &res.Rows[i]
		case "mq8-c1":
			mq1 = &res.Rows[i]
		case "mq8-c4":
			mq4 = &res.Rows[i]
		}
	}
	if exactRow == nil || mq1 == nil || mq4 == nil {
		t.Fatal("zoo rows missing")
	}
	if exactRow.MeanRank != 1 || exactRow.SortExtra != 0 {
		t.Fatalf("exact row: %+v", exactRow)
	}
	// More probing choices = tighter ranks.
	if mq4.MeanRank > mq1.MeanRank {
		t.Fatalf("c4 rank %.2f worse than c1 %.2f", mq4.MeanRank, mq1.MeanRank)
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestParIncSmoke(t *testing.T) {
	c := SmokeConfig()
	res, err := ParInc(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range res.Rows {
		if row.Extra < 0 {
			t.Fatalf("negative extra: %+v", row)
		}
		if row.Threads == 1 && row.Extra != 0 {
			// One thread + multiplier 2 still has 2 queues, so small waste
			// is possible; just require it to be tiny relative to n.
			if row.ExtraRate > 0.5 {
				t.Fatalf("single-thread waste too large: %+v", row)
			}
		}
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestConfigSweeps(t *testing.T) {
	c := Config{MaxThreads: 8}
	sweep := c.threadSweep()
	want := []int{1, 2, 4, 8}
	if len(sweep) != len(want) {
		t.Fatalf("sweep = %v", sweep)
	}
	for i := range want {
		if sweep[i] != want[i] {
			t.Fatalf("sweep = %v", sweep)
		}
	}
	c = Config{MaxThreads: 6}
	sweep = c.threadSweep()
	if sweep[len(sweep)-1] != 6 {
		t.Fatalf("sweep = %v", sweep)
	}
	if DefaultConfig().maxThreads() < 1 {
		t.Fatal("default maxThreads")
	}
}

func TestParBnBSmoke(t *testing.T) {
	c := SmokeConfig()
	res, err := ParBnB(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	if res.ExactExpanded < 1 {
		t.Fatalf("exact expanded %v", res.ExactExpanded)
	}
	for _, row := range res.Rows {
		if row.OpsPerSec <= 0 {
			t.Fatalf("non-positive throughput: %+v", row)
		}
		if row.Expanded < res.ExactExpanded/2 {
			t.Fatalf("implausibly few expansions: %+v", row)
		}
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestParMISSmoke(t *testing.T) {
	c := SmokeConfig()
	res, err := ParMIS(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	algos := map[string]bool{}
	for _, row := range res.Rows {
		algos[row.Algo] = true
		if row.Extra < 0 || row.OpsPerSec <= 0 {
			t.Fatalf("implausible row: %+v", row)
		}
	}
	if !algos["greedy-mis"] || !algos["greedy-coloring"] {
		t.Fatalf("missing an algorithm: %v", algos)
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestStreamSmoke(t *testing.T) {
	c := SmokeConfig()
	res, err := Stream(c)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(cq.Backends()) * len(c.threadSweep()) * len(StreamRates); len(res.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(res.Rows), want)
	}
	backends := map[string]bool{}
	rates := map[int]bool{}
	for _, row := range res.Rows {
		backends[row.Backend] = true
		rates[row.Rate] = true
		if row.OpsPerSec <= 0 || row.N < 500 || row.Producers != streamProducers {
			t.Fatalf("implausible row: %+v", row)
		}
		if row.MeanRankErr < 0 || row.MaxRankErr < row.MeanRankErr || float64(row.N) <= row.MaxRankErr {
			t.Fatalf("implausible rank error: %+v", row)
		}
		if row.RankErrPerJob < 0 || row.RankErrPerJob >= 1 {
			t.Fatalf("rank error per job out of [0, 1): %+v", row)
		}
	}
	if len(backends) != len(cq.Backends()) {
		t.Fatalf("expected all %d backends, got %v", len(cq.Backends()), backends)
	}
	for _, r := range StreamRates {
		if !rates[r] {
			t.Fatalf("arrival rate %d missing from sweep", r)
		}
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "rank-err") {
		t.Fatal("render missing rank-error column")
	}
}

func TestParDelaunaySmoke(t *testing.T) {
	c := SmokeConfig()
	res, err := ParDelaunay(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	backends := map[string]bool{}
	for _, row := range res.Rows {
		backends[row.Backend] = true
		if row.Blocked < 0 || row.OpsPerSec <= 0 || row.N < 256 {
			t.Fatalf("implausible row: %+v", row)
		}
	}
	if len(backends) != len(cq.Backends()) {
		t.Fatalf("expected all %d backends, got %v", len(cq.Backends()), backends)
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestAffinitySmoke(t *testing.T) {
	c := SmokeConfig()
	res := Affinity(c)
	if want := 2 * len(c.threadSweep()); len(res.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(res.Rows), want)
	}
	placements := map[string]bool{}
	for _, row := range res.Rows {
		placements[row.Placement] = true
		if row.OpsPerSec <= 0 || row.Millis <= 0 {
			t.Fatalf("implausible row: %+v", row)
		}
		if row.NumCPU < 1 || row.GoMaxProcs < 1 {
			t.Fatalf("row missing host environment: %+v", row)
		}
	}
	if !placements["affine"] || !placements["uniform"] {
		t.Fatalf("expected both placements, got %v", placements)
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "placement") {
		t.Fatal("render missing placement column")
	}
}

func TestTxnSmoke(t *testing.T) {
	c := SmokeConfig()
	res, err := Txn(c)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(cq.Backends()) * len(c.threadSweep()) * len(txnSkews); len(res.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(res.Rows), want)
	}
	backends := map[string]bool{}
	skews := map[string]bool{}
	for _, row := range res.Rows {
		backends[row.Backend] = true
		skews[row.Skew] = true
		if row.Commits != int64(row.N) || row.OpsPerSec <= 0 || row.Batch <= 0 {
			t.Fatalf("implausible row: %+v", row)
		}
		if row.Aborts < 0 || row.AbortRatio < 0 || row.AbortRatio >= 1 {
			t.Fatalf("implausible abort accounting: %+v", row)
		}
	}
	if len(backends) != len(cq.Backends()) {
		t.Fatalf("expected all %d backends, got %v", len(cq.Backends()), backends)
	}
	if len(skews) != len(txnSkews) {
		t.Fatalf("expected all %d skews, got %v", len(txnSkews), skews)
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "abort-ratio") {
		t.Fatal("render missing abort-ratio column")
	}
}

func TestChaosSmoke(t *testing.T) {
	c := SmokeConfig()
	res, err := Chaos(c)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(cq.Backends()) * len(c.threadSweep()) * 3; len(res.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(res.Rows), want)
	}
	backends := map[string]bool{}
	sawBaseline, sawPoison := false, false
	for _, row := range res.Rows {
		backends[row.Backend] = true
		if row.OpsPerSec <= 0 || row.N < 2000 || row.Executed <= 0 {
			t.Fatalf("implausible row: %+v", row)
		}
		if row.Executed+row.Failed != int64(row.N) {
			t.Fatalf("books do not balance: %+v", row)
		}
		if row.Poison == 0 {
			sawBaseline = sawBaseline || row.StallEvery == 0
			if row.Failed != 0 {
				t.Fatalf("quarantines without poison: %+v", row)
			}
		} else {
			sawPoison = true
			if row.Failed != int64(row.Poison) {
				t.Fatalf("Failed = %d, want %d poisons: %+v", row.Failed, row.Poison, row)
			}
		}
		if row.StallEvery == 0 && row.BlockEvery == 0 && row.Reinserted != 0 {
			t.Fatalf("re-insertions on the fault-free plan: %+v", row)
		}
		if row.NumCPU < 1 || row.GoMaxProcs < 1 {
			t.Fatalf("row missing host environment: %+v", row)
		}
	}
	if len(backends) != len(cq.Backends()) {
		t.Fatalf("expected all %d backends, got %v", len(cq.Backends()), backends)
	}
	if !sawBaseline || !sawPoison {
		t.Fatal("plan sweep missing the baseline or the poison plan")
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "poison") {
		t.Fatal("render missing poison column")
	}
}

func TestIdleCostSmoke(t *testing.T) {
	res, err := IdleCost(SmokeConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want the single park row", len(res.Rows))
	}
	row := res.Rows[0]
	if row.Strategy != "park" {
		t.Fatalf("strategy = %q, want park: %+v", row.Strategy, row)
	}
	if row.WakeP50Us <= 0 || row.WakeP99Us < row.WakeP50Us || row.DrainMs <= 0 {
		t.Fatalf("implausible wake/drain metrics: %+v", row)
	}
	if row.CPUMillis < 0 != (row.CPUPct < 0) {
		t.Fatalf("CPU columns disagree on support: %+v", row)
	}
	var buf strings.Builder
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "idle-cpu-ms") {
		t.Fatalf("render missing columns:\n%s", buf.String())
	}
}

// The headline claim of the parking idle path, asserted where CPU clocks
// exist: an idle execution with parked workers consumes (close to) no CPU —
// parked idleness must stay under a hard absolute ceiling, a fraction of
// one core over the window.
func TestIdleCostParkedIsNearZero(t *testing.T) {
	c := SmokeConfig()
	c.Trials = 1
	res, err := IdleCost(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.Strategy != "park" {
			continue
		}
		if row.CPUMillis < 0 {
			t.Skip("process CPU time unsupported on this platform")
		}
		// 30ms smoke window; parked workers do nothing, so even with
		// runtime background noise the process should burn well under a
		// fifth of one core.
		if row.CPUPct > 20 {
			t.Fatalf("parked idle burned %.1f%% CPU over %.0fms, want ~0: %+v", row.CPUPct, row.WindowMs, row)
		}
	}
}
