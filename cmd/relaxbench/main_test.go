package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"testing"

	"relaxsched/internal/cq"
	"relaxsched/internal/experiments"
)

// smoke runs every experiment dispatch end-to-end at a tiny scale; it is
// the integration test for the whole harness (drivers + rendering).
func TestRunDispatchAllExperiments(t *testing.T) {
	cfg := experiments.Config{Seed: 1, Trials: 1, GraphScale: 128, MaxThreads: 2}
	for _, exp := range []string{
		"graphs", "fig1", "fig1-overhead", "fig1-speedup", "fig2", "batchsweep",
		"thm33", "thm51", "thm61", "thm43", "ablation", "parinc", "iterative", "bnb",
		"parbnb", "parmis", "pardelaunay", "stream", "affinity", "chaos",
	} {
		if err := run(exp, cfg, output{w: io.Discard}); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
	}
}

// The parallel experiments must accept every queue backend.
func TestRunHonorsBackendConfig(t *testing.T) {
	for _, b := range cq.Backends() {
		cfg := experiments.Config{Seed: 1, Trials: 1, GraphScale: 256, MaxThreads: 2, Backend: b}
		for _, exp := range []string{"fig1-overhead", "fig2"} {
			if err := run(exp, cfg, output{w: io.Discard}); err != nil {
				t.Fatalf("%s on %s: %v", exp, b, err)
			}
		}
	}
}

// -json mode must emit one well-formed JSON object per experiment, keyed by
// experiment name.
func TestRunJSONOutput(t *testing.T) {
	cfg := experiments.Config{Seed: 1, Trials: 1, GraphScale: 256, MaxThreads: 2}
	var buf bytes.Buffer
	exps := []string{"graphs", "fig1", "batchsweep", "parinc"}
	for _, exp := range exps {
		if err := run(exp, cfg, output{json: true, w: &buf}); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
	}
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var seen []string
	for sc.Scan() {
		var env struct {
			Experiment string          `json:"experiment"`
			Result     json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(sc.Bytes(), &env); err != nil {
			t.Fatalf("bad JSON line: %v\n%s", err, sc.Text())
		}
		if len(env.Result) == 0 || string(env.Result) == "null" {
			t.Fatalf("%s: empty result payload", env.Experiment)
		}
		seen = append(seen, env.Experiment)
	}
	if len(seen) != len(exps) {
		t.Fatalf("got %d JSON objects %v, want %d", len(seen), seen, len(exps))
	}
	for i, exp := range exps {
		if seen[i] != exp {
			t.Fatalf("object %d is %q, want %q", i, seen[i], exp)
		}
	}
}

// The record writer must receive the JSON-lines stream even in text mode:
// that is how BENCH_*.json trajectories are captured alongside readable
// output.
func TestRecordStreamAlwaysJSON(t *testing.T) {
	cfg := experiments.Config{Seed: 1, Trials: 1, GraphScale: 512, MaxThreads: 2}
	var text, record bytes.Buffer
	exps := []string{"graphs", "fig1", "batchsweep"}
	for _, exp := range exps {
		if err := run(exp, cfg, output{w: &text, record: &record}); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
	}
	if !bytes.Contains(text.Bytes(), []byte("==")) {
		t.Fatal("stdout lost its text tables when a record writer was set")
	}
	sc := bufio.NewScanner(&record)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var seen []string
	for sc.Scan() {
		var env struct {
			Experiment string          `json:"experiment"`
			Result     json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(sc.Bytes(), &env); err != nil {
			t.Fatalf("bad JSON line in record stream: %v\n%s", err, sc.Text())
		}
		if len(env.Result) == 0 || string(env.Result) == "null" {
			t.Fatalf("%s: empty result payload in record stream", env.Experiment)
		}
		seen = append(seen, env.Experiment)
	}
	if len(seen) != len(exps) {
		t.Fatalf("record stream has %d objects %v, want %d", len(seen), seen, len(exps))
	}
}

// The batchsweep experiment must cover every backend and carry the
// batch-1 baseline — the backends head-to-head — so a recorded trajectory
// always compares the full design space and is self-contained.
func TestBatchSweepCoversBackendsAndBaseline(t *testing.T) {
	cfg := experiments.Config{Seed: 1, Trials: 1, GraphScale: 512, MaxThreads: 2}
	res := experiments.BatchSweep(cfg)
	backends := map[string]bool{}
	baseline := false
	for _, row := range res.Rows {
		backends[row.Backend] = true
		if row.Batch == 1 {
			baseline = true
		}
		if row.OpsPerSec <= 0 {
			t.Fatalf("%s/%s batch %d: non-positive ops/sec", row.Graph, row.Backend, row.Batch)
		}
	}
	for _, b := range cq.Backends() {
		if !backends[string(b)] {
			t.Fatalf("backend %s missing from batchsweep", b)
		}
	}
	if !baseline {
		t.Fatal("batchsweep lacks the batch=1 baseline")
	}
}

// The backends head-to-head lives in batchsweep's batch-1 column: every
// registered backend must appear there on every graph family, so recorded
// trajectories always compare the full design space at the unbatched point.
func TestBackendsExperimentCoversAllBackends(t *testing.T) {
	cfg := experiments.Config{Seed: 1, Trials: 1, GraphScale: 256, MaxThreads: 2}
	res := experiments.BatchSweep(cfg)
	got := map[string]map[string]bool{}
	for _, row := range res.Rows {
		if row.Batch != 1 {
			continue
		}
		if got[row.Graph] == nil {
			got[row.Graph] = map[string]bool{}
		}
		got[row.Graph][row.Backend] = true
		if row.OpsPerSec <= 0 {
			t.Fatalf("%s/%s: non-positive ops/sec", row.Graph, row.Backend)
		}
	}
	if len(got) != len(experiments.Families()) {
		t.Fatalf("batch-1 column covers %d graph families, want %d", len(got), len(experiments.Families()))
	}
	for graph, backends := range got {
		for _, b := range cq.Backends() {
			if !backends[string(b)] {
				t.Fatalf("%s: backend %s missing from the batch-1 column", graph, b)
			}
		}
	}
	if knownExperiment("backends") {
		t.Fatal(`"backends" is still dispatched; it is batchsweep's batch-1 column`)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run("nope", experiments.SmokeConfig(), output{w: io.Discard}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// knownExperiment gates -out file creation, so it must accept exactly what
// run dispatches: every table entry, the fig1 variants, and "all".
func TestKnownExperimentMatchesDispatch(t *testing.T) {
	for name := range experimentTable {
		if !knownExperiment(name) {
			t.Errorf("table experiment %q reported unknown", name)
		}
	}
	for _, name := range []string{"fig1", "fig1-overhead", "fig1-speedup", "all"} {
		if !knownExperiment(name) {
			t.Errorf("dispatchable experiment %q reported unknown", name)
		}
	}
	if knownExperiment("nope") {
		t.Error("bogus experiment reported known")
	}
}
