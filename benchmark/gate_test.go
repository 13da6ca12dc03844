package main

import (
	"encoding/json"
	"errors"
	"os"
	"slices"
	"strings"
	"testing"

	"relaxsched/internal/delaunay"
	"relaxsched/internal/engine"
	"relaxsched/internal/graph"
	"relaxsched/internal/sssp"
)

// spoiled corrupts each solve's output after the timed call and before
// verification.
type spoiled struct {
	workload
	spoil func() error
}

func (s spoiled) solve(opts engine.ExecOptions) error {
	if err := s.workload.solve(opts); err != nil {
		return err
	}
	return s.spoil()
}

// txnWrap runs a transaction workload, letting tamper decide what happens
// to transaction 5.
type txnWrap struct {
	engine.Workload
	tamper func(ctx *engine.Ctx, value, priority int64) engine.Status
}

func (t txnWrap) TryExecute(ctx *engine.Ctx, value, priority int64) engine.Status {
	if value == 5 {
		return t.tamper(ctx, value, priority)
	}
	return t.Workload.TryExecute(ctx, value, priority)
}

func smallSSSP() *ssspRoad {
	g := graph.Road(40, 40, roadMaxW, roadDropPerMille, 3)
	return &ssspRoad{g: g, oracle: sssp.Dijkstra(g, 0).Dist}
}

func smallDelaunay(t *testing.T) *delaunayUniform {
	w := &delaunayUniform{points: uniformPoints(400, 3)}
	var err error
	if w.oracle, err = delaunay.Triangulate(w.points, nil); err != nil {
		t.Fatal(err)
	}
	return w
}

func smallTxn(tamper func(inner engine.Workload) func(*engine.Ctx, int64, int64) engine.Status) *txnHot {
	spec := txnSpec
	spec.Txns, spec.Keys, spec.Seed = 2000, 300, 3
	w := &txnHot{spec: spec}
	if tamper != nil {
		w.wrap = func(inner engine.Workload) engine.Workload {
			return txnWrap{Workload: inner, tamper: tamper(inner)}
		}
	}
	return w
}

// TestGateCountsEveryFailureKind corrupts one output of each kind the gate
// checks and shows that every solve is counted as failed and none is timed.
func TestGateCountsEveryFailureKind(t *testing.T) {
	ss := smallSSSP()
	dl := smallDelaunay(t)
	cases := []struct {
		name string
		w    workload
		want string // substring of the verification error
	}{
		{"sssp wrong distance", spoiled{ss, func() error { ss.res.Dist[7]++; return nil }}, "Dijkstra"},
		{"delaunay mesh mismatch", spoiled{dl, func() error {
			dl.mesh[0].B, dl.mesh[0].C = dl.mesh[0].C, dl.mesh[0].B
			return nil
		}}, "mesh differs"},
		{"error return", spoiled{dl, func() error { return errors.New("injected") }}, "injected"},
		{"panic", spoiled{ss, func() error { panic("injected") }}, "panic"},
		{"txn certify", smallTxn(func(inner engine.Workload) func(*engine.Ctx, int64, int64) engine.Status {
			// Commit transaction 5 twice.
			return func(ctx *engine.Ctx, v, p int64) engine.Status {
				for inner.TryExecute(ctx, v, p) != engine.Executed {
				}
				return inner.TryExecute(ctx, v, p)
			}
		}), "certify"},
		{"txn commit count", smallTxn(func(engine.Workload) func(*engine.Ctx, int64, int64) engine.Status {
			// Drop transaction 5 without running it.
			return func(*engine.Ctx, int64, int64) engine.Status { return engine.Executed }
		}), "commits"},
		{"txn quarantine", smallTxn(func(engine.Workload) func(*engine.Ctx, int64, int64) engine.Status {
			return func(*engine.Ctx, int64, int64) engine.Status { panic("poisoned") }
		}), "quarantined"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp := workloadSpec{name: tc.name, batch: 1, call: "solve"}
			_, err := measure(sp, tc.w, sp.opts(1), nil)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("verification error %v, want one mentioning %q", err, tc.want)
			}
			s := &session{seed: 1}
			plain, _ := s.loop(sp, tc.w, 0, nil)
			if s.attempted != minSolves || s.failed != minSolves || len(plain) != 0 {
				t.Fatalf("attempted %d, failed %d, timed %d; want %d, %d, 0",
					s.attempted, s.failed, len(plain), minSolves, minSolves)
			}
		})
	}
}

// TestGatePassesCorrectSolves is the control: unspoiled solves all verify
// and are all timed.
func TestGatePassesCorrectSolves(t *testing.T) {
	for name, w := range map[string]workload{"sssp": smallSSSP(), "delaunay": smallDelaunay(t), "txn": smallTxn(nil)} {
		t.Run(name, func(t *testing.T) {
			sp := workloadSpec{name: name, batch: 1, call: "solve"}
			s := &session{seed: 1}
			plain, _ := s.loop(sp, w, 0, nil)
			if s.failed != 0 || len(plain) != s.attempted {
				t.Fatalf("attempted %d, failed %d, timed %d", s.attempted, s.failed, len(plain))
			}
			for _, x := range plain {
				if x.c.pops < x.c.tasks || x.c.tasks == 0 {
					t.Fatalf("pops %d, tasks %d", x.c.pops, x.c.tasks)
				}
			}
		})
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if v, pct := tail(xs); v != 90 || pct != 90 {
		t.Fatalf("tail of 1..100 = %v at p%v, want 90 at p90", v, pct)
	}
	if m := median(xs); m != 50.5 {
		t.Fatalf("median of 1..100 = %v, want 50.5", m)
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metric and
// workload sets the program reports in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	slices.Sort(names)
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames())
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, program %s %s",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEndMetrics)
	check("per_layer", b.PerLayer, perLayerMetrics)
}
