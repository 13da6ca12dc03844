package main

import (
	"fmt"
	"time"

	"relaxsched/internal/cq"
	"relaxsched/internal/delaunay"
	"relaxsched/internal/engine"
	"relaxsched/internal/geom"
	"relaxsched/internal/graph"
	"relaxsched/internal/rng"
	"relaxsched/internal/sssp"
	"relaxsched/internal/txn"
)

// Every workload runs with two workers (the recording host has two cores)
// over Threads*QueueMultiplier internal queues.
const (
	threads         = 2
	queueMultiplier = 2
)

// Input sizes. README.md says why each workload is in the benchmark.
const (
	roadWidth, roadHeight = 450, 450
	roadMaxW              = 10000
	roadDropPerMille      = 100
	delaunayPoints        = 50000
)

var txnSpec = txn.WorkloadSpec{Txns: 200000, Keys: 25000, Skew: 1.2, OpsPerTxn: 4, ReadFrac: 0.5}

// workloadSpec is one benchmark workload: its engine configuration, the
// name of the library call a solve times, and its set-up.
type workloadSpec struct {
	name    string
	backend cq.Backend
	batch   int
	call    string
	// spawned reports that the frontier grows only by spawns, so the
	// engine's spawn path, not its seeder, carries the work.
	spawned bool
	// build generates the input from seed and computes the oracle.
	build func(seed uint64, tr *tracer) (workload, error)
}

var workloads = map[string]workloadSpec{
	"sssp-road":        {"sssp-road", cq.LockFreeBackend, 1, "sssp.ParallelWith", true, newSSSPRoad},
	"delaunay-uniform": {"delaunay-uniform", cq.MultiQueueBackend, 1, "delaunay.ParallelTriangulate", false, newDelaunayUniform},
	"txn-hot":          {"txn-hot", cq.MultiQueueBackend, 16, "engine.Run", false, newTxnHot},
}

// opts is the engine configuration of one solve.
func (sp workloadSpec) opts(seed uint64) engine.ExecOptions {
	return engine.ExecOptions{Threads: threads, QueueMultiplier: queueMultiplier,
		Backend: sp.backend, BatchSize: sp.batch, Seed: seed}
}

// counts is the work accounting of one verified solve.
type counts struct {
	// pops counts queue pops and tasks the useful tasks among them, so
	// pops/tasks >= 1 is the paper's wasted work as a ratio.
	pops, tasks int64
	// layer holds the workload's own per-layer ratios by metric name.
	layer map[string]float64
}

// workload is one generated input plus the library call that solves it.
type workload interface {
	// prepare builds the state one solve consumes, outside the timed
	// region. A non-nil tracer asks for a traced solve.
	prepare(tr *tracer) error
	// solve is the timed region: one call into the library.
	solve(opts engine.ExecOptions) error
	// check verifies the last solve against the oracle, outside the timed
	// region, and returns its work accounting.
	check(tr *tracer) (counts, error)
}

// ssspRoad solves single-source shortest paths from vertex 0 of a road-like
// grid and compares the distances with Dijkstra's.
type ssspRoad struct {
	g      *graph.Graph
	oracle []int64
	res    sssp.ParallelResult
}

func newSSSPRoad(seed uint64, tr *tracer) (workload, error) {
	w := &ssspRoad{}
	end := tr.begin("graph.Road")
	w.g = graph.Road(roadWidth, roadHeight, roadMaxW, roadDropPerMille, seed)
	end()
	end = tr.begin("sssp.Dijkstra")
	w.oracle = sssp.Dijkstra(w.g, 0).Dist
	end()
	return w, nil
}

func (w *ssspRoad) prepare(*tracer) error { return nil }

func (w *ssspRoad) solve(opts engine.ExecOptions) error {
	w.res = sssp.ParallelWith(w.g, 0, sssp.ParallelOptions{ExecOptions: opts})
	return nil
}

func (w *ssspRoad) check(tr *tracer) (counts, error) {
	defer tr.begin("sssp.verify")()
	r := w.res
	switch {
	case r.Interrupted:
		return counts{}, fmt.Errorf("sssp: run interrupted")
	case r.Failed > 0:
		return counts{}, fmt.Errorf("sssp: %d relaxation tasks quarantined", r.Failed)
	case !sssp.Equal(r.Dist, w.oracle):
		return counts{}, fmt.Errorf("sssp: distances differ from Dijkstra")
	}
	reached := float64(r.Reached)
	return counts{pops: r.Popped, tasks: r.Reached, layer: map[string]float64{
		"sssp.processed_per_reached": float64(r.Processed) / reached,
		"sssp.stale_per_reached":     float64(r.Popped-r.Processed) / reached,
	}}, nil
}

// delaunayUniform triangulates uniform random points in the unit square and
// compares the mesh with the sequential triangulation's.
type delaunayUniform struct {
	points []geom.Point
	oracle []delaunay.Triangle
	mesh   []delaunay.Triangle
	res    delaunay.ParallelResult
}

func newDelaunayUniform(seed uint64, tr *tracer) (workload, error) {
	w := &delaunayUniform{points: uniformPoints(delaunayPoints, seed)}
	end := tr.begin("delaunay.Triangulate")
	mesh, err := delaunay.Triangulate(w.points, nil)
	end()
	if err != nil {
		return nil, fmt.Errorf("sequential triangulation: %w", err)
	}
	w.oracle = mesh
	return w, nil
}

// uniformPoints draws n points uniformly from the unit square. Generation
// order is the insertion order, so it is the random order of the randomized
// incremental algorithm.
func uniformPoints(n int, seed uint64) []geom.Point {
	r := rng.New(seed)
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: r.Float64(), Y: r.Float64()}
	}
	return pts
}

func (w *delaunayUniform) prepare(*tracer) error { return nil }

func (w *delaunayUniform) solve(opts engine.ExecOptions) error {
	var err error
	w.mesh, w.res, err = delaunay.ParallelTriangulate(w.points, nil, delaunay.ParallelOptions{ExecOptions: opts})
	return err
}

func (w *delaunayUniform) check(tr *tracer) (counts, error) {
	defer tr.begin("delaunay.verify")()
	n := int64(len(w.points))
	if w.res.Inserted != n {
		return counts{}, fmt.Errorf("delaunay: inserted %d of %d points", w.res.Inserted, n)
	}
	if !delaunay.MeshesEqual(w.mesh, w.oracle) {
		return counts{}, fmt.Errorf("delaunay: mesh differs from the sequential triangulation")
	}
	return counts{pops: w.res.Pops, tasks: n, layer: map[string]float64{
		"delaunay.blocked_per_point": float64(w.res.Blocked) / float64(n),
		"delaunay.tris_per_point":    float64(w.res.Tris) / float64(n),
	}}, nil
}

// txnHot runs a skewed OCC transaction batch on the engine and certifies
// serializability by replaying the commit log.
type txnHot struct {
	spec txn.WorkloadSpec
	w    *txn.Workload
	// run is what engine.Run executes: w itself, or w behind the sampling
	// TryExecute timer on traced solves, or whatever wrap makes of it.
	run   engine.Workload
	timed *timedTxn
	// wrap, when set, wraps the engine workload of every solve; the gate
	// test uses it to inject faults.
	wrap func(engine.Workload) engine.Workload
	res  engine.Result
	wall time.Duration
}

func newTxnHot(seed uint64, _ *tracer) (workload, error) {
	spec := txnSpec
	spec.Seed = seed
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &txnHot{spec: spec}, nil
}

// prepare generates the transaction stream and a fresh store: a run
// consumes both, so each solve needs its own.
func (t *txnHot) prepare(tr *tracer) error {
	end := tr.begin("txn.NewWorkload")
	w, err := txn.NewWorkload(t.spec, threads, true)
	end()
	if err != nil {
		return err
	}
	t.w, t.run, t.timed = w, w, nil
	if tr != nil {
		t.timed = newTimedTxn(w)
		t.run = t.timed
	}
	if t.wrap != nil {
		t.run = t.wrap(t.run)
	}
	return nil
}

func (t *txnHot) solve(opts engine.ExecOptions) error {
	t0 := time.Now()
	var err error
	t.res, err = engine.Run(t.run, engine.Options{ExecOptions: opts})
	t.wall = time.Since(t0)
	return err
}

func (t *txnHot) check(tr *tracer) (counts, error) {
	end := tr.begin("txn.certify")
	err := t.w.Certify()
	end()
	if err != nil {
		return counts{}, fmt.Errorf("certify: %w", err)
	}
	r := t.res
	switch {
	case r.Interrupted:
		return counts{}, fmt.Errorf("txn: run interrupted")
	case r.Failed > 0:
		return counts{}, fmt.Errorf("txn: %d transactions quarantined", r.Failed)
	case t.w.Commits() != int64(t.spec.Txns):
		return counts{}, fmt.Errorf("txn: %d commits, want %d", t.w.Commits(), t.spec.Txns)
	}
	layer := map[string]float64{"txn.abort_ratio": float64(r.Reinserted) / float64(r.Executed)}
	if t.timed != nil {
		mean, calls := t.timed.sampled()
		layer["txn.try_execute_ns"] = mean
		layer["txn.workload_share"] = mean * float64(calls) / (threads * float64(t.wall.Nanoseconds()))
	}
	return counts{pops: r.Executed + r.Reinserted, tasks: r.Executed, layer: layer}, nil
}

// timedTxn times one TryExecute call in every timedEvery per worker. Timing
// every call slows the run by about a fifth; sampling keeps the traced run
// close to the untraced one.
type timedTxn struct {
	*txn.Workload
	slots []timedSlot
}

const timedEvery = 16

// timedSlot is one worker's tally, written only by that worker and read
// after engine.Run returns; the padding keeps workers off each other's
// cache lines.
type timedSlot struct {
	calls, sampled, ns int64
	_                  [40]byte
}

func newTimedTxn(w *txn.Workload) *timedTxn {
	return &timedTxn{Workload: w, slots: make([]timedSlot, threads)}
}

func (t *timedTxn) TryExecute(ctx *engine.Ctx, value, priority int64) engine.Status {
	s := &t.slots[ctx.Worker]
	s.calls++
	if s.calls%timedEvery != 0 {
		return t.Workload.TryExecute(ctx, value, priority)
	}
	t0 := time.Now()
	st := t.Workload.TryExecute(ctx, value, priority)
	s.ns += time.Since(t0).Nanoseconds()
	s.sampled++
	return st
}

// sampled returns the mean sampled TryExecute time in ns and the number of
// calls.
func (t *timedTxn) sampled() (meanNs float64, calls int64) {
	var ns, n int64
	for _, s := range t.slots {
		ns += s.ns
		n += s.sampled
		calls += s.calls
	}
	if n == 0 {
		return 0, calls
	}
	return float64(ns) / float64(n), calls
}
