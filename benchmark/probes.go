package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"relaxsched/internal/cq"
	"relaxsched/internal/engine"
	"relaxsched/internal/epoch"
	"relaxsched/internal/geom"
	"relaxsched/internal/inflight"
	"relaxsched/internal/park"
	"relaxsched/internal/rng"
)

// Operation counts of the fixed-size probes, chosen so each runs for tens of
// milliseconds on the recording host.
const (
	microOps   = 4 << 20
	retireOps  = 1 << 20
	parkRounds = 5000
)

// probeTimeout bounds a drain that stops making progress, so a queue that
// loses pairs fails the run instead of hanging it.
const probeTimeout = 60 * time.Second

// probeSink keeps the compiler from removing probed calls whose results
// are otherwise unused.
var probeSink int

// probeLayers drives each layer the workload uses through its exported API,
// at the workload's backend, batch size and thread count, with pairs queue
// pairs (the workload's mean pops per solve), and stores the per-layer
// metrics in vals.
func probeLayers(vals map[string]float64, sp workloadSpec, pairs int, seed uint64, tr *tracer) error {
	r := rng.New(seed)
	probe := func(name string, f func() error) error {
		defer tr.begin("probe." + name)()
		if err := f(); err != nil {
			return fmt.Errorf("probe %s: %w", name, err)
		}
		return nil
	}
	probes := []struct {
		name string
		f    func() error
	}{
		{"geom", func() error { probeGeom(vals, r.Split()); return nil }},
		{"epoch", func() error { probeEpoch(vals); return nil }},
		{"inflight", func() error { probeInflight(vals); return nil }},
		{"park", func() error { probePark(vals); return nil }},
		{"cq.mixed", func() error { return probeMixed(vals, sp, pairs, r.Split()) }},
		{"cq.drain", func() error { return probeDrain(vals, sp, pairs, r.Split()) }},
		{"cq.batch", func() error { return probeBatch(vals, sp, pairs, r.Split()) }},
		{"cq.rank", func() error { return probeRank(vals, sp, pairs, r.Split()) }},
		{"engine.noop", func() error { return probeEngine(vals, sp, pairs, r.Uint64()) }},
	}
	for _, p := range probes {
		if err := probe(p.name, p.f); err != nil {
			return err
		}
	}
	return nil
}

func nsPer(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }

func probeGeom(vals map[string]float64, r *rng.Xoshiro) {
	pts := uniformPoints(1024, r.Uint64())
	s := 0
	t0 := time.Now()
	for i := 0; i < microOps; i++ {
		s += int(geom.InCircle(pts[i&1023], pts[(i+1)&1023], pts[(i+2)&1023], pts[(i+7)&1023]))
	}
	vals["geom.incircle_ns"] = nsPer(time.Since(t0), microOps)
	t0 = time.Now()
	for i := 0; i < microOps; i++ {
		s += int(geom.Orient2D(pts[i&1023], pts[(i+1)&1023], pts[(i+2)&1023]))
	}
	vals["geom.orient_ns"] = nsPer(time.Since(t0), microOps)
	probeSink += s
}

type epochNode struct{ v int64 }

func probeEpoch(vals map[string]float64) {
	d := epoch.NewDomain[epochNode]()
	s := d.Register()
	defer s.Close()
	t0 := time.Now()
	for i := 0; i < microOps; i++ {
		s.Enter()
		s.Exit()
	}
	vals["epoch.enter_exit_ns"] = nsPer(time.Since(t0), microOps)
	t0 = time.Now()
	for i := 0; i < retireOps; i++ {
		n := s.Alloc()
		n.v = int64(i)
		s.Retire(n)
	}
	vals["epoch.retire_ns"] = nsPer(time.Since(t0), retireOps)
}

func probeInflight(vals map[string]float64) {
	c := inflight.New(threads)
	t0 := time.Now()
	for i := 0; i < microOps; i++ {
		c.Produce(0)
		c.Complete(0)
	}
	vals["inflight.produce_complete_ns"] = nsPer(time.Since(t0), microOps)
	// One live task: the scan an apparently idle worker runs while work is
	// still in flight elsewhere.
	c.Produce(1)
	q := 0
	t0 = time.Now()
	for i := 0; i < microOps/4; i++ {
		if c.Quiescent() {
			q++
		}
	}
	vals["inflight.quiescent_ns"] = nsPer(time.Since(t0), microOps/4)
	c.Complete(1)
	probeSink += q
}

func probePark(vals map[string]float64) {
	l := park.NewLot(threads)
	w := 0
	t0 := time.Now()
	for i := 0; i < microOps; i++ {
		w += l.Wake(1)
	}
	vals["park.wake_none_ns"] = nsPer(time.Since(t0), microOps)
	probeSink += w

	// A partner parks again after every wake; each round wakes it from a
	// real park and waits until it has parked once more.
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for !stop.Load() {
			l.Park(0, l.Token(0), stop.Load)
		}
	}()
	t0 = time.Now()
	for range parkRounds {
		for l.Wake(1) == 0 {
			// Spin until the partner has parked again.
		}
	}
	d := time.Since(t0)
	stop.Store(true)
	l.WakeAll()
	<-done
	vals["park.roundtrip_us"] = nsPer(d, parkRounds) / 1e3
}

// onHandles runs f on threads goroutines, each with its own queue handle
// and rng stream, and returns the wall time until all have returned.
func onHandles(q cq.BatchQueue, r *rng.Xoshiro, f func(g int, h cq.Handle, r *rng.Xoshiro)) time.Duration {
	var wg sync.WaitGroup
	t0 := time.Now()
	for g := range threads {
		wg.Add(1)
		go func(r *rng.Xoshiro) {
			defer wg.Done()
			h := cq.HandleFor(q)
			defer h.Close()
			f(g, h, r)
		}(r.Split())
	}
	wg.Wait()
	return time.Since(t0)
}

// popOne pops up to len(dst) pairs the way an engine worker at that batch
// size does, returning how many it got.
func popOne(h cq.Handle, r *rng.Xoshiro, dst []cq.Pair) int {
	if len(dst) == 1 {
		v, p, ok := h.Pop(r)
		if !ok {
			return 0
		}
		dst[0] = cq.Pair{Value: v, Priority: p}
		return 1
	}
	return h.PopBatch(r, dst)
}

// drain pops from threads handles until n pairs have come out, returning
// the wall time and the number of pops that found the queue apparently
// empty.
func drain(q cq.BatchQueue, batch, n int, r *rng.Xoshiro) (time.Duration, int64, error) {
	var left, empties atomic.Int64
	left.Store(int64(n))
	deadline := time.Now().Add(probeTimeout)
	var timedOut atomic.Bool
	d := onHandles(q, r, func(_ int, h cq.Handle, r *rng.Xoshiro) {
		dst := make([]cq.Pair, batch)
		var e int64
		for left.Load() > 0 {
			got := popOne(h, r, dst)
			if got == 0 {
				e++
				if e%4096 == 0 && time.Now().After(deadline) {
					timedOut.Store(true)
					break
				}
				continue
			}
			left.Add(-int64(got))
		}
		empties.Add(e)
	})
	if timedOut.Load() {
		return d, 0, fmt.Errorf("%d of %d pairs never came out", left.Load(), n)
	}
	return d, empties.Load(), nil
}

// probeMixed: every worker pushes one pair and pops one, the steady state
// of a spawn-driven frontier. ns_per_op is wall time per push or pop on
// each worker.
func probeMixed(vals map[string]float64, sp workloadSpec, ops int, r *rng.Xoshiro) error {
	q, err := cq.New(sp.backend, threads, queueMultiplier)
	if err != nil {
		return err
	}
	var empties atomic.Int64
	d := onHandles(q, r, func(_ int, h cq.Handle, r *rng.Xoshiro) {
		var e int64
		for i := range ops {
			h.Push(r, int64(i), int64(r.Uint64n(1<<20)))
			if _, _, ok := h.Pop(r); !ok {
				e++
			}
		}
		empties.Add(e)
	})
	vals["cq.mixed.ns_per_op"] = nsPer(d, 2*ops)
	vals["cq.mixed.empty_per_pop"] = float64(empties.Load()) / float64(threads*ops)
	return nil
}

// probeDrain: one handle pushes every pair in priority order, as the
// engine's frontier seeder does, then threads handles drain the queue.
// ns_per_pop is worker time per popped pair.
func probeDrain(vals map[string]float64, sp workloadSpec, pairs int, r *rng.Xoshiro) error {
	q, err := cq.New(sp.backend, threads, queueMultiplier)
	if err != nil {
		return err
	}
	h := cq.HandleFor(q)
	for i := range pairs {
		h.Push(r, int64(i), int64(i))
	}
	h.Close()
	d, empties, err := drain(q, sp.batch, pairs, r)
	if err != nil {
		return err
	}
	vals["cq.drain.ns_per_pop"] = threads * nsPer(d, pairs)
	vals["cq.drain.empty_per_pop"] = float64(empties) / float64(pairs)
	return nil
}

// probeBatch: threads handles push the pairs in batches of the workload's
// size, as workers flush spawned and re-inserted pairs, then drain them in
// batches of that size. Both rates are worker time per pair.
func probeBatch(vals map[string]float64, sp workloadSpec, pairs int, r *rng.Xoshiro) error {
	q, err := cq.New(sp.backend, threads, queueMultiplier)
	if err != nil {
		return err
	}
	per := pairs / threads
	d := onHandles(q, r, func(g int, h cq.Handle, r *rng.Xoshiro) {
		buf := make([]cq.Pair, 0, sp.batch)
		for i := range per {
			buf = append(buf, cq.Pair{Value: int64(g*per + i), Priority: int64(r.Uint64n(uint64(pairs)))})
			if len(buf) == sp.batch {
				h.PushBatch(r, buf)
				buf = buf[:0]
			}
		}
		if len(buf) > 0 {
			h.PushBatch(r, buf)
		}
	})
	vals["cq.batch.push_ns_per_pair"] = threads * nsPer(d, threads*per)
	d, _, err = drain(q, sp.batch, threads*per, r)
	if err != nil {
		return err
	}
	vals["cq.batch.pop_ns_per_pair"] = threads * nsPer(d, threads*per)
	return nil
}

// probeRank pushes a random permutation of priorities through threads
// handles in turn, pops everything back through them on one goroutine, and
// measures each pop's rank error: how many pairs still queued had a smaller
// priority.
func probeRank(vals map[string]float64, sp workloadSpec, pairs int, r *rng.Xoshiro) error {
	q, err := cq.New(sp.backend, threads, queueMultiplier)
	if err != nil {
		return err
	}
	hs := make([]cq.Handle, threads)
	for i := range hs {
		hs[i] = cq.HandleFor(q)
		defer hs[i].Close()
	}
	for i, p := range r.Perm(pairs) {
		hs[i%threads].Push(r, int64(i), int64(p))
	}
	queued := newFenwick(pairs)
	var sum, worst int64
	for popped, attempt := 0, 0; popped < pairs; attempt++ {
		if attempt > 64*pairs {
			return fmt.Errorf("%d of %d pairs never came out", pairs-popped, pairs)
		}
		_, p, ok := hs[attempt%threads].Pop(r)
		if !ok {
			continue
		}
		rank := queued.prefix(int(p))
		queued.add(int(p), -1)
		sum += rank
		worst = max(worst, rank)
		popped++
	}
	vals["cq.rank_err_mean"] = float64(sum) / float64(pairs)
	vals["cq.rank_err_max"] = float64(worst)
	return nil
}

// fenwick counts the queued priorities in [0, n).
type fenwick []int64

func newFenwick(n int) fenwick {
	f := make(fenwick, n+1)
	for i := 1; i <= n; i++ {
		f[i]++
		if j := i + i&-i; j <= n {
			f[j] += f[i]
		}
	}
	return f
}

func (f fenwick) add(i int, d int64) {
	for i++; i < len(f); i += i & -i {
		f[i] += d
	}
}

// prefix counts the queued priorities below i.
func (f fenwick) prefix(i int) int64 {
	var s int64
	for ; i > 0; i -= i & -i {
		s += f[i]
	}
	return s
}

// noopWorkload is an engine workload whose tasks do nothing, so a run costs
// only the engine: either every task is seeded by the frontier, or a few
// roots are seeded and each task spawns the next one of its chain.
type noopWorkload struct {
	tasks, width int64
	spawn        bool
}

func (n *noopWorkload) Frontier(emit func(value, priority int64)) {
	seeded := n.tasks
	if n.spawn {
		seeded = min(n.width, n.tasks)
	}
	for v := range seeded {
		emit(v, v)
	}
}

func (n *noopWorkload) TryExecute(ctx *engine.Ctx, value, _ int64) engine.Status {
	if next := value + n.width; n.spawn && next < n.tasks {
		ctx.Spawn(next, next)
	}
	return engine.Executed
}

// probeEngine runs the no-op workload seeded and spawning; ns_per_task is
// worker time per task.
func probeEngine(vals map[string]float64, sp workloadSpec, tasks int, seed uint64) error {
	for _, spawn := range []bool{false, true} {
		wl := &noopWorkload{tasks: int64(tasks), width: threads * queueMultiplier, spawn: spawn}
		t0 := time.Now()
		res, err := engine.Run(wl, engine.Options{ExecOptions: sp.opts(seed)})
		d := time.Since(t0)
		if err != nil {
			return err
		}
		if res.Executed != int64(tasks) || res.Failed > 0 {
			return fmt.Errorf("no-op run executed %d of %d tasks, %d failed", res.Executed, tasks, res.Failed)
		}
		name := "engine.noop_seeded_ns_per_task"
		if spawn {
			name = "engine.noop_spawn_ns_per_task"
		}
		vals[name] = threads * nsPer(d, tasks)
	}
	return nil
}
