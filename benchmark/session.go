package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"syscall"
	"time"

	"relaxsched/internal/cq"
	"relaxsched/internal/engine"
	"relaxsched/internal/rng"
)

const (
	// setupRepeats is how often an end-to-end run sets up; setup_s is the
	// median.
	setupRepeats = 3
	// minSolves is the fewest solves per measured set, whatever the
	// budget: the tail percentile needs more than ten.
	minSolves = 20
)

// session is one benchmark process: its input seed and the tally of every
// verified solve it attempted.
type session struct {
	seed              uint64
	solves            int
	attempted, failed int
}

// nextSeed derives the engine seed of the next solve from the input seed
// and the solve's index: every solve draws fresh queue randomness, and a run
// is reproducible from its seed.
func (s *session) nextSeed() uint64 {
	i := s.solves
	s.solves++
	return rng.Mix64(s.seed ^ rng.Mix64(uint64(i)+1))
}

// sample is one verified solve.
type sample struct {
	wall, cpu time.Duration
	alloc     uint64 // bytes allocated during the timed call
	c         counts
}

// solveOnce prepares, times and verifies one solve. A solve that fails
// verification is counted and returns an error; it never yields a timing.
func (s *session) solveOnce(sp workloadSpec, w workload, opts engine.ExecOptions, tr *tracer) (sample, error) {
	s.attempted++
	smp, err := measure(sp, w, opts, tr)
	if err != nil {
		s.failed++
		fmt.Fprintf(os.Stderr, "%s: solve failed: %v\n", sp.name, err)
	}
	return smp, err
}

func measure(sp workloadSpec, w workload, opts engine.ExecOptions, tr *tracer) (sample, error) {
	if err := w.prepare(tr); err != nil {
		return sample{}, fmt.Errorf("prepare: %w", err)
	}
	// Every solve starts from a collected heap, so garbage left by set-up,
	// preparation and the last verification is not charged to it.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0, cpu0 := ms.TotalAlloc, cpuTime()
	end := tr.begin(sp.call)
	wall, err := timedSolve(w, opts)
	end()
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&ms)
	if err != nil {
		return sample{}, err
	}
	c, err := w.check(tr)
	if err != nil {
		return sample{}, err
	}
	return sample{wall: wall, cpu: cpu, alloc: ms.TotalAlloc - alloc0, c: c}, nil
}

// timedSolve times w.solve; a panic in the library counts as a failed
// solve rather than ending the run.
func timedSolve(w workload, opts engine.ExecOptions) (wall time.Duration, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	t0 := time.Now()
	err = w.solve(opts)
	return time.Since(t0), err
}

// setup generates the input, computes the oracle and runs one untimed,
// verified warm-up solve.
func (s *session) setup(sp workloadSpec, tr *tracer) (workload, time.Duration, error) {
	// Drop the previous set-up's input first, so that peak RSS does not
	// depend on when the collector happened to run between set-ups.
	runtime.GC()
	t0 := time.Now()
	end := tr.begin("setup")
	defer end()
	w, err := sp.build(s.seed, tr)
	if err != nil {
		return nil, 0, fmt.Errorf("%s set-up: %w", sp.name, err)
	}
	endWarm := tr.begin("warmup")
	_, _ = s.solveOnce(sp, w, sp.opts(s.nextSeed()), tr) // counted; a failure shows in failed
	endWarm()
	return w, time.Since(t0), nil
}

// loop solves until the budget is spent and each returned set holds at
// least minSolves attempts. With a tracer it alternates untraced and traced
// solves, so both sets see the same host conditions.
func (s *session) loop(sp workloadSpec, w workload, budget time.Duration, tr *tracer) (plain, traced []sample) {
	sets := 1
	if tr != nil {
		sets = 2
	}
	start := time.Now()
	for i := 0; time.Since(start) < budget || i < minSolves*sets; i++ {
		var t *tracer
		if i%sets == 1 {
			t = tr
		}
		t.setReq(i)
		smp, err := s.solveOnce(sp, w, sp.opts(s.nextSeed()), t)
		t.setReq(-1)
		if err != nil {
			continue
		}
		if t != nil {
			traced = append(traced, smp)
		} else {
			plain = append(plain, smp)
		}
	}
	return plain, traced
}

// endToEnd is the untraced run: it reports every end-to-end metric.
func (s *session) endToEnd(sp workloadSpec, budget time.Duration) (report, error) {
	var setups []float64
	var w workload
	for range setupRepeats {
		var d time.Duration
		var err error
		if w, d, err = s.setup(sp, nil); err != nil {
			return report{}, err
		}
		setups = append(setups, d.Seconds())
	}
	samples, _ := s.loop(sp, w, budget, nil)

	walls := wallSeconds(samples)
	p50 := median(walls)
	tailV, tailPct := tail(walls)
	var pops, tasks int64
	var cpu time.Duration
	var alloc uint64
	for _, x := range samples {
		pops += x.c.pops
		tasks += x.c.tasks
		cpu += x.cpu
		alloc += x.alloc
	}
	vals := map[string]float64{
		"setup_s":          median(setups),
		"solve_s_p50":      p50,
		"solve_s_tail":     tailV,
		"pops_per_task":    ratio(float64(pops), float64(tasks)),
		"cpu_s_per_solve":  ratio(cpu.Seconds(), float64(len(samples))),
		"alloc_b_per_task": ratio(float64(alloc), float64(tasks)),
		"max_rss_mb":       maxRSSMB(),
		"verified_frac":    ratio(float64(s.attempted-s.failed), float64(s.attempted)),
	}
	m, err := fill(endToEndMetrics, vals)
	if err != nil {
		return report{}, err
	}
	fmt.Printf("%s end-to-end (%d solves verified of %d attempted, error_rate %.4g):\n",
		sp.name, s.attempted-s.failed, s.attempted, ratio(float64(s.failed), float64(s.attempted)))
	printMetrics(endToEndMetrics, m)
	fmt.Printf("  solve_s_tail is p%.1f of %d timed solves; set-up ran %d times\n", tailPct, len(walls), setupRepeats)
	return report{Correct: s.failed == 0, Attempted: s.attempted, Failed: s.failed, Metrics: m}, nil
}

// traced is the traced run: untraced and traced solves alternate for the
// budget, then the layer probes run at the workload's configuration. The
// other workloads are set up and solved once each, traced, so that every
// traced run reports every per-layer metric.
func (s *session) traced(sp workloadSpec, budget time.Duration) (report, error) {
	tr := newTracer()
	endRun := tr.begin(sp.name)
	w, _, err := s.setup(sp, tr)
	if err != nil {
		return report{}, err
	}
	plain, traced := s.loop(sp, w, budget, tr)
	if len(plain) == 0 || len(traced) == 0 {
		return report{}, fmt.Errorf("%s: no verified solves", sp.name)
	}
	p50 := median(wallSeconds(plain))
	var pops int64
	for _, x := range plain {
		pops += x.c.pops
	}
	pairs := int(pops / int64(len(plain)))

	vals := map[string]float64{}
	layerMeans(vals, traced)

	endBase := tr.begin("baseline")
	base := sp.opts(s.nextSeed())
	base.Threads, base.Backend = 1, cq.ExactBackend
	t1, err := s.solveOnce(sp, w, base, nil)
	endBase()
	if err != nil {
		return report{}, fmt.Errorf("baseline solve: %w", err)
	}
	vals["baseline.t1_exact_s"] = t1.wall.Seconds()
	vals["baseline.speedup"] = t1.wall.Seconds() / p50
	vals["trace.overhead_frac"] = median(wallSeconds(traced))/p50 - 1

	if err := probeLayers(vals, sp, pairs, s.nextSeed(), tr); err != nil {
		return report{}, err
	}
	noop := vals["engine.noop_seeded_ns_per_task"]
	if sp.spawned {
		noop = vals["engine.noop_spawn_ns_per_task"]
	}
	vals["engine.share_est"] = float64(pairs) * noop / (threads * p50 * 1e9)

	for _, name := range workloadNames() {
		if name == sp.name {
			continue
		}
		other := workloads[name]
		ow, _, err := s.setup(other, tr)
		if err != nil {
			return report{}, err
		}
		smp, err := s.solveOnce(other, ow, other.opts(s.nextSeed()), tr)
		if err != nil {
			return report{}, fmt.Errorf("%s: %w", name, err)
		}
		layerMeans(vals, []sample{smp})
	}
	endRun()

	for metricName, spanName := range spanMetrics {
		vals[metricName] = median(tr.durations(spanName))
	}
	m, err := fill(perLayerMetrics, vals)
	if err != nil {
		return report{}, err
	}
	fmt.Printf("%s per-layer (%d untraced + %d traced solves, %d pairs per solve):\n",
		sp.name, len(plain), len(traced), pairs)
	printMetrics(perLayerMetrics, m)
	fmt.Println("self time by span:")
	tr.printSelfTimes()
	path := fmt.Sprintf(".bench_build/spans-%s-%d.jsonl", sp.name, s.seed)
	if err := tr.write(path); err != nil {
		return report{}, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("%d spans written to %s\n", len(tr.spans), path)
	return report{Correct: s.failed == 0, Attempted: s.attempted, Failed: s.failed, Metrics: m}, nil
}

// spanMetrics maps per-layer metrics to the span whose median duration they
// report.
var spanMetrics = map[string]string{
	"graph.road_s":               "graph.Road",
	"sssp.dijkstra_s":            "sssp.Dijkstra",
	"delaunay.triangulate_seq_s": "delaunay.Triangulate",
	"txn.generate_s":             "txn.NewWorkload",
	"txn.certify_s":              "txn.certify",
	"sssp.verify_s":              "sssp.verify",
	"delaunay.verify_s":          "delaunay.verify",
}

// layerMeans stores the mean over samples of each workload-reported layer
// metric into vals.
func layerMeans(vals map[string]float64, samples []sample) {
	sum := map[string]float64{}
	n := map[string]int{}
	for _, x := range samples {
		for k, v := range x.c.layer {
			sum[k] += v
			n[k]++
		}
	}
	for k, v := range sum {
		vals[k] = v / float64(n[k])
	}
}

func wallSeconds(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, x := range samples {
		out[i] = x.wall.Seconds()
	}
	return out
}

// median returns the median of xs, or 0 when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile of xs with at least ten values above
// it, and which percentile that is.
func tail(xs []float64) (value, pct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	k := max(len(s)-11, 0)
	return s[k], 100 * float64(k+1) / float64(len(s))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB returns the process's peak resident set in MiB (Linux reports
// ru_maxrss in KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
