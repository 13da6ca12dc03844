package experiments

import (
	"fmt"
	"io"
	"time"

	"relaxsched/internal/engine"
	"relaxsched/internal/sched"
	"relaxsched/internal/stats"
)

// IdleCostRow is one point of the idle-cost experiment: a streaming
// execution held idle — workers live, one producer open, no arrivals — for
// a fixed window, then hit with a job burst. The row reports what idleness
// costs (process CPU consumed across the quiet window) and what parking
// costs on wake-up (the burst's sojourn-latency quantiles and total drain
// time). Strategy is an identity column that is always "park", the
// engine's only idle path; it stays so recorded trajectories keep matching
// rows across versions.
//
// The design intent the numbers back: a parked service should sit at ≈0%
// CPU — Park is a channel receive, not a poll loop — and the price of
// parking must show up only as a bounded wake-up cost on the first burst
// jobs, not as a throughput regression.
type IdleCostRow struct {
	Strategy  string // always "park"
	Threads   int
	N         int     // burst size (jobs pushed after the idle window)
	WindowMs  float64 // idle observation window
	CPUMillis float64 // process CPU consumed across the window (-1: unsupported OS)
	CPUPct    float64 // CPUMillis / WindowMs * 100 (-1: unsupported OS)
	// WakeP50Us and WakeP99Us are the burst jobs' push-to-execute latency
	// quantiles in microseconds: for park they include the unpark path.
	WakeP50Us float64
	WakeP99Us float64
	DrainMs   float64 // wall time from first burst push to full drain
	HostEnv
}

// IdleCostResult holds the idle-cost row.
type IdleCostResult struct {
	Rows []IdleCostRow
}

// IdleCost measures the idle CPU cost and wake-up latency of the engine's
// parking idle path: start a streaming execution, let the pool go idle with
// a producer still open, read the process CPU clock across a quiet window,
// then push a burst and time the drain. Runs on the default backend (or
// Config.Backend when set).
func IdleCost(c Config) (IdleCostResult, error) {
	threads := c.maxThreads()
	if threads > 4 {
		threads = 4
	}
	burst := 20000 / c.scale()
	if burst < 200 {
		burst = 200
	}
	window, settle := 150*time.Millisecond, 20*time.Millisecond
	if c.scale() > 1 {
		window, settle = 30*time.Millisecond, 5*time.Millisecond
	}
	var cpuMs, p50, p99, drain stats.Sample
	cpuOK := true
	for trial := 0; trial < c.trials(); trial++ {
		s, err := sched.NewTopKStream(sched.StreamOptions{
			ExecOptions: engine.ExecOptions{
				Threads:         threads,
				QueueMultiplier: 2,
				Backend:         c.Backend,
				Seed:            c.Seed + uint64(trial*13),
			},
			Producers:   1,
			LatencyJobs: burst,
		})
		if err != nil {
			return IdleCostResult{}, fmt.Errorf("idlecost: %w", err)
		}
		p := s.NewProducer()
		// Settle: let the workers drain the (empty) queue into their
		// steady idle state — parked on the lot — before the measurement
		// window opens.
		time.Sleep(settle)
		c0, ok0 := processCPUTime()
		time.Sleep(window)
		c1, ok1 := processCPUTime()
		if ok0 && ok1 {
			cpuMs.Add(float64(c1-c0) / 1e6)
		} else {
			cpuOK = false
		}
		start := time.Now()
		for i := 0; i < burst; i++ {
			p.Push(int64(i), int64(i))
		}
		p.Close()
		sr := s.Wait()
		drain.Add(float64(time.Since(start)) / 1e6)
		if sr.Jobs != int64(burst) {
			return IdleCostResult{}, fmt.Errorf("idlecost: burst served %d of %d jobs", sr.Jobs, burst)
		}
		p50.Add(float64(sr.LatencyP50) / 1e3)
		p99.Add(float64(sr.LatencyP99) / 1e3)
	}
	row := IdleCostRow{
		Strategy: "park", Threads: threads, N: burst,
		WindowMs:  float64(window) / 1e6,
		CPUMillis: -1, CPUPct: -1,
		WakeP50Us: p50.Mean(), WakeP99Us: p99.Mean(),
		DrainMs: drain.Mean(),
		HostEnv: Host(),
	}
	if cpuOK {
		row.CPUMillis = cpuMs.Mean()
		row.CPUPct = cpuMs.Mean() / row.WindowMs * 100
	}
	return IdleCostResult{Rows: []IdleCostRow{row}}, nil
}

// Render writes the idle-cost table.
func (r IdleCostResult) Render(w io.Writer) error {
	t := stats.NewTable("strategy", "threads", "burst", "window-ms", "idle-cpu-ms", "idle-cpu-%", "wake-p50us", "wake-p99us", "drain-ms")
	for _, row := range r.Rows {
		t.AddRow(row.Strategy, row.Threads, row.N, row.WindowMs,
			row.CPUMillis, row.CPUPct, row.WakeP50Us, row.WakeP99Us, row.DrainMs)
	}
	return t.Render(w)
}
