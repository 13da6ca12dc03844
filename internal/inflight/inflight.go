// Package inflight provides the termination-detection counter shared by the
// parallel runtimes (internal/engine and everything built on it).
//
// A relaxed concurrent queue cannot signal "done": Pop reporting empty is
// inherently racy against in-flight pushers, so workers must track how many
// produced tasks have not yet been fully processed. A single global atomic
// counter works but becomes the dominant cache-line hot-spot: every push and
// every pop of every worker bounces the same line. Counter eliminates the
// contention by giving each worker its own cache-padded slot, written only
// by that worker; the cross-worker sum-scan happens only when a worker sees
// an apparently empty queue, which is rare on the hot path.
//
// A naive signed per-worker delta (producer increments its slot, consumer
// decrements its own) admits a classic false-termination race: a scan can
// read one slot before a production and another slot after the matching
// consumption and see a zero sum while work is live. Counter therefore
// keeps two monotonically non-decreasing tallies per slot — produced and
// completed — and Quiescent scans completed before produced. Monotonicity
// makes that double scan safe: each completed read is a lower bound at scan
// time t0 (the instant between the two scans), each produced read an upper
// bound at t0, and completed <= produced always holds globally, so
// sum(completed reads) == sum(produced reads) forces both to equal the true
// totals at t0 — a consistent instant with no live task. Since new tasks
// are only produced while processing a live one, none can appear afterwards
// except through queues the caller has already observed empty.
//
// # Open systems: declared external producers
//
// The closed-world argument above assumes tasks are only born while a
// worker processes a live one. Streaming executions break that: external
// producers push tasks from outside the worker set at arbitrary times. The
// producer set is fixed when the counter is built (NewOpen): each declared
// producer gets its own tally slot, and one open count starts at the
// declared number. Producer slots are tally-only — the tasks they Produce
// are Completed by worker slots — and a producer's Close decrements open
// after its final Produce.
//
// Quiescent loads open first and returns false unless it is zero. Open ==
// 0 means every declared producer's final Produce happened before its
// Close, which happened before this load, so the monotone produced tallies
// scanned afterwards already include every externally born task — the
// system is closed-world again from the load onward, and the double-scan
// argument applies unchanged. A true result is permanent: open never
// rises, and with no live task no worker can produce again.
package inflight

import (
	"fmt"
	"sync/atomic"
)

// slot holds one tally pair, padded to its own cache lines so neighbouring
// workers never false-share.
type slot struct {
	produced  atomic.Int64
	completed atomic.Int64
	_         [112]byte // pad the 16 byte payload to two 64-byte lines
}

// Counter tracks produced-versus-completed tasks across a fixed set of
// workers, plus (for open systems) a fixed set of external producers.
// The zero value is unusable; construct with New or NewOpen.
type Counter struct {
	slots []slot
	prods []slot
	// open counts declared producers not yet closed; it only ever falls.
	open atomic.Int64
	// attached is the number of producer slots Attach has handed out.
	attached atomic.Int64
}

// New returns a closed-world counter with one padded slot per worker
// (workers >= 1): no external producers, Quiescent is the pure double scan.
func New(workers int) *Counter {
	return NewOpen(workers, 0)
}

// NewOpen returns a counter for an open system with workers worker slots
// (indices [0, workers)) and producers external producer slots, claimed
// one per Attach. Quiescent stays false until every declared producer has
// been attached and closed.
func NewOpen(workers, producers int) *Counter {
	if workers < 1 {
		panic("inflight: need at least one worker")
	}
	if producers < 0 {
		panic("inflight: negative producer count")
	}
	c := &Counter{slots: make([]slot, workers), prods: make([]slot, producers)}
	c.open.Store(int64(producers))
	return c
}

// Attach hands out the next declared producer slot. It is safe for
// concurrent use and panics once every declared slot has been handed out.
func (c *Counter) Attach() *ProducerSlot {
	i := c.attached.Add(1) - 1
	if i >= int64(len(c.prods)) {
		panic(fmt.Sprintf("inflight: Attach beyond the %d declared producers", len(c.prods)))
	}
	return &ProducerSlot{c: c, s: &c.prods[i]}
}

// ProducerSlot is one external producer's handle on the counter: tally
// Produce calls through it before each push, then Close exactly once.
// Like the producer it backs, it is single-goroutine.
type ProducerSlot struct {
	c *Counter
	s *slot
}

// Produce records one task created by this producer. It must be called
// before the task becomes visible to workers (i.e. before the push).
//
//relax:hotpath
func (p *ProducerSlot) Produce() {
	p.s.produced.Add(1)
}

// ProduceN records n tasks created by this producer, n >= 0.
//
//relax:hotpath
func (p *ProducerSlot) ProduceN(n int64) {
	if n > 0 {
		p.s.produced.Add(n)
	}
}

// Close records that this producer will produce no more tasks. It must be
// called after the producer's final Produce, exactly once; it panics if
// the counter has no open producers to close.
func (p *ProducerSlot) Close() {
	if p.c.open.Add(-1) < 0 {
		panic("inflight: Close without an open producer")
	}
}

// Produce records that worker w created one task. It must be called before
// the task becomes visible to other workers (i.e. before the push).
//
//relax:hotpath
func (c *Counter) Produce(w int) {
	c.slots[w].produced.Add(1)
}

// ProduceN records n tasks created by worker w, n >= 0.
//
//relax:hotpath
func (c *Counter) ProduceN(w int, n int64) {
	if n > 0 {
		c.slots[w].produced.Add(n)
	}
}

// Complete records that worker w finished processing one task. It must be
// called after every task the processing produced has been recorded with
// Produce.
//
//relax:hotpath
func (c *Counter) Complete(w int) {
	c.slots[w].completed.Add(1)
}

// Open returns the number of declared producers not yet closed.
func (c *Counter) Open() int64 { return c.open.Load() }

// Quiescent reports whether every producer has closed and every produced
// task has been completed. A true result is definitive and permanent (see
// the package comment for the double-scan argument and why the open count
// is read first); a false result may be transient and callers should
// re-poll.
func (c *Counter) Quiescent() bool {
	if c.open.Load() != 0 {
		return false
	}
	var completed int64
	for i := range c.slots {
		completed += c.slots[i].completed.Load()
	}
	var produced int64
	for i := range c.slots {
		produced += c.slots[i].produced.Load()
	}
	for i := range c.prods {
		produced += c.prods[i].produced.Load()
	}
	return completed == produced
}

// Live returns a racy snapshot of produced-minus-completed tasks. For
// diagnostics only; termination decisions must use Quiescent.
func (c *Counter) Live() int64 {
	var live int64
	for i := range c.slots {
		live += c.slots[i].produced.Load() - c.slots[i].completed.Load()
	}
	for i := range c.prods {
		live += c.prods[i].produced.Load()
	}
	return live
}

// Tallies returns racy snapshots of the global produced and completed
// sums. For diagnostics only.
func (c *Counter) Tallies() (produced, completed int64) {
	for i := range c.slots {
		produced += c.slots[i].produced.Load()
		completed += c.slots[i].completed.Load()
	}
	for i := range c.prods {
		produced += c.prods[i].produced.Load()
	}
	return produced, completed
}

// Progress returns a racy monotone progress measure: the sum of every
// produced and completed tally. It only ever grows, and it grows exactly
// when a task is born or finishes — re-insertion churn (a popped task
// pushed back unchanged) moves neither tally, so a flat Progress over time
// means the system is completing no work. Note that flat Progress does not
// by itself mean stuck: an idle open system (parked workers, quiet
// producers, zero live tasks) is flat and healthy. Stall watchdogs key off
// Progress and Live together.
func (c *Counter) Progress() int64 {
	var sum int64
	for i := range c.slots {
		sum += c.slots[i].produced.Load() + c.slots[i].completed.Load()
	}
	for i := range c.prods {
		sum += c.prods[i].produced.Load()
	}
	return sum
}
