// Package cq defines the contract for concurrent relaxed priority queues —
// the structures that drive the paper's concurrent regime (Section 7) — and
// provides the backends behind it. The sequential scheduler model
// (internal/sched) abstracts *what* relaxation costs; this package abstracts
// *which concrete concurrent design* pays it, so the runtime (core.ParallelRun),
// the algorithms (sssp.Parallel) and the experiment harness can compare
// backends head-to-head instead of hard-wiring one.
//
// Three backends ship today:
//
//   - MultiQueueBackend: the lock-per-queue MultiQueue — threads x multiplier
//     4-ary heaps, uniform 2-choice pops over cached atomic tops, TryLock with
//     bounded rerandomization on contention.
//   - LockFreeBackend: a lock-free MultiQueue — each queue is a mutable
//     pairing heap behind one atomic root pointer, taken whole by Swap and
//     republished by CAS (ownership transfer), with epoch-based node
//     reclamation and per-worker shard-affine handles; no operation ever
//     blocks another.
//   - ExactBackend: the strict-order control — one binary heap behind one
//     mutex, relaxation factor exactly 1. Not relaxed; it exists so every
//     experiment can price relaxation against strict ordering on the same
//     harness.
//
// All but the exact baseline are relaxed: Pop returns a small-rank
// element, not necessarily the minimum. Every backend implements the one
// queue interface, BatchQueue: singleton Push/Pop plus PushBatch/PopBatch,
// which move a whole batch per coordination round. New backends must pass
// the shared conformance and race-stress suite in cqtest.
package cq

import (
	"fmt"
	"math"
)

// ReservedPriority is the one priority value backends may reserve for
// internal sentinels (the empty marker of a cached top). Push panics on it.
const ReservedPriority = math.MaxInt64

// Backend names a concurrent queue implementation.
type Backend string

const (
	// MultiQueueBackend is the lock-per-queue MultiQueue with 2-choice pops
	// (the paper's Section 7 structure). This is the default.
	MultiQueueBackend Backend = "multiqueue"
	// LockFreeBackend is the lock-free MultiQueue: mutable pairing heaps
	// taken and republished through one atomic root per queue, epoch-based
	// node reclamation (internal/epoch) and shard-affine worker handles.
	LockFreeBackend Backend = "lockfree"
	// ExactBackend is the strict-order baseline: one binary heap behind one
	// mutex, relaxation factor exactly 1. It exists as the control arm of
	// every relaxed-vs-strict comparison — under contention its single lock
	// is the bottleneck the relaxed backends dissipate.
	ExactBackend Backend = "exact"
)

// DefaultBackend is used when a Backend field is left at its zero value.
const DefaultBackend = MultiQueueBackend

// registry is the single source of truth for available backends, default
// first; Backends, Valid and New all derive from it. Adding a backend means
// adding one entry here (and making it pass cqtest).
var registry = []struct {
	name  Backend
	build func(threads, queueMultiplier int) BatchQueue
}{
	{MultiQueueBackend, func(t, m int) BatchQueue { return NewMultiQueue(t * m) }},
	{LockFreeBackend, func(t, m int) BatchQueue { return NewLockFreeMQ(t * m) }},
	{ExactBackend, func(t, m int) BatchQueue { return NewExact() }},
}

// Backends returns every registered backend, default first.
func Backends() []Backend {
	out := make([]Backend, len(registry))
	for i, e := range registry {
		out[i] = e.name
	}
	return out
}

// Valid reports whether b names a registered backend ("" counts as the
// default).
func (b Backend) Valid() bool {
	if b == "" {
		return true
	}
	for _, e := range registry {
		if e.name == b {
			return true
		}
	}
	return false
}

// New builds a queue of the given backend sized for a run with the given
// worker count and relaxation multiplier (>= 1 each). For the MultiQueues
// the product threads*queueMultiplier is the number of internal queues (the
// classic configuration uses multiplier 2); the exact baseline is one
// structure whatever the arguments. An empty backend selects
// DefaultBackend; an unknown one is an error. The returned queue is the
// backend's concrete type (*MultiQueue, *LockFreeMQ, *Exact), unwrapped.
func New(b Backend, threads, queueMultiplier int) (BatchQueue, error) {
	if threads < 1 {
		return nil, fmt.Errorf("cq: need threads >= 1, got %d", threads)
	}
	if queueMultiplier < 1 {
		return nil, fmt.Errorf("cq: need queueMultiplier >= 1, got %d", queueMultiplier)
	}
	if b == "" {
		b = DefaultBackend
	}
	for _, e := range registry {
		if e.name == b {
			return e.build(threads, queueMultiplier), nil
		}
	}
	return nil, fmt.Errorf("cq: unknown backend %q (have %v)", b, Backends())
}
