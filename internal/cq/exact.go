package cq

import (
	"sync"

	"relaxsched/internal/rng"
)

// Exact is the strict-order baseline backend: one binary heap behind one
// mutex. Pop always returns the global minimum, so its relaxation factor is
// exactly 1 — the k = 1 scheduler of the paper's sequential model, realized
// concurrently. It exists to be measured against: every coordination round
// serializes on the single lock, which is precisely the bottleneck the
// relaxed designs (the locked and lock-free MultiQueues) exist to
// dissipate. Workloads where relaxation should win — the contended
// transactional workload above all — quantify the win against this
// backend's rows. Batches take the mutex once, so batching amortizes the
// lock here exactly as it does on the relaxed backends.
type Exact struct {
	mu   sync.Mutex
	heap []Pair
}

// NewExact returns an exact (strict priority order) mutex-heap queue.
func NewExact() *Exact {
	return &Exact{}
}

// Push inserts a pair; the rng stream is unused (no randomized choices).
func (q *Exact) Push(r *rng.Xoshiro, value, priority int64) {
	q.PushBatch(r, []Pair{{Value: value, Priority: priority}})
}

// PushBatch inserts every pair under one lock acquisition. It validates the
// whole batch first, so a reserved priority panics with the queue untouched.
func (q *Exact) PushBatch(_ *rng.Xoshiro, pairs []Pair) {
	for _, p := range pairs {
		if p.Priority == ReservedPriority {
			panic("cq: priority MaxInt64 is reserved")
		}
	}
	q.mu.Lock()
	for _, p := range pairs {
		q.heap = append(q.heap, p)
		q.siftUp(len(q.heap) - 1)
	}
	q.mu.Unlock()
}

// Pop removes and returns the global minimum-priority pair. It is PopBatch
// with a batch of one.
func (q *Exact) Pop(r *rng.Xoshiro) (value, priority int64, ok bool) {
	var one [1]Pair
	if q.PopBatch(r, one[:]) == 0 {
		return 0, 0, false
	}
	return one[0].Value, one[0].Priority, true
}

// PopBatch removes the len(dst) smallest pairs (fewer if the queue holds
// fewer) into dst, in priority order, under one lock acquisition.
func (q *Exact) PopBatch(_ *rng.Xoshiro, dst []Pair) int {
	q.mu.Lock()
	n := 0
	for n < len(dst) && len(q.heap) > 0 {
		last := len(q.heap) - 1
		dst[n] = q.heap[0]
		q.heap[0] = q.heap[last]
		q.heap = q.heap[:last]
		if last > 0 {
			q.siftDown(0)
		}
		n++
	}
	q.mu.Unlock()
	return n
}

// NumQueues reports 1: a single shared structure.
func (q *Exact) NumQueues() int { return 1 }

// Len reports the stored pair count.
func (q *Exact) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.heap)
}

func (q *Exact) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if q.heap[parent].Priority <= q.heap[i].Priority {
			return
		}
		q.heap[parent], q.heap[i] = q.heap[i], q.heap[parent]
		i = parent
	}
}

func (q *Exact) siftDown(i int) {
	n := len(q.heap)
	for {
		min, l, r := i, 2*i+1, 2*i+2
		if l < n && q.heap[l].Priority < q.heap[min].Priority {
			min = l
		}
		if r < n && q.heap[r].Priority < q.heap[min].Priority {
			min = r
		}
		if min == i {
			return
		}
		q.heap[i], q.heap[min] = q.heap[min], q.heap[i]
		i = min
	}
}

var _ BatchQueue = (*Exact)(nil)
