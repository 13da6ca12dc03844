package cq

import "relaxsched/internal/rng"

// Pair is one (value, priority) element of a batch operation. Lower
// priorities are better, exactly as in BatchQueue.Push.
type Pair struct {
	Value    int64
	Priority int64
}

// BatchQueue is a concurrent relaxed priority queue over (value, priority)
// pairs. Lower priorities are better. Duplicate values are permitted:
// algorithms without DecreaseKey (e.g. parallel SSSP) insert a fresh pair
// per update and filter stale ones on pop.
//
// Besides the singleton Push/Pop it moves whole batches per coordination
// round (lock acquisition, CAS, shard choice): PushBatch/PopBatch pay the
// queue-operation cost once per batch rather than once per element (the
// ARock-style local-buffer amortization named in ROADMAP.md). This is the
// hot-path API of the parallel engine, whose workers buffer relaxations
// and flush them through the batch operations. Every backend batches
// natively: the MultiQueue and the exact baseline hold one lock across the
// batch, the lock-free MultiQueue folds a batch into a single root CAS.
//
// All methods except Len are safe for concurrent use, and batches
// interleave safely with concurrent singleton operations. The *rng.Xoshiro
// passed to every operation must be goroutine-local (use rng.Split per
// worker); backends draw their randomized choices from it so runs stay
// deterministic per worker stream.
//
// Pop's ok=false, like PopBatch returning 0, means the structure *appeared*
// empty. With concurrent pushers this is inherently racy — an element
// mid-push is invisible — so callers must layer their own termination
// protocol (typically an in-flight counter: see core.ParallelRun and
// sssp.Parallel) rather than trusting a single empty result.
//
// Conformance contract (enforced by cqtest, which every backend must pass):
//
//   - no element is lost or duplicated under concurrent push/pop, singleton
//     or batched;
//   - Push of ReservedPriority panics, and so does a PushBatch containing
//     it — before inserting anything, so the queue is left untouched;
//   - a backend built with threads = 1, queueMultiplier = 1 degenerates to
//     an exact queue under sequential use (pops and batch pops in priority
//     order);
//   - under the in-flight-counter termination protocol, racing pushers and
//     poppers drain every element.
type BatchQueue interface {
	// Push inserts a (value, priority) pair.
	Push(r *rng.Xoshiro, value, priority int64)
	// Pop removes and returns a small-rank pair; ok=false if the queue
	// appeared empty.
	Pop(r *rng.Xoshiro) (value, priority int64, ok bool)
	// PushBatch inserts every pair. Backends may place the whole batch in
	// one internal structure; relaxation quality degrades gracefully with
	// batch size, it is not an error.
	PushBatch(r *rng.Xoshiro, pairs []Pair)
	// PopBatch removes up to len(dst) small-rank pairs into dst and
	// returns how many were written. 0 means the queue appeared empty.
	PopBatch(r *rng.Xoshiro, dst []Pair) int
	// NumQueues reports the number of independent internal structures
	// (shards/queues); 1 for single-structure backends. Diagnostics only.
	NumQueues() int
	// Len reports the number of stored pairs. It may lock internal state
	// and is only meaningful at quiescence; tests and diagnostics only.
	Len() int
}
