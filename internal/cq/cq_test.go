package cq_test

import (
	"fmt"
	"sync/atomic"
	"testing"

	"relaxsched/internal/cq"
	"relaxsched/internal/cq/cqtest"
	"relaxsched/internal/rng"
)

// Every registered backend must pass the shared conformance + race suite.
func TestBackendConformance(t *testing.T) {
	for _, b := range cq.Backends() {
		t.Run(string(b), func(t *testing.T) {
			cqtest.Run(t, cqtest.ForBackend(b))
		})
	}
}

func TestNewDefaultsToMultiQueue(t *testing.T) {
	q, err := cq.New("", 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := q.(*cq.MultiQueue); !ok {
		t.Fatalf("New(\"\") built %T, want *cq.MultiQueue", q)
	}
}

// TestNewReturnsConcreteBackend checks that New hands back each backend's
// own type, unwrapped, sized threads*multiplier (one structure for exact).
func TestNewReturnsConcreteBackend(t *testing.T) {
	want := map[cq.Backend]struct {
		typ    string
		queues int
	}{
		cq.MultiQueueBackend: {"*cq.MultiQueue", 6},
		cq.LockFreeBackend:   {"*cq.LockFreeMQ", 6},
		cq.ExactBackend:      {"*cq.Exact", 1},
	}
	for _, b := range cq.Backends() {
		t.Run(string(b), func(t *testing.T) {
			w, ok := want[b]
			if !ok {
				t.Fatalf("no expectation for registered backend %q", b)
			}
			q, err := cq.New(b, 3, 2)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%T", q); got != w.typ {
				t.Fatalf("New(%q) built %s, want %s", b, got, w.typ)
			}
			if q.NumQueues() != w.queues {
				t.Fatalf("NumQueues = %d, want %d", q.NumQueues(), w.queues)
			}
		})
	}
}

func TestNewRejectsBadArguments(t *testing.T) {
	if _, err := cq.New("fancy-lsm", 2, 2); err == nil {
		t.Fatal("unknown backend accepted")
	}
	if _, err := cq.New(cq.MultiQueueBackend, 0, 2); err == nil {
		t.Fatal("threads = 0 accepted")
	}
	if _, err := cq.New(cq.ExactBackend, 2, 0); err == nil {
		t.Fatal("queueMultiplier = 0 accepted")
	}
}

func TestBackendValid(t *testing.T) {
	for _, b := range cq.Backends() {
		if !b.Valid() {
			t.Fatalf("registered backend %q reported invalid", b)
		}
	}
	if !cq.Backend("").Valid() {
		t.Fatal("empty backend (default) reported invalid")
	}
	if cq.Backend("nope").Valid() {
		t.Fatal("unknown backend reported valid")
	}
}

// BenchmarkPushPop compares the backends head-to-head on the mixed
// push/pop hot path at NumCPU contention.
func BenchmarkPushPop(b *testing.B) {
	for _, backend := range cq.Backends() {
		b.Run(string(backend), func(b *testing.B) {
			q, err := cq.New(backend, 8, 2)
			if err != nil {
				b.Fatal(err)
			}
			var worker atomic.Uint64 // distinct stream per goroutine, or the
			// shard choices collide in lockstep and measure fake contention
			b.RunParallel(func(pb *testing.PB) {
				r := rng.New(worker.Add(1) * 0x9e3779b97f4a7c15)
				i := int64(0)
				for pb.Next() {
					q.Push(r, i, i%1024)
					q.Pop(r)
					i++
				}
			})
		})
	}
}

// BenchmarkPushPopBatch measures the batch amortization directly: the same
// mixed workload as BenchmarkPushPop, but moving elements batch-at-a-time.
// Comparing (backend, batch=1) with larger batches isolates the per-element
// coordination cost each backend saves.
func BenchmarkPushPopBatch(b *testing.B) {
	for _, backend := range cq.Backends() {
		for _, batch := range []int{1, 8, 64} {
			b.Run(fmt.Sprintf("%s/batch%d", backend, batch), func(b *testing.B) {
				q, err := cq.New(backend, 8, 2)
				if err != nil {
					b.Fatal(err)
				}
				var worker atomic.Uint64 // distinct stream per goroutine
				b.RunParallel(func(pb *testing.PB) {
					r := rng.New(worker.Add(1) * 0xd1342543de82ef95)
					out := make([]cq.Pair, 0, batch)
					dst := make([]cq.Pair, batch)
					i := int64(0)
					for pb.Next() {
						out = append(out, cq.Pair{Value: i, Priority: i % 1024})
						if len(out) == batch {
							q.PushBatch(r, out)
							out = out[:0]
							q.PopBatch(r, dst)
						}
						i++
					}
				})
			})
		}
	}
}
