package inflight

import (
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

func TestSequentialAccounting(t *testing.T) {
	c := New(2)
	c.Produce(0)
	if c.Quiescent() {
		t.Fatal("quiescent with one live task")
	}
	if c.Live() != 1 {
		t.Fatalf("Live = %d, want 1", c.Live())
	}
	c.ProduceN(0, 5)
	c.ProduceN(1, 0)
	if c.Live() != 6 {
		t.Fatalf("Live = %d, want 6", c.Live())
	}
	c.Complete(1) // completed by a different worker than the producer
	for i := 0; i < 5; i++ {
		c.Complete(i % 2)
	}
	if !c.Quiescent() {
		t.Fatal("not quiescent after draining")
	}
	// Quiescence is permanent: a second scan agrees.
	if !c.Quiescent() {
		t.Fatal("quiescent counter stopped reporting quiescent")
	}
}

func TestFreshClosedWorldQuiescent(t *testing.T) {
	// A closed-world counter with nothing produced is quiescent (an empty
	// frontier terminates at once), and the observation is permanent.
	c := New(1)
	if !c.Quiescent() {
		t.Fatal("fresh closed-world counter not quiescent")
	}
	if !c.Quiescent() {
		t.Fatal("fresh closed-world counter stopped reporting quiescent")
	}
}

func TestOpenProducerAccounting(t *testing.T) {
	// 2 workers + 2 declared producers. Quiescent must stay false —
	// even with zero tasks anywhere — until both producers close.
	c := NewOpen(2, 2)
	if c.Quiescent() {
		t.Fatal("quiescent with two open producers")
	}
	if c.Open() != 2 {
		t.Fatalf("Open = %d, want 2", c.Open())
	}
	p0, p1 := c.Attach(), c.Attach()
	p0.Produce() // producer 0 streams one task
	p0.Close()
	if c.Quiescent() {
		t.Fatal("quiescent with one open producer and a live task")
	}
	c.Complete(0) // a worker completes the streamed task
	if c.Quiescent() {
		t.Fatal("quiescent with one producer still open")
	}
	p1.ProduceN(4) // producer 1 streams a batch
	p1.Close()
	if c.Open() != 0 {
		t.Fatalf("Open = %d, want 0", c.Open())
	}
	if c.Quiescent() {
		t.Fatal("quiescent with four live streamed tasks")
	}
	if c.Live() != 4 {
		t.Fatalf("Live = %d, want 4", c.Live())
	}
	produced, completed := c.Tallies()
	if produced != 5 || completed != 1 {
		t.Fatalf("Tallies = (%d, %d), want (5, 1)", produced, completed)
	}
	for i := 0; i < 4; i++ {
		c.Complete(1)
	}
	if !c.Quiescent() {
		t.Fatal("not quiescent after all producers closed and tasks drained")
	}
}

func TestCloseOverrunPanics(t *testing.T) {
	c := NewOpen(1, 1)
	p := c.Attach()
	p.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("extra Close did not panic")
		}
	}()
	p.Close()
}

func TestNewOpenValidation(t *testing.T) {
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatal(what)
			}
		}()
		f()
	}
	mustPanic("negative producer count accepted", func() { NewOpen(1, -1) })
	c := NewOpen(1, 2)
	c.Attach()
	c.Attach()
	mustPanic("Attach beyond the declared producer count accepted", func() { c.Attach() })
}

func TestSlotPadding(t *testing.T) {
	// Each slot must span at least two cache lines so the produced and
	// completed words of different workers never share a line.
	if s := unsafe.Sizeof(slot{}); s < 128 {
		t.Fatalf("slot is %d bytes, want >= 128", s)
	}
}

// TestNeverFalselyQuiescent hammers the exact interleaving that breaks
// signed per-worker deltas: worker A holds a live task while workers pass
// other tasks around. Quiescent must never report true before the final
// completion. The open-system input adds producers that stream tasks for
// the workers to complete and then close, all while the scanner polls.
func TestNeverFalselyQuiescent(t *testing.T) {
	const (
		workers = 4
		rounds  = 2000
	)
	for _, producers := range []int{0, 2} {
		c := NewOpen(workers, producers)
		// One pinned task stays live for the whole test, so Quiescent must
		// report false no matter how the churn below interleaves with its
		// scans. Cross-worker completions (worker w completes what w+1
		// produced, or what a producer streamed) build exactly the per-slot
		// imbalances that fool a signed single-scan counter.
		c.Produce(0)
		var falseQuiescent atomic.Bool
		stop := make(chan struct{})
		scannerDone := make(chan struct{})
		go func() {
			defer close(scannerDone)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if c.Quiescent() {
					falseQuiescent.Store(true)
					return
				}
			}
		}()
		// tokens carries produced tasks to their completers, so completions
		// always follow a matching production (the protocol invariant) while
		// still landing on a different worker's slot most of the time;
		// streamed does the same for producer-born tasks.
		tokens := make(chan struct{}, workers*rounds)
		streamed := make(chan struct{}, producers*rounds)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					c.Produce(w)
					tokens <- struct{}{}
					<-tokens
					c.Complete(w)
					select {
					case <-streamed:
						c.Complete(w)
					default:
					}
				}
			}(w)
		}
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(ps *ProducerSlot) {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					ps.Produce()
					streamed <- struct{}{}
				}
				ps.Close()
			}(c.Attach())
		}
		wg.Wait()
		close(streamed)
		for range streamed {
			c.Complete(0)
		}
		close(stop)
		<-scannerDone
		if falseQuiescent.Load() {
			t.Fatalf("%d producers: Quiescent reported true while a task was provably live", producers)
		}
		c.Complete(workers - 1)
		if !c.Quiescent() {
			t.Fatalf("%d producers: not quiescent after the pinned task completed", producers)
		}
	}
}
