// Example sorting: comparison sorting by BST insertion under every
// scheduler family in the library.
//
// The program builds the sorting dependency DAG for a random key sequence
// and executes it through each scheduler, printing the extra steps (the
// paper's wasted-work metric) and the audited relaxation the scheduler
// actually exhibited. It demonstrates both the Theorem 3.3 upper-bound
// regime (adversarial k-relaxed) and the Theorem 5.1 lower-bound regime
// (MultiQueue).
//
// Run with:
//
//	go run ./examples/sorting [-n 20000]
package main

import (
	"flag"
	"fmt"
	"log"
	"math"

	"relaxsched"
)

func main() {
	n := flag.Int("n", 20000, "number of keys")
	flag.Parse()

	keys := make([]int64, *n)
	state := uint64(12345)
	for i := range keys {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		keys[i] = int64(state % (1 << 40))
	}
	dag := relaxsched.BSTSortDAG(keys)
	fmt.Printf("keys: %d, BST parent edges: %d\n\n", dag.N, dag.NumDeps())
	fmt.Printf("%-16s %12s %12s %10s %10s\n",
		"scheduler", "extra-steps", "adj-inv", "mean-rank", "max-rank")

	schedulers := []struct {
		name string
		mk   func() relaxsched.Scheduler
	}{
		{"exact", func() relaxsched.Scheduler { return relaxsched.NewExactScheduler(dag.N) }},
		{"k-relaxed k=4", func() relaxsched.Scheduler { return relaxsched.NewKRelaxedScheduler(dag.N, 4) }},
		{"k-relaxed k=16", func() relaxsched.Scheduler { return relaxsched.NewKRelaxedScheduler(dag.N, 16) }},
		{"random-k k=16", func() relaxsched.Scheduler { return relaxsched.NewRandomKScheduler(dag.N, 16, 7) }},
		{"batch k=8", func() relaxsched.Scheduler { return relaxsched.NewBatchScheduler(dag.N, 8) }},
		{"multiqueue 8q", func() relaxsched.Scheduler {
			return relaxsched.NewMultiQueueWith(relaxsched.MultiQueueOptions{N: dag.N, Queues: 8, Choices: 2, Seed: 7})
		}},
		{"spraylist p=8", func() relaxsched.Scheduler {
			return relaxsched.NewSprayListWith(relaxsched.SprayListOptions{N: dag.N, Threads: 8, Seed: 7})
		}},
	}
	for _, s := range schedulers {
		aud := relaxsched.NewAuditor(s.mk(), 4096)
		res, err := relaxsched.RunIncremental(dag, aud, relaxsched.RunOptions{})
		if err != nil {
			log.Fatalf("%s: %v", s.name, err)
		}
		rep := aud.Report()
		fmt.Printf("%-16s %12d %12d %10.2f %10d\n",
			s.name, res.ExtraSteps, res.AdjacentInversions, rep.MeanRank, rep.MaxRank)
	}

	fmt.Printf("\nTheorem 5.1 floor for the MultiQueue: (1/8) ln n = %.1f extra steps\n",
		math.Log(float64(*n))/8)
	fmt.Println("Theorem 3.3 ceiling for k-relaxed:   O(k^4 log n) extra steps")
}
