// Quickstart: a sixty-second tour of the relaxsched public API.
//
// It builds a small random graph, solves SSSP four ways (exact Dijkstra,
// Delta-stepping, relaxed sequential-model Dijkstra, parallel MultiQueue),
// sorts a slice with the BST-insertion incremental algorithm, triangulates
// a point set, and runs the sorting DAG through a relaxed scheduler to show
// the extra-step accounting from the paper.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"relaxsched"
)

func main() {
	// --- SSSP four ways -------------------------------------------------
	g := relaxsched.RandomGraphWith(relaxsched.RandomGraphOptions{N: 20000, M: 100000, MaxWeight: 100, Seed: 1})
	exact := relaxsched.Dijkstra(g, 0)
	fmt.Printf("Dijkstra:        reached %d vertices, %d pops\n", exact.Reached, exact.Pops)

	ds := relaxsched.DeltaStepping(g, 0, 16)
	fmt.Printf("Delta-stepping:  %d pops (same distances: %v)\n",
		ds.Pops, equal(exact.Dist, ds.Dist))

	mq := relaxsched.NewMultiQueueWith(relaxsched.MultiQueueOptions{N: g.NumNodes, Queues: 8, Choices: 2, Hashed: true, Seed: 7})
	rel, err := relaxsched.RelaxedSSSP(g, 0, mq)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Relaxed (model): %d pops, overhead %.4f (Theorem 6.1 regime)\n",
		rel.Pops, rel.Overhead())

	par := relaxsched.ParallelSSSPWith(g, 0, relaxsched.ParallelSSSPOptions{ExecOptions: relaxsched.ExecOptions{Threads: 4, QueueMultiplier: 2, Seed: 42}})
	fmt.Printf("Parallel x4:     %d tasks processed, overhead %.4f\n",
		par.Processed, par.Overhead())

	// --- Incremental sorting under a relaxed scheduler ------------------
	keys := make([]int64, 10000)
	for i := range keys {
		keys[i] = int64((i*2654435761 + 12345) % 1000003)
	}
	sorted := relaxsched.BSTSort(keys)
	fmt.Printf("BST sort:        first=%d last=%d sorted=%v\n",
		sorted[0], sorted[len(sorted)-1], isSorted(sorted))

	dag := relaxsched.BSTSortDAG(keys)
	run, err := relaxsched.RunIncremental(dag,
		relaxsched.NewKRelaxedScheduler(dag.N, 8), relaxsched.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Relaxed sorting: %d tasks, %d extra steps (k=8 adversary; Theorem 3.3 says O(k^4 log n))\n",
		run.Processed, run.ExtraSteps)

	// --- Delaunay triangulation -----------------------------------------
	pts := make([]relaxsched.Point, 500)
	for i := range pts {
		pts[i] = relaxsched.Point{
			X: float64((i*48271)%99991) / 99991,
			Y: float64((i*69621)%99989) / 99989,
		}
	}
	tris, err := relaxsched.Triangulate(pts, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Delaunay:        %d points -> %d triangles\n", len(pts), len(tris))

	// --- Measuring a scheduler's actual relaxation ----------------------
	aud := relaxsched.NewAuditor(relaxsched.NewMultiQueueWith(relaxsched.MultiQueueOptions{N: 5000, Queues: 8, Choices: 2, Seed: 3}), 256)
	for i := 0; i < 5000; i++ {
		aud.Insert(i, int64(i))
	}
	for {
		task, _, ok := aud.ApproxGetMin()
		if !ok {
			break
		}
		aud.DeleteTask(task)
	}
	rep := aud.Report()
	fmt.Printf("MultiQueue(8q):  mean rank %.2f, max rank %d, max inversions %d\n",
		rep.MeanRank, rep.MaxRank, rep.MaxInv)
}

func equal(a, b []int64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func isSorted(a []int64) bool {
	for i := 1; i < len(a); i++ {
		if a[i-1] > a[i] {
			return false
		}
	}
	return true
}
