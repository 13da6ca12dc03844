#!/bin/sh
# Record this PR's benchmark trajectory: the batch-amortization sweep
# (whose batch-1 column is the backends head-to-head), the
# parallel-incremental extra-steps rows, the engine workloads (parallel
# branch-and-bound, parallel greedy MIS/coloring, parallel Delaunay with
# on-line dependency discovery, the streaming top-k job scheduler — its
# rows carrying p50/p99/p999 sojourn-latency columns), the shard-affinity
# ablation of the lock-free backend, the fault-injection sweep (seeded
# stalls, forced re-insertions, poisoned tasks vs. the fault-free
# baseline), the idle-cost rows (the parking idle path: idle-window CPU
# next to burst wake-up latency), and the OCC transactional workload
# (backends x Zipf skews x threads, every run certified serializable by
# replaying its commit log before the row is recorded), as a JSON-lines
# file at the repository root. Rows record the host's NumCPU/GOMAXPROCS
# so cross-machine comparisons warn instead of misleading. Override the
# workload with SCALE / TRIALS / MAXTHREADS, e.g.
#
#   SCALE=16 MAXTHREADS=8 scripts/bench.sh
#
# SCALE divides the full-size workloads (bigger = quicker); MAXTHREADS caps
# the thread sweep (oversubscribing the local core count is fine and still
# exercises contention). TRIALS trades recording time for row stability.
#
# Each experiment runs as its own relaxbench invocation under a BUDGET-
# second wall-clock timeout (default 600). On expiry the process gets
# SIGQUIT, which makes the Go runtime dump every goroutine's stack before
# dying — so a wedged termination protocol (the exact class of bug the
# engine's watchdog and the chaos suite exist to catch) leaves a diagnosis
# in the log, never a silently hung recording job. The partial trajectory
# is discarded; the previous OUT file is only replaced on full success.
#
# Diff two recorded trajectories with
#
#   relaxbench compare BENCH_PR10.json BENCH_PR13.json
#
# and gate on regressions with `compare -threshold PCT` (see CI's
# bench-smoke job).
set -eu
cd "$(dirname "$0")/.."

SCALE="${SCALE:-64}"
TRIALS="${TRIALS:-5}"
MAXTHREADS="${MAXTHREADS:-4}"
OUT="${OUT:-BENCH_PR13.json}"
BUDGET="${BUDGET:-600}"

EXPERIMENTS="batchsweep parinc parbnb parmis pardelaunay stream affinity chaos idlecost txn"

# The benchmark module's verification gates and metric-list check first:
# benchmark/ is its own module, so nothing else here builds or tests it.
go -C benchmark vet ./...
go -C benchmark test ./...

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

# Build once; per-experiment runs must not pay (or hide a hang inside)
# repeated `go run` compiles.
go build -o "$TMP/relaxbench" ./cmd/relaxbench

# GNU `timeout` sends --signal on expiry and SIGKILLs survivors after
# --kill-after; where it is unavailable (stock macOS), run unbounded.
run_bounded() {
    if command -v timeout >/dev/null 2>&1; then
        timeout --signal=QUIT --kill-after=15 "$BUDGET" "$@"
    else
        "$@"
    fi
}

: > "$TMP/trajectory.json"
for exp in $EXPERIMENTS; do
    echo "recording $exp (budget ${BUDGET}s)" >&2
    run_bounded "$TMP/relaxbench" \
        -scale "$SCALE" -trials "$TRIALS" -maxthreads "$MAXTHREADS" \
        -out "$TMP/$exp.json" "$exp" || {
        status=$?
        echo "bench.sh: $exp failed (exit $status; 131/137 = timed out, goroutine stacks above)" >&2
        exit "$status"
    }
    cat "$TMP/$exp.json" >> "$TMP/trajectory.json"
done
mv "$TMP/trajectory.json" "$OUT"
echo "wrote $OUT" >&2
