package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"relaxsched/internal/experiments"
)

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const trajOld = `{"experiment":"backends","result":{"Rows":[` +
	`{"Graph":"road","Backend":"multiqueue","Threads":2,"Overhead":1.01,"OpsPerSec":1000000},` +
	`{"Graph":"road","Backend":"spraylist","Threads":2,"Overhead":1.02,"OpsPerSec":500000}]}}
{"experiment":"parinc","result":{"Rows":[{"Algo":"bstsort","Backend":"multiqueue","N":500,"Threads":2,"Extra":3}]}}
`

const trajNew = `{"experiment":"backends","result":{"Rows":[` +
	`{"Graph":"road","Backend":"multiqueue","Threads":2,"Overhead":1.00,"OpsPerSec":1500000},` +
	`{"Graph":"road","Backend":"lockfree","Threads":2,"Overhead":1.03,"OpsPerSec":750000}]}}
{"experiment":"parbnb","result":{"Rows":[{"Backend":"multiqueue","Threads":2,"OpsPerSec":2000000}]}}
`

func TestCompareDeltas(t *testing.T) {
	oldPath := writeTemp(t, "old.json", trajOld)
	newPath := writeTemp(t, "new.json", trajNew)
	var buf bytes.Buffer
	if err := compare(oldPath, newPath, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"+50.0%", // multiqueue row: 1.0M -> 1.5M ops/sec
		"added",  // lockfree row only in NEW
		"removed",
		"only in", // parbnb experiment only in NEW
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("compare output missing %q:\n%s", want, out)
		}
	}
}

// Matched rows that record different host environments must produce a
// visible warning (once per distinct pairing), and rows without the
// columns — trajectories recorded before they existed — must not.
func TestCompareHostMismatchWarning(t *testing.T) {
	oldHost := `{"experiment":"backends","result":{"Rows":[` +
		`{"Graph":"road","Backend":"multiqueue","Threads":2,"OpsPerSec":1000000,"NumCPU":8,"GOMAXPROCS":8},` +
		`{"Graph":"road","Backend":"spraylist","Threads":2,"OpsPerSec":900000,"NumCPU":8,"GOMAXPROCS":8}]}}
`
	newHost := `{"experiment":"backends","result":{"Rows":[` +
		`{"Graph":"road","Backend":"multiqueue","Threads":2,"OpsPerSec":400000,"NumCPU":1,"GOMAXPROCS":1},` +
		`{"Graph":"road","Backend":"spraylist","Threads":2,"OpsPerSec":350000,"NumCPU":1,"GOMAXPROCS":1}]}}
`
	var buf bytes.Buffer
	if err := compare(writeTemp(t, "old.json", oldHost), writeTemp(t, "new.json", newHost), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "NumCPU 8 vs 1") {
		t.Fatalf("compare output missing host-mismatch warning:\n%s", out)
	}
	if strings.Count(out, "warning:") != 1 {
		t.Fatalf("want exactly one warning for one host pairing:\n%s", out)
	}

	// Same hosts: silent.
	buf.Reset()
	if err := compare(writeTemp(t, "same.json", oldHost), writeTemp(t, "same2.json", oldHost), &buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "warning:") {
		t.Fatalf("unexpected warning for identical hosts:\n%s", buf.String())
	}

	// Old trajectory predates the host columns: silent.
	buf.Reset()
	if err := compare(writeTemp(t, "old2.json", trajOld), writeTemp(t, "new2.json", newHost), &buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "warning:") {
		t.Fatalf("unexpected warning when old rows lack host columns:\n%s", buf.String())
	}
}

// TestCompareThreshold drives the regression gate through its three
// regimes: a regression within the threshold passes, one beyond it fails
// (after the full report is still rendered), and a regression of exactly
// the threshold is "by more than PCT" only for smaller PCT — the boundary
// passes.
func TestCompareThreshold(t *testing.T) {
	// multiqueue row: 1.0M -> 0.9M ops/sec = exactly a 10% regression.
	// spraylist row: 0.5M -> 0.6M = improvement, never a regression.
	oldPath := writeTemp(t, "old.json", trajOld)
	newPath := writeTemp(t, "new.json", `{"experiment":"backends","result":{"Rows":[`+
		`{"Graph":"road","Backend":"multiqueue","Threads":2,"Overhead":1.0,"OpsPerSec":900000},`+
		`{"Graph":"road","Backend":"spraylist","Threads":2,"Overhead":1.0,"OpsPerSec":600000}]}}`+"\n")

	t.Run("pass", func(t *testing.T) {
		if err := compareThreshold(oldPath, newPath, 15, io.Discard); err != nil {
			t.Fatalf("10%% regression failed a 15%% threshold: %v", err)
		}
	})
	t.Run("boundary", func(t *testing.T) {
		if err := compareThreshold(oldPath, newPath, 10, io.Discard); err != nil {
			t.Fatalf("exactly-10%% regression failed a 10%% threshold: %v", err)
		}
	})
	t.Run("fail", func(t *testing.T) {
		var buf bytes.Buffer
		err := compareThreshold(oldPath, newPath, 9.5, &buf)
		if err == nil {
			t.Fatal("10% regression passed a 9.5% threshold")
		}
		if !strings.Contains(err.Error(), "regressed") {
			t.Fatalf("unhelpful error: %v", err)
		}
		// The delta tables and the offending row must still be reported.
		for _, want := range []string{"-10.0%", "regressions beyond", "multiqueue"} {
			if !strings.Contains(buf.String(), want) {
				t.Fatalf("failure report missing %q:\n%s", want, buf.String())
			}
		}
	})
	t.Run("disabled", func(t *testing.T) {
		if err := compareThreshold(oldPath, newPath, -1, io.Discard); err != nil {
			t.Fatalf("negative threshold must disable the gate: %v", err)
		}
	})
	t.Run("improvements-never-fail", func(t *testing.T) {
		up := writeTemp(t, "up.json", `{"experiment":"backends","result":{"Rows":[`+
			`{"Graph":"road","Backend":"multiqueue","Threads":2,"OpsPerSec":2000000},`+
			`{"Graph":"road","Backend":"spraylist","Threads":2,"OpsPerSec":2000000}]}}`+"\n")
		if err := compareThreshold(oldPath, up, 0, io.Discard); err != nil {
			t.Fatalf("pure improvement failed a 0%% threshold: %v", err)
		}
	})
}

func TestCompareMalformedInput(t *testing.T) {
	good := writeTemp(t, "good.json", trajOld)
	for name, content := range map[string]string{
		"not-json":      "this is not json\n",
		"no-experiment": `{"result":{"Rows":[]}}` + "\n",
		"empty":         "",
	} {
		bad := writeTemp(t, name+".json", content)
		if err := compare(good, bad, io.Discard); err == nil {
			t.Fatalf("%s accepted as NEW", name)
		}
		if err := compare(bad, good, io.Discard); err == nil {
			t.Fatalf("%s accepted as OLD", name)
		}
	}
	if err := compare(good, filepath.Join(t.TempDir(), "missing.json"), io.Discard); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestCompareNoThroughputRows(t *testing.T) {
	// Files that share no experiment with an OpsPerSec metric have nothing
	// to diff; that is an error, not silent success.
	a := writeTemp(t, "a.json", `{"experiment":"graphs","result":{"Families":3}}`+"\n")
	b := writeTemp(t, "b.json", `{"experiment":"graphs","result":{"Families":3}}`+"\n")
	if err := compare(a, b, io.Discard); err == nil {
		t.Fatal("rows-free trajectories compared successfully")
	}
}

// TestCompareRecordedTrajectories closes the loop end-to-end: record two
// tiny trajectories through the real -out pipeline, then diff them.
func TestCompareRecordedTrajectories(t *testing.T) {
	cfg := experiments.Config{Seed: 1, Trials: 1, GraphScale: 4096, MaxThreads: 2}
	dir := t.TempDir()
	paths := make([]string, 2)
	for i, seed := range []uint64{1, 2} {
		cfg.Seed = seed
		paths[i] = filepath.Join(dir, "traj"+string(rune('0'+i))+".json")
		f, err := os.Create(paths[i])
		if err != nil {
			t.Fatal(err)
		}
		for _, exp := range []string{"batchsweep", "parbnb", "parmis"} {
			if err := run(exp, cfg, output{w: io.Discard, record: f}); err != nil {
				t.Fatalf("%s: %v", exp, err)
			}
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := compare(paths[0], paths[1], &buf); err != nil {
		t.Fatal(err)
	}
	for _, exp := range []string{"batchsweep", "parbnb", "parmis"} {
		if !strings.Contains(buf.String(), "== "+exp) {
			t.Fatalf("compare output missing experiment %s:\n%s", exp, buf.String())
		}
	}
}

func TestCompareMetricFreeCoverageChanges(t *testing.T) {
	// Experiments whose rows carry no OpsPerSec (parinc's extra-steps rows)
	// must still surface added/removed rows — a coverage difference between
	// two trajectories may not disappear just because there is no
	// throughput to diff.
	oldPath := writeTemp(t, "old.json", `{"experiment":"parinc","result":{"Rows":[`+
		`{"Algo":"bstsort","Backend":"multiqueue","N":500,"Threads":2,"Extra":3},`+
		`{"Algo":"bstsort","Backend":"multiqueue","N":500,"Threads":4,"Extra":9}]}}`+"\n")
	newPath := writeTemp(t, "new.json", `{"experiment":"parinc","result":{"Rows":[`+
		`{"Algo":"bstsort","Backend":"multiqueue","N":500,"Threads":2,"Extra":4},`+
		`{"Algo":"bstsort","Backend":"lockfree","N":500,"Threads":2,"Extra":5}]}}`+"\n")
	var buf bytes.Buffer
	if err := compare(oldPath, newPath, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "added") || !strings.Contains(out, "removed") {
		t.Fatalf("coverage changes not rendered:\n%s", out)
	}
	if !strings.Contains(out, "1 rows matched") {
		t.Fatalf("matched count missing:\n%s", out)
	}
}
