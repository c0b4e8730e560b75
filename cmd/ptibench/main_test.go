package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"pti/internal/benchdoc"
)

// TestMeasure verifies the timing helper's basic arithmetic.
func TestMeasure(t *testing.T) {
	calls := 0
	perOp := measure(2, 5, func() { calls++ })
	if calls != 10 {
		t.Errorf("calls = %d, want 10", calls)
	}
	if perOp < 0 {
		t.Errorf("perOp = %v", perOp)
	}
	// reps < 1 is clamped.
	calls = 0
	measure(0, 3, func() { calls++ })
	if calls != 3 {
		t.Errorf("clamped calls = %d", calls)
	}
}

func TestFmtDur(t *testing.T) {
	tests := []struct {
		d    time.Duration
		want string
	}{
		{500 * time.Nanosecond, "500ns"},
		{1500 * time.Nanosecond, "1.50µs"},
		{2 * time.Millisecond, "2.00ms"},
	}
	for _, tt := range tests {
		if got := fmtDur(tt.d); got != tt.want {
			t.Errorf("fmtDur(%v) = %q, want %q", tt.d, got, tt.want)
		}
	}
}

func TestRatio(t *testing.T) {
	if got := ratio(200*time.Nanosecond, 100*time.Nanosecond); got != "2x" {
		t.Errorf("ratio = %q", got)
	}
	if got := ratio(time.Second, 0); got != "n/a" {
		t.Errorf("zero ratio = %q", got)
	}
}

// TestRunMatchExperiment smoke-tests the cheapest full experiment.
func TestRunMatchExperiment(t *testing.T) {
	if err := run("match", 1); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run("nonsense", 1); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestPermutedPair(t *testing.T) {
	cand, exp := permutedPair(3)
	if len(cand.Methods[0].Params) != 3 || len(exp.Methods[0].Params) != 3 {
		t.Fatalf("arity wrong: %+v %+v", cand, exp)
	}
	// Reversed orders.
	for i := 0; i < 3; i++ {
		if cand.Methods[0].Params[i] != exp.Methods[0].Params[2-i] {
			t.Errorf("param %d not reversed", i)
		}
	}
}

// TestRunAllExperiments smoke-tests every experiment with minimal
// repetitions so the harness cannot bit-rot unnoticed.
func TestRunAllExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness run in -short mode")
	}
	if err := run("all", 1); err != nil {
		t.Fatal(err)
	}
}

// TestRunWritesBenchDoc runs a comma-separated experiment list with
// -json set and checks that one doc holds the rows and gates of the
// experiments that emit them.
func TestRunWritesBenchDoc(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	defer func(old string) { *jsonOut = old }(*jsonOut)
	*jsonOut = path
	if err := run("match,recv", 1); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc benchdoc.Doc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	gates := 0
	for _, r := range doc.Rows {
		if r.Experiment != "recv" {
			t.Fatalf("row of experiment %q, want only recv", r.Experiment)
		}
		gates += len(r.Gates)
	}
	if doc.Seed != *seed || gates == 0 {
		t.Fatalf("doc: seed %d, %d rows, %d gates", doc.Seed, len(doc.Rows), gates)
	}
	if err := run("match,nonsense", 1); err == nil {
		t.Error("list with an unknown experiment accepted")
	}
}
