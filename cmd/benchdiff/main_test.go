package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pti/internal/benchdoc"
)

// The evaluator is the CI bench gate. Each experiment's cases below
// break one of the gates the committed BENCH.json declares — the
// regressions the gate exists to catch — so a gate that silently
// stops failing shows up as a unit-test break rather than a green
// pipeline.

const committedPath = "../../BENCH.json"

func committed(t *testing.T) benchdoc.Doc {
	t.Helper()
	d, err := load(committedPath)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// clone deep-copies a doc, gates included.
func clone(t *testing.T, d benchdoc.Doc) benchdoc.Doc {
	t.Helper()
	data, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	var c benchdoc.Doc
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// find returns the row of d holding experiment/row metric.
func find(t *testing.T, d benchdoc.Doc, experiment, row, metric string) *benchdoc.Row {
	t.Helper()
	for i := range d.Rows {
		r := &d.Rows[i]
		if r.Experiment == experiment && r.Row == row && r.Metric == metric {
			return r
		}
	}
	t.Fatalf("no row %s", key(experiment, row, metric))
	return nil
}

// with returns a copy of base with one value changed.
func with(t *testing.T, base benchdoc.Doc, experiment, row, metric string, value float64) benchdoc.Doc {
	t.Helper()
	c := clone(t, base)
	find(t, c, experiment, row, metric).Value = value
	return c
}

// without returns a copy of d lacking every row drop selects, and
// how many it dropped.
func without(t *testing.T, d benchdoc.Doc, drop func(benchdoc.Row) bool) (benchdoc.Doc, int) {
	t.Helper()
	c := clone(t, d)
	kept := c.Rows[:0]
	for _, r := range c.Rows {
		if !drop(r) {
			kept = append(kept, r)
		}
	}
	dropped := len(c.Rows) - len(kept)
	c.Rows = kept
	return c, dropped
}

func failures(base, cand benchdoc.Doc) int {
	n, _ := diff(base, cand, io.Discard)
	return n
}

// expectOne asserts that a candidate breaks exactly one gate.
func expectOne(t *testing.T, what string, base, cand benchdoc.Doc) {
	t.Helper()
	if got := failures(base, cand); got != 1 {
		t.Fatalf("%s: %d failures, want 1", what, got)
	}
}

func value(t *testing.T, d benchdoc.Doc, experiment, row, metric string) float64 {
	t.Helper()
	return find(t, d, experiment, row, metric).Value
}

func TestDiffScenariosPassAndFail(t *testing.T) {
	base := committed(t)
	got, checked := diff(base, clone(t, base), io.Discard)
	if got != 0 || checked == 0 {
		t.Fatalf("healthy candidate: %d failures over %d gates, want 0 over some", got, checked)
	}
	// A reliable row must deliver exactly once.
	expectOne(t, "reliable drift", base, with(t, base, "scenario", "perfect+rel", "match_rate", 0.999))
	// An unreliable row stays within 0.10 of its declared reference
	// rate, both ways.
	expectOne(t, "unreliable drift down", base, with(t, base, "scenario", "lossy-10pct", "match_rate", 0.5))
	expectOne(t, "unreliable drift up", base, with(t, base, "scenario", "lossy-10pct", "match_rate", 1.2))
	if got := failures(base, with(t, base, "scenario", "lossy-10pct", "match_rate", 0.95)); got != 0 {
		t.Fatalf("unreliable drift inside tolerance: %d failures, want 0", got)
	}

	cand := clone(t, base)
	cand.Rows = append(cand.Rows, benchdoc.Row{Experiment: "scenario", Row: "wan+rel",
		Metric: "match_rate", Value: 1, Unit: "ratio", Gates: []benchdoc.Gate{{Op: "==", Bound: 1}}})
	expectOne(t, "candidate-only row", base, cand)

	cand, dropped := without(t, base, func(r benchdoc.Row) bool { return r.Experiment == "scenario" })
	if got := failures(base, cand); got != dropped {
		t.Fatalf("no scenario rows: %d failures, want one per missing row (%d)", got, dropped)
	}
}

func TestDiffFanoutPassAndFail(t *testing.T) {
	base := committed(t)
	const bh, sl = "fanout-blackhole", "single-loss-recovery"
	expectOne(t, "stall budget", base, with(t, base, "fanout", bh, "elapsed_virtual_ms", 9000))
	expectOne(t, "blackhole match", base, with(t, base, "fanout", bh, "match_rate", 0.9))
	backoff := value(t, base, "fanout", sl, "backoff_recovery_ms")
	expectOne(t, "nack regression", base, with(t, base, "fanout", sl, "nack_recovery_ms", 2*backoff))
	expectOne(t, "degenerate nack timing", base, with(t, base, "fanout", sl, "nack_recovery_ms", 0))
}

func TestDiffInvokePassAndFail(t *testing.T) {
	base := committed(t)
	capacity := value(t, base, "invoke", "slow/capacity", "goodput_per_sec")
	expectOne(t, "goodput collapse", base, with(t, base, "invoke", "slow/overload2x", "goodput_per_sec", 0.4*capacity))
	expectOne(t, "non-shed failures", base, with(t, base, "invoke", "slow/capacity", "failures", 3))
	expectOne(t, "nothing completed", base, with(t, base, "invoke", "chaos/capacity", "completed", 0))
	expectOne(t, "degenerate p99", base, with(t, base, "invoke", "chaos/overload2x", "p99_ms", 0))
	serialized := value(t, base, "invoke", "pipelined-vs-serial", "serialized_ms")
	expectOne(t, "pipelining regression", base,
		with(t, base, "invoke", "pipelined-vs-serial", "pipelined_ms", 1.5*serialized))
}

func TestDiffRecvPassAndFail(t *testing.T) {
	base := committed(t)
	expectOne(t, "soap floor", base, with(t, base, "recv", "soap-decode", "speedup", 1.5))
	expectOne(t, "binary loses", base, with(t, base, "recv", "binary-decode", "speedup", 0.9))
	if got := failures(base, with(t, base, "recv", "binary-decode", "speedup", 1.5)); got != 0 {
		t.Fatalf("binary above its 1x floor: %d failures, want 0", got)
	}
	expectOne(t, "degenerate timing", base, with(t, base, "recv", "binary-decode", "compiled_ns", 0))
	expectOne(t, "alloc budget", base, with(t, base, "recv", "unmarshal-e2e", "allocs_per_op", 50))
}

func TestDiffChurnPassAndFail(t *testing.T) {
	base := committed(t)
	const row = "churn-waves"
	expectOne(t, "lineage match", base, with(t, base, "churn", row, "match_rate", 0.97))
	expectOne(t, "redial budget", base, with(t, base, "churn", row, "redials", 500))
	expectOne(t, "abandoned frames", base, with(t, base, "churn", row, "queue_abandoned", 4))
	expectOne(t, "session reset", base, with(t, base, "churn", row, "session_shortfall", 2))
	expectOne(t, "stall budget", base, with(t, base, "churn", row, "elapsed_virtual_ms", 40000))
}

func TestDiffRegistryPassAndFail(t *testing.T) {
	base := committed(t)
	expectOne(t, "warm fetches", base, with(t, base, "registry", "registry-warm", "desc_fetches", 2))
	cold := value(t, base, "registry", "registry-cold", "ttfd_ms")
	expectOne(t, "warm ttfd", base, with(t, base, "registry", "registry-warm", "ttfd_ms", 2*cold))
	expectOne(t, "dropped delivery", base, with(t, base, "registry", "registry-cold", "delivered", 9))
	expectOne(t, "no warm preload", base, with(t, base, "registry", "registry-warm", "desc_warm_loaded", 0))
	expectOne(t, "cold not cold", base, with(t, base, "registry", "registry-cold", "desc_fetches", 0))
}

func TestDiffScalePassAndFail(t *testing.T) {
	base := committed(t)
	scale, _ := without(t, base, func(r benchdoc.Row) bool { return r.Experiment != "scale" })
	// Seven gates per fleet size plus the sublinearity pair.
	if got, checked := diff(scale, clone(t, scale), io.Discard); got != 0 || checked != 2*7+1 {
		t.Fatalf("healthy candidate: %d failures over %d gates, want 0 over %d", got, checked, 2*7+1)
	}

	expectOne(t, "match rate", base, with(t, base, "scale", "scale-150", "match_rate", 0.999))
	expectOne(t, "duplicates", base, with(t, base, "scale", "scale-600", "duplicates", 2))
	expectOne(t, "wall budget", base, with(t, base, "scale", "scale-600", "elapsed_wall_ms", 130000))
	expectOne(t, "ops/frame ceiling", base, with(t, base, "scale", "scale-150", "sched_ops_per_frame", 3.5))
	expectOne(t, "ops/frame floor", base, with(t, base, "scale", "scale-150", "sched_ops_per_frame", 0.5))
	expectOne(t, "no peers", base, with(t, base, "scale", "scale-150", "peers", 0))

	// Superlinear goroutine growth: per-peer cost at the larger fleet
	// beyond the smaller fleet's cost times the slack factor.
	small := value(t, base, "scale", "scale-150", "goroutines_per_peer")
	expectOne(t, "sublinearity", base, with(t, base, "scale", "scale-600", "goroutines_per_peer", 20*small))
	// Flat growth inside the slack passes even when the cost rises.
	if got := failures(base, with(t, base, "scale", "scale-600", "goroutines_per_peer", 1.29*small)); got != 0 {
		t.Fatalf("within slack: %d failures, want 0", got)
	}

	cand, dropped := without(t, base, func(r benchdoc.Row) bool { return r.Row == "scale-600" })
	if got := failures(base, cand); got != dropped {
		t.Fatalf("missing fleet size: %d failures, want one per missing row (%d)", got, dropped)
	}
	// Dropping the smaller fleet also breaks the larger one's
	// sublinearity gate, which references it.
	cand, dropped = without(t, base, func(r benchdoc.Row) bool { return r.Row == "scale-150" })
	if got := failures(base, cand); got != dropped+1 {
		t.Fatalf("missing referenced fleet: %d failures, want %d", got, dropped+1)
	}

	cand = clone(t, base)
	cand.Rows = append(cand.Rows, benchdoc.Row{Experiment: "scale", Row: "scale-900",
		Metric: "match_rate", Value: 1, Unit: "ratio", Gates: []benchdoc.Gate{{Op: "==", Bound: 1}}})
	expectOne(t, "candidate-only row", base, cand)
}

// TestDiffGateDeclarationChanged pins that a gate can only be changed
// by committing the changed baseline: a candidate that loosens a bound,
// drops a gate or adds one fails even though its values hold.
func TestDiffGateDeclarationChanged(t *testing.T) {
	base := committed(t)

	cand := clone(t, base)
	find(t, cand, "churn", "churn-waves", "redials").Gates[0].Bound = 800
	expectOne(t, "loosened bound", base, cand)

	cand = clone(t, base)
	find(t, cand, "scale", "scale-600", "goroutines_per_peer").Gates = nil
	expectOne(t, "dropped gate", base, cand)

	cand = clone(t, base)
	r := find(t, cand, "fanout", "fanout-blackhole", "retransmits")
	r.Gates = append(r.Gates, benchdoc.Gate{Op: ">=", Bound: 0})
	expectOne(t, "added gate", base, cand)

	cand = clone(t, base)
	find(t, cand, "scenario", "lossy-30pct", "match_rate").Gates[0].From = 0.5
	expectOne(t, "moved reference value", base, cand)
}

// TestReferencesDoNotFollowTheBaseline pins that the two gates drawn
// from earlier committed runs (the unreliable match rates and the
// end-to-end allocation budget) hold their declared reference, not
// whatever value a regenerated baseline recorded: a baseline and a
// candidate that agree on a drifted value still fail.
func TestReferencesDoNotFollowTheBaseline(t *testing.T) {
	base := committed(t)
	for _, tc := range []struct {
		experiment, row, metric string
		drifted                 float64
	}{
		{"scenario", "lossy-10pct", "match_rate", 0.5},
		{"scenario", "lossy-10pct", "match_rate", 1.2},
		{"recv", "unmarshal-e2e", "allocs_per_op", 18},
	} {
		drifted := with(t, base, tc.experiment, tc.row, tc.metric, tc.drifted)
		expectOne(t, key(tc.experiment, tc.row, tc.metric), drifted, clone(t, drifted))
	}
}

// TestEveryGateFailsWhenBroken breaks each gate of the committed
// baseline in turn, first through its value and then through its
// declaration in the candidate alone; benchdiff must exit 1 on each.
func TestEveryGateFailsWhenBroken(t *testing.T) {
	base := committed(t)
	dir := t.TempDir()
	basePath := writeDoc(t, dir, "base.json", base)
	exit := func(cand benchdoc.Doc) int {
		return run(basePath, writeDoc(t, dir, "cand.json", cand), io.Discard, io.Discard)
	}
	gates := 0
	for i, r := range base.Rows {
		for j, g := range r.Gates {
			gates++
			bound := g.Bound
			if g.Ref != nil {
				bound *= value(t, base, r.Experiment, g.Ref.Row, g.Ref.Metric)
			}
			bound += g.From
			broken := bound + 1 + math.Abs(bound)
			if g.Op == ">" || g.Op == ">=" {
				broken = bound - 1 - math.Abs(bound)
			}
			what := key(r.Experiment, r.Row, r.Metric) + " " + describe(g)

			cand := clone(t, base)
			cand.Rows[i].Value = broken
			if got := exit(cand); got != 1 {
				t.Errorf("%s: value %v exits %d, want 1", what, broken, got)
			}

			cand = clone(t, base)
			cand.Rows[i].Gates[j].Bound++
			if got := exit(cand); got != 1 {
				t.Errorf("%s: bound changed in the candidate exits %d, want 1", what, got)
			}

			if g.From != 0 {
				cand = clone(t, base)
				cand.Rows[i].Gates[j].From++
				if got := exit(cand); got != 1 {
					t.Errorf("%s: reference changed in the candidate exits %d, want 1", what, got)
				}
			}
		}
	}
	if gates < 31 {
		t.Fatalf("committed baseline declares %d gates, fewer than the 31 checks it replaces", gates)
	}
}

// TestCommittedBaselinePassesItsOwnGates pins that BENCH.json, as
// committed, satisfies every gate it declares.
func TestCommittedBaselinePassesItsOwnGates(t *testing.T) {
	var out strings.Builder
	if got := run(committedPath, committedPath, &out, io.Discard); got != 0 {
		t.Fatalf("committed baseline against itself exits %d:\n%s", got, out.String())
	}
}

func TestRunExitCodes(t *testing.T) {
	base := committed(t)
	dir := t.TempDir()
	basePath := writeDoc(t, dir, "base.json", base)

	other := clone(t, base)
	other.Seed++
	if got := run(basePath, writeDoc(t, dir, "seed.json", other), io.Discard, io.Discard); got != 2 {
		t.Fatalf("seed mismatch exits %d, want 2", got)
	}
	if got := run(basePath, "", io.Discard, io.Discard); got != 2 {
		t.Fatalf("no candidate exits %d, want 2", got)
	}
	if got := run(filepath.Join(dir, "missing.json"), basePath, io.Discard, io.Discard); got != 2 {
		t.Fatalf("missing baseline exits %d, want 2", got)
	}
	broken := with(t, base, "registry", "registry-warm", "desc_fetches", 1)
	if got := run(basePath, writeDoc(t, dir, "broken.json", broken), io.Discard, io.Discard); got != 1 {
		t.Fatalf("broken gate exits %d, want 1", got)
	}
}

func writeDoc(t *testing.T, dir, name string, d benchdoc.Doc) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := d.Write(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoad(t *testing.T) {
	base := committed(t)
	if base.Seed != 42 || len(base.Rows) == 0 {
		t.Fatalf("load: got seed %d, %d rows", base.Seed, len(base.Rows))
	}
	dir := t.TempDir()
	d, err := load(writeDoc(t, dir, "roundtrip.json", base))
	if err != nil {
		t.Fatalf("load of a written doc: %v", err)
	}
	if failures(base, d) != 0 {
		t.Fatal("a written doc does not round-trip")
	}

	// A doc with no rows is an authoring error, not an
	// empty-but-valid artifact.
	if _, err := load(writeDoc(t, dir, "empty.json", benchdoc.Doc{Seed: 42})); err == nil {
		t.Fatal("load accepted a doc with no rows")
	}
	if _, err := load(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("load accepted a missing file")
	}
	dup := clone(t, base)
	dup.Rows = append(dup.Rows, dup.Rows[0])
	if _, err := load(writeDoc(t, dir, "dup.json", dup)); err == nil {
		t.Fatal("load accepted a row given twice")
	}
	bad := clone(t, base)
	bad.Rows[0].Gates = []benchdoc.Gate{{Op: "~=", Bound: 1}}
	if _, err := load(writeDoc(t, dir, "badop.json", bad)); err == nil {
		t.Fatal("load accepted an unknown gate op")
	}
	bad.Rows[0].Gates = []benchdoc.Gate{{Op: "<", Bound: 1, From: 0.5, Ref: &benchdoc.Ref{Row: "r", Metric: "m"}}}
	if _, err := load(writeDoc(t, dir, "badbound.json", bad)); err == nil {
		t.Fatal("load accepted a gate bounded by both a reference value and a row")
	}
	if err := os.WriteFile(filepath.Join(dir, "garbage.json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := load(filepath.Join(dir, "garbage.json")); err == nil {
		t.Fatal("load accepted malformed JSON")
	}
}

func TestKeyHelpers(t *testing.T) {
	if got := key("scenario", "lan+rel", "match_rate"); got != "scenario/lan+rel match_rate" {
		t.Fatalf("key: %q", got)
	}
	for _, tc := range []struct {
		g    benchdoc.Gate
		want string
	}{
		{benchdoc.Gate{Op: "==", Bound: 1}, "== 1"},
		{benchdoc.Gate{Op: ">=", Bound: -0.1, From: 0.89}, "value - 0.89 >= -0.1"},
		{benchdoc.Gate{Op: "<", Bound: 1, Ref: &benchdoc.Ref{Row: "registry-cold", Metric: "ttfd_ms"}},
			"< 1 × registry-cold ttfd_ms"},
	} {
		if got := describe(tc.g); got != tc.want {
			t.Errorf("describe(%+v) = %q, want %q", tc.g, got, tc.want)
		}
	}
}
