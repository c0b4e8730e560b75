// Command benchdiff is the bench-regression gate: it holds a freshly
// generated bench doc (`make bench-json` into a scratch file) to the
// gates of the committed baseline, BENCH.json. Both docs follow the
// schema of package internal/benchdoc; benchdiff knows no experiment.
//
// It exits 2 when either doc cannot be loaded or the two ran with
// different seeds (fault schedules are only comparable per seed), and
// 1 when any of these holds:
//
//   - a baseline row is missing from the candidate;
//   - the candidate has a row the baseline lacks, so a new row cannot
//     dodge the gates by never being committed;
//   - a candidate row declares other gates than the baseline's, so a
//     loosened gate cannot pass without a committed baseline change;
//   - a candidate value violates one of the baseline's gates.
//
// Usage:
//
//	benchdiff -baseline BENCH.json -candidate /tmp/pti-bench-check.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"strings"

	"pti/internal/benchdoc"
)

func main() {
	baseline := flag.String("baseline", "BENCH.json", "committed bench doc")
	candidate := flag.String("candidate", "", "freshly generated bench doc")
	flag.Parse()
	os.Exit(run(*baseline, *candidate, os.Stdout, os.Stderr))
}

// run loads both docs, evaluates the candidate against the baseline's
// gates and returns the exit code.
func run(baselinePath, candidatePath string, stdout, stderr io.Writer) int {
	if candidatePath == "" {
		fmt.Fprintln(stderr, "benchdiff: -candidate is required")
		return 2
	}
	base, err := load(baselinePath)
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 2
	}
	cand, err := load(candidatePath)
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 2
	}
	if base.Seed != cand.Seed {
		fmt.Fprintf(stderr, "benchdiff: seed mismatch: baseline %d vs candidate %d (rates are only comparable per seed)\n",
			base.Seed, cand.Seed)
		return 2
	}
	failures, checked := diff(base, cand, stdout)
	if failures > 0 {
		fmt.Fprintf(stdout, "benchdiff: %d regression(s) against %s\n", failures, baselinePath)
		return 1
	}
	fmt.Fprintf(stdout, "benchdiff: %d gates hold against %s\n", checked, baselinePath)
	return 0
}

// load reads a bench doc and rejects one that could not have come
// from ptibench: no rows, a row key given twice, or a malformed gate.
func load(path string) (benchdoc.Doc, error) {
	var d benchdoc.Doc
	data, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(data, &d); err != nil {
		return d, fmt.Errorf("%s: %w", path, err)
	}
	if len(d.Rows) == 0 {
		return d, fmt.Errorf("%s: no rows", path)
	}
	seen := make(map[string]bool, len(d.Rows))
	for _, r := range d.Rows {
		k := key(r.Experiment, r.Row, r.Metric)
		if seen[k] {
			return d, fmt.Errorf("%s: row %s given twice", path, k)
		}
		seen[k] = true
		for _, g := range r.Gates {
			if _, ok := ops[g.Op]; !ok || (g.From != 0 && g.Ref != nil) {
				return d, fmt.Errorf("%s: row %s: malformed gate %s", path, k, describe(g))
			}
		}
	}
	return d, nil
}

// ops are the comparisons a gate may make.
var ops = map[string]func(a, b float64) bool{
	"==": func(a, b float64) bool { return a == b },
	"<":  func(a, b float64) bool { return a < b },
	"<=": func(a, b float64) bool { return a <= b },
	">":  func(a, b float64) bool { return a > b },
	">=": func(a, b float64) bool { return a >= b },
}

func key(experiment, row, metric string) string {
	return experiment + "/" + row + " " + metric
}

func index(d benchdoc.Doc) map[string]benchdoc.Row {
	m := make(map[string]benchdoc.Row, len(d.Rows))
	for _, r := range d.Rows {
		m[key(r.Experiment, r.Row, r.Metric)] = r
	}
	return m
}

// diff evaluates every baseline gate on the candidate's values and
// reports rows present on one side only and gate declarations that
// differ. It returns the failure count and the number of gates
// evaluated.
func diff(base, cand benchdoc.Doc, out io.Writer) (failures, checked int) {
	fail := func(format string, args ...any) {
		fmt.Fprintf(out, "FAIL "+format+"\n", args...)
		failures++
	}
	have := index(cand)
	for _, want := range base.Rows {
		k := key(want.Experiment, want.Row, want.Metric)
		got, ok := have[k]
		if !ok {
			fail("%s: missing from candidate", k)
			continue
		}
		if !reflect.DeepEqual(got.Gates, want.Gates) {
			fail("%s: gates [%s] differ from the baseline's [%s] (commit the changed baseline)",
				k, describeAll(got.Gates), describeAll(want.Gates))
		}
		for _, g := range want.Gates {
			checked++
			// With From unset the drift is the value itself.
			value, bound, note := got.Value-g.From, g.Bound, ""
			if g.Ref != nil {
				ref, ok := have[key(want.Experiment, g.Ref.Row, g.Ref.Metric)]
				if !ok {
					fail("%s: gate %s: referenced row missing from candidate", k, describe(g))
					continue
				}
				bound *= ref.Value
				note = fmt.Sprintf(", which is %v", ref.Value)
			}
			if ops[g.Op](value, bound) {
				fmt.Fprintf(out, "ok   %s: %v (%s%s)\n", k, got.Value, describe(g), note)
			} else {
				fail("%s: %v violates %s%s", k, got.Value, describe(g), note)
			}
		}
	}
	known := index(base)
	for _, r := range cand.Rows {
		k := key(r.Experiment, r.Row, r.Metric)
		if _, ok := known[k]; !ok {
			fail("%s: not in baseline (regenerate and commit the baseline)", k)
		}
	}
	return failures, checked
}

// describe renders a gate as its comparison and what its bound is
// made of.
func describe(g benchdoc.Gate) string {
	switch {
	case g.From != 0:
		return fmt.Sprintf("value - %v %s %v", g.From, g.Op, g.Bound)
	case g.Ref != nil:
		return fmt.Sprintf("%s %v × %s %s", g.Op, g.Bound, g.Ref.Row, g.Ref.Metric)
	}
	return fmt.Sprintf("%s %v", g.Op, g.Bound)
}

func describeAll(gates []benchdoc.Gate) string {
	s := make([]string, len(gates))
	for i, g := range gates {
		s[i] = describe(g)
	}
	return strings.Join(s, ", ")
}
