// Command ptibench regenerates every experiment of the paper's
// evaluation (Section 7), ablations of the design choices the
// reproduction makes, and the fabric, transport and registry
// experiments that hold the runtime's guarantees, printing
// paper-reported values next to measured ones. Absolute numbers
// differ (the paper ran .NET on a Pentium 3 laptop); the shape — who
// is slower, by roughly what factor — is the claim under
// reproduction.
//
// `ptibench -h` lists the experiments. -exp takes a comma-separated
// list of them (default all). -json writes the metrics and gates of
// the experiments that ran as one bench doc (package
// internal/benchdoc): `make bench-json` commits it as BENCH.json, and
// `make bench-check` regenerates it and holds it to the committed
// gates with cmd/benchdiff.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"pti/internal/benchdoc"
)

var (
	seed     = flag.Int64("seed", 1, "fabric seed for the fabric experiments (replays the fault schedule)")
	jsonOut  = flag.String("json", "", "write the metrics and gates of the experiments that ran to this bench doc")
	reliable = flag.Bool("reliable", false, "for -exp scenario: additionally run every profile with the reliable delivery layer on")
	vclock   = flag.Bool("vclock", false, "for -exp scenario: run the fabric on the virtual clock (compresses injected latency)")
)

type experiment struct {
	id   string
	name string
	fn   func(reps int, m metrics) error
}

// experiments is every experiment ptibench runs, in run order. The
// usage text and the -exp help are built from it. recv and scale
// measure process-wide counters (allocations, goroutines), so they run
// before the fabric experiments, whose peers may leave goroutines
// behind.
var experiments = []experiment{
	{"7.1", "Invocation time (direct vs dynamic proxy)", exp71},
	{"7.2", "Type description creation + (de)serialization", exp72},
	{"7.3", "Object (de)serialization (SOAP and binary)", exp73},
	{"7.4", "Conformance testing", exp74},
	{"transport", "Figure 1 protocol + optimistic vs eager", expTransport},
	{"recv", "Compiled receive path (decode + end-to-end unmarshal)", expRecv},
	{"scale", "Fabric scalability (fan-out + crash wave at two fleet sizes)", expScale},
	{"scenario", "Fabric fault-profile scenarios (delivery + match rate)", expScenario},
	{"fanout", "Broadcast fan-out over the async send pipeline (queue/RTO/NACK)", expFanout},
	{"invoke", "Pipelined invoke path under load (latency/goodput/shedding)", expInvoke},
	{"churn", "Connection-lifecycle churn (crash/restart waves, session resume)", expChurn},
	{"registry", "Durable registry store (cold vs warm restart)", expRegistry},
	{"match", "Conformance relation match rates (Section 2 comparisons)", expMatchRate},
	{"ablations", "Design-choice ablations", expAblations},
}

func main() {
	ids := make([]string, 0, len(experiments))
	for _, e := range experiments {
		ids = append(ids, e.id)
	}
	exp := flag.String("exp", "all", "comma-separated experiments to run: all, "+strings.Join(ids, ", "))
	reps := flag.Int("reps", 5, "repetitions per measurement (averaged)")
	flag.Usage = func() {
		out := flag.CommandLine.Output()
		fmt.Fprintln(out, "Usage: ptibench [flags]\n\nExperiments:")
		for _, e := range experiments {
			fmt.Fprintf(out, "  %-10s %s\n", e.id, e.name)
		}
		fmt.Fprintln(out, "\nFlags:")
		flag.PrintDefaults()
	}
	flag.Parse()

	if err := run(*exp, *reps); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run runs the experiments a comma-separated -exp list selects, in
// table order, and writes their rows to -json if set.
func run(exp string, reps int) error {
	want := strings.Split(exp, ",")
	for _, id := range want {
		known := slices.ContainsFunc(experiments, func(e experiment) bool { return e.id == id })
		if id != "all" && !known {
			return fmt.Errorf("unknown experiment %q", id)
		}
	}

	doc := benchdoc.Doc{Seed: *seed}
	for _, e := range experiments {
		if !slices.Contains(want, "all") && !slices.Contains(want, e.id) {
			continue
		}
		fmt.Printf("\n=== Experiment %s: %s ===\n", e.id, e.name)
		if err := e.fn(reps, metrics{doc: &doc, exp: e.id}); err != nil {
			return fmt.Errorf("experiment %s: %w", e.id, err)
		}
	}
	fmt.Println()
	if *jsonOut == "" {
		return nil
	}
	if err := doc.Write(*jsonOut); err != nil {
		return err
	}
	fmt.Printf("wrote %d rows to %s\n", len(doc.Rows), *jsonOut)
	return nil
}

// metrics appends one experiment's rows to the run's bench doc.
type metrics struct {
	doc *benchdoc.Doc
	exp string
}

// add records one metric of one row, with the gates that bound it.
func (m metrics) add(row, metric string, value float64, unit string, gates ...benchdoc.Gate) {
	m.doc.Rows = append(m.doc.Rows, benchdoc.Row{
		Experiment: m.exp, Row: row, Metric: metric, Value: value, Unit: unit, Gates: gates,
	})
}

// is bounds a metric by a constant: value op bound.
func is(op string, bound float64) benchdoc.Gate {
	return benchdoc.Gate{Op: op, Bound: bound}
}

// drift bounds a metric's drift from a reference value: value - from
// op offset.
func drift(op string, from, offset float64) benchdoc.Gate {
	return benchdoc.Gate{Op: op, Bound: offset, From: from}
}

// vsRow bounds a metric by another row's metric of the same run:
// value op factor × row.metric.
func vsRow(op string, factor float64, row, metric string) benchdoc.Gate {
	return benchdoc.Gate{Op: op, Bound: factor, Ref: &benchdoc.Ref{Row: row, Metric: metric}}
}

// measure runs f iters times per repetition, reps repetitions, and
// returns the average time per operation.
func measure(reps, iters int, f func()) time.Duration {
	if reps < 1 {
		reps = 1
	}
	var total time.Duration
	for r := 0; r < reps; r++ {
		start := time.Now()
		for i := 0; i < iters; i++ {
			f()
		}
		total += time.Since(start)
	}
	return total / time.Duration(reps*iters)
}

// row prints one aligned result row.
func row(label string, paper string, measured string, note string) {
	fmt.Printf("  %-44s paper: %-14s measured: %-14s %s\n", label, paper, measured, note)
}

func fmtDur(d time.Duration) string {
	switch {
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.2fµs", float64(d.Nanoseconds())/1e3)
	default:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	}
}

func ratio(slow, fast time.Duration) string {
	if fast <= 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.0fx", float64(slow)/float64(fast))
}
