// Command perfbench is the repository's benchmark. It drives the
// public object path from outside, the way a user of the library
// does, on one of five workloads:
//
//	stream        SendObject -> loopback TCP -> OnReceive handler, warm types
//	join          a fresh subscriber peer learning K types from a publisher
//	rpc           RemoteRef.Call round trips with permuted arguments
//	fanout        Broadcast -> reliable links on the simulation fabric's
//	              wan profile -> tps.Broker
//	fanout-lossy  fanout on sub-millisecond links with wan's faults
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload stream --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// runs the workload untraced and traced, then times its own calls into
// each layer on the same fixtures (the ledger), and prints the
// per-layer metrics. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Spans, the
// per-layer table, the full run record and any stall dump are written
// under --out.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// Fixed load shape. None of these is read at run time: every run of a
// workload uses the same sizes, and only --seed changes the inputs.
const (
	setupReps  = 25 // set-ups per run; setup_s is their median
	stallLimit = 10 * time.Second
	closeLimit = 10 * time.Second // teardown longer than this is abandoned
	hardLimit  = 170 * time.Second
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is the full account of a run, written next to the spans.
type record struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	Network    string  `json:"network"`
	Samples    int     `json:"latency_samples"`
	TailQ      float64 `json:"latency_tail_quantile"`
	Stalled    bool    `json:"stalled"`
	// FramesModel is true when frames_per_op is modelled from the
	// peers' Stats (TCP) rather than counted by the fabric.
	FramesModel bool `json:"frames_per_op_modelled"`
	// Mix is the delivered mix of a workload that has one (stream).
	Mix map[string]float64 `json:"mix,omitempty"`
	// NestedLost of NestedSent renamed nested members the probe
	// record lost in transit (a known defect; see probe.go).
	NestedLost int                    `json:"nested_rename_lost_fields"`
	NestedSent int                    `json:"nested_rename_sent_fields"`
	Segments   []float64              `json:"segment_ops_per_s"`
	Quantiles  map[string]float64     `json:"latency_quantiles_us"`
	Result     result                 `json:"result"`
	Layers     map[string]metricValue `json:"layers,omitempty"`
	// Calibrations are the host speed readings of an untraced run, one
	// before its first segment and one after each; SetupCalibration the
	// one before its set-ups; Raw its end-to-end metrics before they
	// were scaled to the reference speed.
	Calibrations     []calibration          `json:"calibrations,omitempty"`
	SetupCalibration *calibration           `json:"setup_calibration,omitempty"`
	Raw              map[string]metricValue `json:"raw_end_to_end,omitempty"`
}

// gcMemoryLimit is the heap size the garbage collector runs against.
// The benchmark turns proportional pacing (GOGC) off: its live heap is
// only 1 to 10 MB, so under the default pacing a cycle starts every few
// MB allocated and the cycle rate follows the live heap. On the fabric
// workloads the live heap grows through a run, because the fabric
// records every fault decision for replay (up to 65536 per link
// direction), and throughput rose by half within a 25 s run as the
// cycles thinned out. Against a fixed limit the cycle rate depends on
// the bytes allocated, which alloc_bytes_per_op reports, and not on how
// far a run has got.
const gcMemoryLimit = 64 << 20

func main() {
	debug.SetGCPercent(-1)
	debug.SetMemoryLimit(gcMemoryLimit)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	calib := fs.Duration(calibFlag, 0, "run the host speed reference for this long and print it, instead of a workload")
	seed := fs.Int64("seed", 1, "workload seed; every input derives from it")
	seconds := fs.Float64("seconds", 10, "measured wall time")
	trace := fs.Int("trace", 0, "1: traced run with the per-layer ledger")
	out := fs.String("out", ".bench_build/perfbench-runs", "directory for spans, tables and dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *calib > 0 {
		return calibrateMain(*calib, stdout)
	}
	mk, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if p, ok := workloadProcs[*name]; ok {
		runtime.GOMAXPROCS(p)
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	dir := filepath.Join(*out, fmt.Sprintf("%s-seed%d-trace%d", *name, *seed, *trace))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	cfg := runConfig{name: *name, make: mk, seed: *seed, seconds: *seconds, trace: *trace == 1, dir: dir, stall: stallLimit}

	// A wedged teardown or set-up must not hold the pipeline: past the
	// hard limit the run is reported as failed and the process exits.
	var finished atomic.Bool
	watchdog := time.AfterFunc(hardLimit, func() {
		if finished.Load() {
			return
		}
		writeDump(dir, *seed, "hard time limit reached")
		fmt.Fprintf(stderr, "perfbench: %s exceeded %s; see %s\n", *name, hardLimit, dir)
		os.Exit(1)
	})
	defer watchdog.Stop()

	rec, err := execute(cfg, stdout)
	finished.Store(true)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if data, err := json.MarshalIndent(rec, "", "  "); err == nil {
		if err := os.WriteFile(filepath.Join(dir, "record.json"), append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
		}
	}
	line, err := json.Marshal(rec.Result)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rec.Result.Correct {
		return 1
	}
	return 0
}

type runConfig struct {
	name    string
	make    func() workload
	seed    int64
	seconds float64
	trace   bool
	dir     string
	stall   time.Duration // no op ended for this long: abort the run
}

// execute sets the workload up setupReps times, measures it, and — in
// traced runs — measures it again traced and runs the ledger.
func execute(cfg runConfig, stdout io.Writer) (*record, error) {
	var (
		w      workload
		h      *harness
		setups []float64
		preCal calibration
	)
	// The end-to-end metrics come from untraced runs only; those measure
	// the host's speed around the set-ups and the measured segments.
	calibrated := !cfg.trace
	if calibrated {
		var err error
		if preCal, err = calibrate(); err != nil {
			return nil, err
		}
	}
	for i := 0; i < setupReps; i++ {
		if w != nil {
			if err := closeWithin(w, closeLimit); err != nil {
				return nil, err
			}
		}
		h = newHarness(cfg.seed)
		w = cfg.make()
		start := time.Now()
		if err := w.setup(h); err != nil {
			writeDump(cfg.dir, cfg.seed, "set-up failed: "+err.Error())
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	rec := &record{
		Workload: cfg.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Network: w.network(),
	}
	fmt.Fprintf(stdout, "perfbench %s  seed %d  %s  GOMAXPROCS %d  nproc %d  network %s  trace %v\n",
		cfg.name, cfg.seed, rec.GoVersion, rec.GOMAXPROCS, rec.NumCPU, rec.Network, cfg.trace)

	// ph is the untraced measurement every end-to-end metric comes
	// from; verdict also covers the traced phase of a traced run.
	full := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		full /= 3
	}
	// The traced run's per-layer figures are raw times.
	ph, cals, err := measureRun(cfg, w, h, full, calibrated)
	if err != nil {
		return nil, err
	}
	rec.Calibrations = cals
	verdict := ph
	lost, sent, err := nestedRenameProbe()
	if err != nil {
		return nil, fmt.Errorf("nested rename probe: %w", err)
	}
	rec.NestedLost, rec.NestedSent = lost, sent
	if cfg.trace && !ph.stalled {
		h.tracer = newTracer()
		traced, _, err := measureRun(cfg, w, h, full, false)
		if err != nil {
			return nil, err
		}
		verdict.add(&traced)
		layers, err := layerMetrics(cfg, w, h, &ph, &traced, full, lost)
		if err != nil {
			return nil, err
		}
		rec.Layers = layers
	}
	rec.Stalled = verdict.stalled
	for _, iv := range ph.segments {
		rec.Segments = append(rec.Segments, float64(iv.ops)/iv.wall.Seconds())
	}
	rec.Quantiles = make(map[string]float64)
	for _, q := range []float64{0.5, 0.9, 0.95, 0.98, 0.99, 0.995, 0.998, 0.999} {
		rec.Quantiles[fmt.Sprint(q)] = ph.lat.quantile(q) / 1e3
	}
	rec.Samples = ph.samples
	rec.TailQ = ph.stats().tailQ
	d := ph.after.sub(ph.before)
	rec.FramesModel = d.FabricFrames == 0
	rec.Mix = d.mix()
	setupS := median(setups)
	if calibrated {
		// The set-ups ran between preCal and the run's first calibration.
		setupS /= between(preCal, cals[0]).wallScale()
		rec.SetupCalibration = &preCal
	}
	e2e := ph.endToEnd(setupS)
	if len(cals) > 0 {
		raw := ph.uncalibrated()
		rec.Raw = raw.endToEnd(median(setups))
	}
	rec.Result = result{
		Correct:   verdict.failed == 0 && verdict.completed > 0 && !verdict.stalled,
		Attempted: verdict.attempted,
		Failed:    verdict.failed,
	}
	if cfg.trace {
		rec.Result.Metrics = rec.Layers
	} else {
		rec.Result.Metrics = e2e
	}
	if rec.Result.Attempted < 1 {
		rec.Result.Attempted = 1
		rec.Result.Failed++
	}
	var table bytes.Buffer
	printTable(io.MultiWriter(stdout, &table), rec, e2e, verdict, ph.speed())
	if err := os.WriteFile(filepath.Join(cfg.dir, "table.txt"), table.Bytes(), 0o644); err != nil {
		return nil, err
	}
	if err := closeWithin(w, closeLimit); err != nil {
		rec.Result.Correct = false
		writeDump(cfg.dir, cfg.seed, err.Error())
	}
	return rec, nil
}

// phase is one measured stretch of a run: one segment, or the
// segments of a whole run joined.
type phase struct {
	elapsed   time.Duration
	cpu       time.Duration
	allocs    uint64
	gcCycles  uint64
	peakHeap  uint64
	heaps     []float64 // live heap after each GC cycle
	peakG     uint64
	attempted int64
	completed int64
	failed    int64
	lat       *histogram
	samples   int
	segments  []segment
	before    totals
	after     totals
	stalled   bool
}

// measure runs the closed loop for d with the watchdog armed.
func measure(cfg runConfig, w workload, h *harness, d time.Duration) phase {
	h.reset()
	settle()
	var ph phase
	ph.before = w.totals()
	before := takeSnap()
	smp := startSampler()

	halt := h.halter()
	timer := time.AfterFunc(d, halt)
	wdDone := make(chan struct{})
	wdExited := make(chan struct{})
	var stalled atomic.Bool
	go func() {
		defer close(wdExited)
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-wdDone:
				return
			case <-t.C:
				last := time.Unix(0, h.progress.Load())
				if time.Since(last) > cfg.stall {
					stalled.Store(true)
					writeDump(cfg.dir, cfg.seed, fmt.Sprintf("no op ended for %s; %d outstanding", cfg.stall, h.outstanding()))
					halt()
					h.giveUp()
					return
				}
			}
		}
	}()

	w.run(h)

	timer.Stop()
	close(wdDone)
	<-wdExited
	after := takeSnap()
	smp.finish()
	ph.after = w.totals()

	ph.elapsed = after.wall.Sub(before.wall)
	ph.cpu = after.cpu - before.cpu
	ph.allocs = after.allocs - before.allocs
	ph.gcCycles = after.gcCycles - before.gcCycles
	ph.peakHeap = smp.peakHeap
	ph.heaps = smp.heaps
	ph.peakG = smp.peakG
	ph.stalled = stalled.Load()
	if ph.stalled {
		// Outstanding ops of an aborted run count as failed.
		h.failed.Add(h.outstanding())
	}
	ph.attempted = h.attempted.Load()
	ph.completed = h.completed.Load()
	ph.failed = h.failed.Load()
	ph.lat = &histogram{}
	ph.lat.copyFrom(&h.lat)
	ph.samples = ph.lat.count()
	return ph
}

// measureRun measures the workload for d in segments of about
// segmentLen, each a closed-loop phase of its own. With calibrated set
// it measures the host's speed before the first segment and after each
// one, and gives each segment the speed of the two calibrations around
// it.
func measureRun(cfg runConfig, w workload, h *harness, d time.Duration, calibrated bool) (phase, []calibration, error) {
	n := max(1, int(math.Round(float64(d)/float64(segmentLen))))
	seg := d / time.Duration(n)
	var cals []calibration
	if calibrated {
		c, err := calibrate()
		if err != nil {
			return phase{}, nil, err
		}
		cals = append(cals, c)
	}
	run := phase{lat: &histogram{}}
	for i := 0; i < n; i++ {
		ph := measure(cfg, w, h, seg)
		iv := ph.asSegment()
		if calibrated {
			c, err := calibrate()
			if err != nil {
				return phase{}, nil, err
			}
			cals = append(cals, c)
			iv.speed = between(cals[i], cals[i+1])
		}
		run.join(&ph, iv)
		if ph.stalled {
			break
		}
	}
	return run, cals, nil
}

// asSegment is the whole of a one-segment phase as a segment.
func (p *phase) asSegment() segment {
	return segment{
		wall: p.elapsed, ops: p.completed, cpu: p.cpu, allocs: p.allocs,
		samples: p.samples, p50: p.lat.quantile(0.5), lat: p.lat,
	}
}

// join appends segment s, measured as iv, to the run p.
func (p *phase) join(s *phase, iv segment) {
	if len(p.segments) == 0 {
		p.before = s.before
	}
	p.after = s.after
	p.elapsed += s.elapsed
	p.cpu += s.cpu
	p.allocs += s.allocs
	p.gcCycles += s.gcCycles
	p.peakHeap = max(p.peakHeap, s.peakHeap)
	p.heaps = append(p.heaps, s.heaps...)
	p.peakG = max(p.peakG, s.peakG)
	p.lat.add(s.lat)
	p.samples += s.samples
	p.segments = append(p.segments, iv)
	p.add(s)
}

// speed is the mean host speed over the phase's segments.
func (p *phase) speed() speed {
	ss := make([]speed, len(p.segments))
	for i, iv := range p.segments {
		ss[i] = iv.speed
	}
	return meanSpeed(ss)
}

// uncalibrated returns p with its segments' host speeds dropped, so
// its figures are the raw measurements.
func (p *phase) uncalibrated() phase {
	q := *p
	q.segments = append([]segment(nil), p.segments...)
	for i := range q.segments {
		q.segments[i].speed = speed{}
	}
	return q
}

// add folds another phase's op accounting into p, so a traced run's
// verdict covers both of its measured phases.
func (p *phase) add(o *phase) {
	p.attempted += o.attempted
	p.completed += o.completed
	p.failed += o.failed
	p.stalled = p.stalled || o.stalled
}

func (p *phase) ops() float64 {
	if p.completed < 1 {
		return 1
	}
	return float64(p.completed)
}

// minSegments is the fewest segments a phase reports medians over;
// a shorter phase reports its whole-phase rates.
const minSegments = 5

// runStats are a phase's rates, per-op costs, peak heap and
// latency quantiles.
type runStats struct {
	opsPerS, cpuPerOp, allocPerOp, heap, p50, tail, tailQ float64
}

// tailBlocks is how many blocks of consecutive segments the tail
// quantile is taken over.
const tailBlocks = 5

// stats returns medians over the phase's segments when it has enough
// of them, whole-phase figures otherwise. Times and rates are scaled to
// the reference host speed of each segment (of the whole phase, for
// whole-phase figures); see calib.go.
func (p *phase) stats() runStats {
	var rs, cs, as, ps []float64
	for _, iv := range p.segments {
		w, c := iv.speed.wallScale(), iv.speed.cpuScale()
		rs = append(rs, float64(iv.ops)/iv.wall.Seconds()*w)
		if iv.ops > 0 {
			cs = append(cs, float64(iv.cpu.Nanoseconds())/1e3/float64(iv.ops)/c)
			as = append(as, float64(iv.allocs)/float64(iv.ops))
			ps = append(ps, iv.p50/w)
		}
	}
	if len(cs) < minSegments {
		ops := p.ops()
		q := tailQuantile(p.samples)
		sp := p.speed()
		w, c := sp.wallScale(), sp.cpuScale()
		return runStats{
			float64(p.completed) / p.elapsed.Seconds() * w, float64(p.cpu.Nanoseconds()) / 1e3 / ops / c,
			float64(p.allocs) / ops, p.heap(), p.lat.quantile(0.5) / w, p.lat.quantile(q) / w, q,
		}
	}
	tail, tailQ := p.blockTail()
	return runStats{median(rs), median(cs), median(as), p.heap(), median(ps), tail, tailQ}
}

// heapQ is the quantile of the live heap over a run's GC cycles that
// peak_heap_mb reports. The highest cycle would depend on how many
// cycles a run has, and so on how fast the machine ran; a high
// quantile does not.
const heapQ = 0.9

// heap is the phase's peak live heap: the heapQ quantile of the live
// heap after each GC cycle, or the highest sample when no cycle ended.
func (p *phase) heap() float64 {
	if len(p.heaps) == 0 {
		return float64(p.peakHeap)
	}
	return quantileOf(p.heaps, heapQ)
}

// blockTail is the tail latency: the median, over tailBlocks blocks of
// consecutive segments, of each block's tailQuantile. A block spans
// several segments, so on every workload it holds at least 20 samples
// beyond its 0.99 quantile (join, the slowest, completes about 2000
// ops in a block of a 25 s run), and one burst of interference from
// outside the process moves one block rather than the figure. Taken
// over the whole phase instead, such a burst doubled join's p99 in 2
// runs of 10.
func (p *phase) blockTail() (tail, q float64) {
	per := max(1, len(p.segments)/tailBlocks)
	var ts, qs []float64
	for start := 0; start+per <= len(p.segments); start += per {
		end := start + per
		if len(p.segments)-end < per {
			end = len(p.segments) // the remainder joins the last block
		}
		var b histogram
		var ss []speed
		for _, iv := range p.segments[start:end] {
			b.add(iv.lat)
			ss = append(ss, iv.speed)
		}
		bq := tailQuantile(b.count())
		ts = append(ts, b.quantile(bq)/meanSpeed(ss).wallScale())
		qs = append(qs, bq)
		if end == len(p.segments) {
			break
		}
	}
	return median(ts), median(qs)
}

func (p *phase) endToEnd(setupS float64) map[string]metricValue {
	ops := p.ops()
	d := p.after.sub(p.before)
	st := p.stats()
	return map[string]metricValue{
		"setup_s":            {setupS, "s"},
		"ops_per_s":          {st.opsPerS, "1/s"},
		"latency_p50_us":     {st.p50 / 1e3, "us"},
		"latency_p99_us":     {st.tail / 1e3, "us"},
		"cpu_us_per_op":      {st.cpuPerOp, "us"},
		"alloc_bytes_per_op": {st.allocPerOp, "bytes"},
		"peak_heap_mb":       {st.heap / (1 << 20), "MB"},
		"wire_bytes_per_op":  {float64(d.BytesSent) / ops, "bytes"},
		"frames_per_op":      {float64(d.frames()) / ops, "count"},
	}
}

func printTable(w io.Writer, rec *record, e2e map[string]metricValue, ph phase, sp speed) {
	failRatio := float64(ph.failed) / float64(max(ph.attempted, 1))
	fmt.Fprintf(w, "%d ops attempted, %d failed, fail_ratio %.6f\n", ph.attempted, ph.failed, failRatio)
	fmt.Fprintf(w, "nested-rename probe (known defect, not in fail_ratio): %d of %d renamed nested members lost\n",
		rec.NestedLost, rec.NestedSent)
	if len(rec.Mix) > 0 {
		fmt.Fprintf(w, "mix: large records %.3f of ops, %.3f of frame bytes\n", rec.Mix["large_op_share"], rec.Mix["large_byte_share"])
	}
	fmt.Fprintf(w, "end-to-end (untraced): %d latency samples, tail quantile %.4f\n", rec.Samples, rec.TailQ)
	if len(rec.Calibrations) > 0 {
		fmt.Fprintf(w, "host speed: the reference ran %.3fx (wall) and %.3fx (CPU) its reference time; times below are scaled to the reference (raw figures in record.json)\n",
			sp.wallScale(), sp.cpuScale())
	}
	printMetrics(w, e2e)
	if rec.FramesModel {
		fmt.Fprintln(w, "  (frames_per_op on TCP is a model from the peers' Stats, not a count: 1 per object, 2 per request/reply)")
	}
	if rec.Trace {
		fmt.Fprintln(w, "per-layer (traced run; 'moves' names the end-to-end metric and workload each should move):")
		names := sortedKeys(rec.Layers)
		for _, n := range names {
			m := rec.Layers[n]
			fmt.Fprintf(w, "  %-36s %16.4f %-10s moves %s\n", n, m.Value, m.Unit, layerIndex[n].moves)
		}
	}
	if rec.Stalled {
		fmt.Fprintln(w, "STALLED: the watchdog aborted the run; see stall-*.txt in the run directory")
	}
}

func printMetrics(w io.Writer, ms map[string]metricValue) {
	for _, n := range sortedKeys(ms) {
		fmt.Fprintf(w, "  %-22s %16.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

func sortedKeys(m map[string]metricValue) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// closeWithin tears the workload down, giving up after d.
func closeWithin(w workload, d time.Duration) error {
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.close()
	}()
	select {
	case <-done:
		return nil
	case <-time.After(d):
		return fmt.Errorf("teardown did not finish within %s", d)
	}
}

// writeDump writes every goroutine's stack and the seed to replay
// with, next to the run's results.
func writeDump(dir string, seed int64, why string) {
	path := filepath.Join(dir, fmt.Sprintf("stall-%d.txt", time.Now().UnixNano()))
	f, err := os.Create(path)
	if err != nil {
		return
	}
	defer f.Close()
	fmt.Fprintf(f, "seed %d\nreason: %s\n\n", seed, why)
	_ = pprof.Lookup("goroutine").WriteTo(f, 2)
}
