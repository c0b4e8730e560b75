package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// corruptors break every expectation a workload checks its outputs
// against, leaving the inputs alone.
var corruptors = map[string]func(workload){
	"stream": func(w workload) {
		s := w.(*streamLoad)
		for i := range s.pool {
			s.pool[i].expOrder.Customer += "!"
			s.pool[i].expPerson.Name += "!"
		}
	},
	"join": func(w workload) {
		j := w.(*joinLoad)
		for i := range j.pool {
			j.pool[i].expReading.Unit += "!"
		}
	},
	"rpc": func(w workload) {
		r := w.(*rpcLoad)
		for i := range r.pool {
			r.pool[i].combined += "!"
			r.pool[i].quote.Price++
		}
	},
	"fanout":       corruptFanout,
	"fanout-lossy": corruptFanout,
}

func corruptFanout(w workload) {
	f := w.(*fanoutLoad)
	for i := range f.exp {
		f.exp[i].Total++
	}
}

// TestCorruptedExpectationCountsAsFailed runs every workload briefly
// twice: with its real expectations every op must pass, and with every
// expectation corrupted every op must count as failed.
func TestCorruptedExpectationCountsAsFailed(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			cfg := runConfig{name: name, seed: 7, dir: t.TempDir(), stall: 5 * time.Second}
			h := newHarness(cfg.seed)
			w := workloads[name]()
			defer w.close()
			if err := w.setup(h); err != nil {
				t.Fatalf("setup: %v", err)
			}
			clean := measure(cfg, w, h, 300*time.Millisecond)
			if clean.failed != 0 || clean.completed == 0 || clean.stalled {
				t.Fatalf("clean run: %d completed, %d failed, stalled %v", clean.completed, clean.failed, clean.stalled)
			}

			corruptors[name](w)
			bad := measure(cfg, w, h, 300*time.Millisecond)
			if bad.failed == 0 || bad.failed != bad.attempted || bad.completed != 0 {
				t.Fatalf("corrupted run: %d attempted, %d completed, %d failed; want every op failed",
					bad.attempted, bad.completed, bad.failed)
			}
		})
	}
}

// stallLoad starts ops that never end.
type stallLoad struct{}

func (stallLoad) network() string       { return "none" }
func (stallLoad) setup(*harness) error  { return nil }
func (stallLoad) totals() totals        { return totals{} }
func (stallLoad) fixtures() *fixtureSet { return &fixtureSet{} }
func (stallLoad) close()                {}
func (stallLoad) run(h *harness) {
	for i := 0; i < 3; i++ {
		h.begin()
	}
	<-h.abort
}

// TestWatchdogAbortsStalledRun: when no op ends for the stall limit,
// the run is aborted, its outstanding ops count as failed, and a
// goroutine dump with the seed is written next to the results.
func TestWatchdogAbortsStalledRun(t *testing.T) {
	cfg := runConfig{name: "stall", seed: 42, dir: t.TempDir(), stall: 200 * time.Millisecond}
	h := newHarness(cfg.seed)
	done := make(chan phase, 1)
	go func() { done <- measure(cfg, stallLoad{}, h, 50*time.Millisecond) }()
	var ph phase
	select {
	case ph = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("watchdog did not abort the stalled run")
	}
	if !ph.stalled || ph.failed != 3 || ph.completed != 0 {
		t.Fatalf("stalled %v, failed %d, completed %d; want stalled with 3 failed", ph.stalled, ph.failed, ph.completed)
	}
	dumps, err := filepath.Glob(filepath.Join(cfg.dir, "stall-*.txt"))
	if err != nil || len(dumps) != 1 {
		t.Fatalf("stall dumps %v (%v), want one", dumps, err)
	}
	data, err := os.ReadFile(dumps[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "seed 42\n") || !strings.Contains(string(data), "goroutine") {
		t.Fatalf("dump lacks the seed or the goroutine stacks:\n%.300s", data)
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b := makeStreamPool(newGen(5)), makeStreamPool(newGen(5))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("seed 5 produced two different stream pools")
	}
	if c := makeStreamPool(newGen(6)); reflect.DeepEqual(a, c) {
		t.Fatal("seeds 5 and 6 produced the same stream pool")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h histogram
	for v := int64(1); v <= 100000; v++ {
		h.record(v)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 50000}, {0.99, 99000}, {0.001, 100}} {
		got := h.quantile(c.q)
		if d := (got - c.want) / c.want; d > 0.005 || d < -0.005 {
			t.Errorf("quantile(%v) = %v, want %v within 0.5%%", c.q, got, c.want)
		}
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{100, 0.9}, {1000, 0.99}, {50000, 0.99}} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100, N: 1},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30, N: 1},
		{ID: 3, Parent: 1, Name: "b", Start: 40, End: 50, N: 2},
	}
	self := selfTimes(spans)
	if self[1] != 70 || self[2] != 20 || self[3] != 5 {
		t.Fatalf("self times %v, want op 70, a 20, b 5 per call", self)
	}
}

// TestBlockTailIgnoresOneBurst: a burst of slow ops in one segment
// sets the whole phase's p99 but moves only one block's.
func TestBlockTailIgnoresOneBurst(t *testing.T) {
	var ph phase
	for i := 0; i < 10; i++ {
		iv := segment{ops: 1000, wall: 2 * time.Second, lat: &histogram{}}
		v := int64(1000)
		if i == 3 {
			v = 1e6
		}
		for k := 0; k < 1000; k++ {
			iv.lat.record(v)
		}
		ph.segments = append(ph.segments, iv)
	}
	tail, q := ph.blockTail()
	if q != 0.99 || tail < 990 || tail > 1010 {
		t.Errorf("blockTail = %v at q %v, want about 1000 at 0.99", tail, q)
	}
}

// TestHostSpeedScalesTimes: a segment measured while the reference ran
// twice as slow as refUnit reports the figures of a segment that did
// half the work per second at full speed, and leaves byte counts alone.
func TestHostSpeedScalesTimes(t *testing.T) {
	mk := func(ops int64, cpu time.Duration, lat int64, sp speed) phase {
		ph := phase{lat: &histogram{}}
		for i := 0; i < minSegments; i++ {
			iv := segment{wall: 2 * time.Second, ops: ops, cpu: cpu, allocs: uint64(ops) * 100, lat: &histogram{}, speed: sp}
			for k := int64(0); k < ops; k++ {
				iv.lat.record(lat)
			}
			iv.p50 = iv.lat.quantile(0.5)
			ph.segments = append(ph.segments, iv)
		}
		return ph
	}
	fast := mk(2000, 2*time.Second, 1000, speed{})
	slowed := mk(1000, 2*time.Second, 2000, speed{wall: 2, cpu: 2})
	a, b := fast.stats(), slowed.stats()
	near := func(x, y float64) bool { return x > y*0.99 && x < y*1.01 }
	if !near(a.opsPerS, b.opsPerS) || !near(a.cpuPerOp, b.cpuPerOp) || !near(a.p50, b.p50) || !near(a.tail, b.tail) {
		t.Errorf("fast %+v, slowed and scaled %+v: want the same times and rates", a, b)
	}
	if a.allocPerOp != b.allocPerOp {
		t.Errorf("alloc per op %v vs %v: bytes must not be scaled", a.allocPerOp, b.allocPerOp)
	}
	raw := slowed.uncalibrated()
	if r := raw.stats(); !near(r.opsPerS, 500) || !near(r.p50, 2000) {
		t.Errorf("uncalibrated stats %+v, want the raw 500 ops/s and 2000 ns", r)
	}
}

// TestReferenceTask: the reference completes units and reads as a
// positive slowness.
func TestReferenceTask(t *testing.T) {
	c, err := runReference(50 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if c.Units < 1 || c.slow() <= 0 || c.slowCPU() <= 0 {
		t.Fatalf("calibration %+v", c)
	}
}

// TestMixShares checks the stream mix report against hand-counted
// totals.
func TestMixShares(t *testing.T) {
	tot := totals{LargeOps: 1, SmallOps: 3, LargeBytes: 5000, SmallBytes: 3 * 400}
	m := tot.mix()
	if m["large_op_share"] != 0.25 || m["large_frame_bytes"] != 5000 || m["small_frame_bytes"] != 400 {
		t.Errorf("mix = %v", m)
	}
	if got, want := m["large_byte_share"], 5000.0/6200; got != want {
		t.Errorf("large_byte_share = %v, want %v", got, want)
	}
	if (&totals{}).mix() != nil {
		t.Error("a workload without a mix reports one")
	}
}

func TestRunRejectsUnknownWorkload(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "nope", "--out", t.TempDir()}, &stdout, &stderr); code == 0 {
		t.Fatal("unknown workload exited 0")
	}
	if stdout.Len() != 0 {
		t.Fatalf("unknown workload printed a result: %s", stdout.String())
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json, the end-to-end
// metrics a run prints and the per-layer list in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var doc struct {
		Workloads []struct{ Name string }               `json:"workloads"`
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json lists workload %q, which the benchmark does not define", w.Name)
		}
	}
	ph := phase{lat: &histogram{}, elapsed: time.Second}
	e2e := ph.endToEnd(1)
	if len(doc.EndToEnd) != len(e2e) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, a run prints %d", len(doc.EndToEnd), len(e2e))
	}
	for _, m := range doc.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s (%s): run prints %+v", m.Name, m.Unit, got)
		}
	}
	if len(doc.PerLayer) != len(layerList) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, layers.go %d", len(doc.PerLayer), len(layerList))
	}
	for i, m := range doc.PerLayer {
		l := layerList[i]
		if m.Name != l.name || m.Unit != l.unit || m.Better != l.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, layers.go %+v", i, m, l)
		}
	}
}
