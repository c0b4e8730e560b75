package main

import (
	"math"
	"math/bits"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// harness is the state one workload run shares with the benchmark's
// driver loop: op accounting, per-op latencies, the stop and abort
// signals, and the tracer (nil when tracing is off).
type harness struct {
	gen    *gen
	tracer *tracer

	attempted atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64
	// progress is the wall time (UnixNano) of the last op that ended,
	// successfully or not; the stall watchdog reads it.
	progress atomic.Int64

	lat histogram // ns per completed op, whole phase

	// stop asks the closed loop to issue no further ops; abort asks
	// every wait on an outstanding op to give up (the watchdog fired).
	stop      chan struct{}
	abort     chan struct{}
	abortOnce sync.Once
}

func newHarness(seed int64) *harness {
	h := &harness{
		gen:   newGen(seed),
		stop:  make(chan struct{}),
		abort: make(chan struct{}),
	}
	h.progress.Store(time.Now().UnixNano())
	return h
}

// reset clears the op accounting between phases of one run.
func (h *harness) reset() {
	h.attempted.Store(0)
	h.completed.Store(0)
	h.failed.Store(0)
	h.lat.reset()
	h.stop = make(chan struct{})
	h.progress.Store(time.Now().UnixNano())
}

func (h *harness) stopping() bool {
	select {
	case <-h.stop:
		return true
	default:
		return false
	}
}

// halter returns a function that closes the current phase's stop
// channel, once, from any goroutine. It is bound to this phase, so a
// late call cannot stop the next one.
func (h *harness) halter() func() {
	stop, once := h.stop, new(sync.Once)
	return func() { once.Do(func() { close(stop) }) }
}

func (h *harness) giveUp() { h.abortOnce.Do(func() { close(h.abort) }) }
func (h *harness) begin()  { h.attempted.Add(1) }
func (h *harness) outstanding() int64 {
	return h.attempted.Load() - h.completed.Load() - h.failed.Load()
}

// ok records a completed, correct op and its latency.
func (h *harness) ok(d time.Duration) {
	h.lat.record(int64(d))
	h.completed.Add(1)
	h.progress.Store(time.Now().UnixNano())
}

// fail records an op that errored, timed out, was duplicated or
// delivered a wrong value.
func (h *harness) fail() {
	h.failed.Add(1)
	h.progress.Store(time.Now().UnixNano())
}

// histogram counts op latencies in fixed log-linear buckets: histSub
// buckets per power of two, so every recorded value is kept to within
// 1/histSub of itself in constant memory, however long the run.
type histogram struct {
	counts [histOctaves * histSub]atomic.Uint64
}

const (
	histSubBits = 8
	histSub     = 1 << histSubBits
	histOctaves = 48
)

func histIndex(v int64) int {
	if v < histSub {
		if v < 0 {
			v = 0
		}
		return int(v)
	}
	octave := bits.Len64(uint64(v)) - histSubBits // >= 1
	i := octave*histSub + int(uint64(v)>>uint(octave-1)) - histSub
	if i >= histOctaves*histSub {
		i = histOctaves*histSub - 1
	}
	return i
}

// histLow returns the smallest value of bucket i and its width.
func histLow(i int) (low, width float64) {
	if i < histSub {
		return float64(i), 1
	}
	octave, sub := i/histSub, i%histSub
	w := float64(uint64(1) << uint(octave-1))
	return float64(histSub+sub) * w, w
}

func (h *histogram) record(v int64) { h.counts[histIndex(v)].Add(1) }

// add adds o's counts to h's.
func (h *histogram) add(o *histogram) {
	for i := range h.counts {
		if c := o.counts[i].Load(); c > 0 {
			h.counts[i].Add(c)
		}
	}
}

func (h *histogram) reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
}

// copyFrom replaces h's counts with o's.
func (h *histogram) copyFrom(o *histogram) {
	for i := range h.counts {
		h.counts[i].Store(o.counts[i].Load())
	}
}

func (h *histogram) count() int {
	n := uint64(0)
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return int(n)
}

// quantile returns the nearest-rank q-quantile, interpolated by rank
// within its bucket.
func (h *histogram) quantile(q float64) float64 {
	n := h.count()
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	seen := 0
	for i := range h.counts {
		c := int(h.counts[i].Load())
		if c == 0 {
			continue
		}
		if seen+c >= rank {
			low, width := histLow(i)
			return low + width*(float64(rank-seen)-0.5)/float64(c)
		}
		seen += c
	}
	return 0
}

// tailQuantile is the quantile reported as latency_p99_us: 0.99 when
// at least ten samples lie beyond it, otherwise the highest quantile
// that still has ten samples beyond it.
func tailQuantile(n int) float64 {
	if n <= 10 {
		return 0.5
	}
	q := 1 - 10/float64(n)
	if q > 0.99 {
		q = 0.99
	}
	if q < 0.5 {
		q = 0.5
	}
	return q
}

// quantileOf returns the nearest-rank q-quantile of xs.
func quantileOf(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// procSnap is the process-wide state read at the edges of the timed
// phase.
type procSnap struct {
	wall     time.Time
	cpu      time.Duration
	allocs   uint64
	gcCycles uint64
}

var snapMetrics = []string{"/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles"}

func takeSnap() procSnap {
	s := procSnap{wall: time.Now(), cpu: cpuTime()}
	samples := make([]metrics.Sample, len(snapMetrics))
	for i, name := range snapMetrics {
		samples[i].Name = name
	}
	metrics.Read(samples)
	s.allocs = samples[0].Value.Uint64()
	s.gcCycles = samples[1].Value.Uint64()
	return s
}

func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sampler tracks the peak live heap and goroutine count while the
// timed phase runs.
type sampler struct {
	done     chan struct{}
	finished chan struct{}
	peakHeap uint64
	peakG    uint64
	// heaps is the live heap after each GC cycle that ended while the
	// sampler ran.
	heaps []float64
}

// segmentLen is the length of one measured segment. Rates and per-op
// costs are reported as the median over a run's segments, so a burst
// of interference from outside the process moves few of them, and the
// host speed is calibrated between segments.
const segmentLen = 2 * time.Second

// segment is one measured segment of a run: ops completed, the CPU time and
// bytes allocated while they ran, their latencies, and the host speed
// the calibrations around it measured.
type segment struct {
	wall    time.Duration
	ops     int64
	cpu     time.Duration
	allocs  uint64
	samples int // latencies recorded in the segment
	p50     float64
	lat     *histogram // the segment's latencies
	speed   speed
}

func startSampler() *sampler {
	s := &sampler{done: make(chan struct{}), finished: make(chan struct{})}
	samples := []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/sched/goroutines:goroutines"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(samples)
	cycles := samples[2].Value.Uint64()
	read := func() {
		metrics.Read(samples)
		live := samples[0].Value.Uint64()
		if live > s.peakHeap {
			s.peakHeap = live
		}
		if v := samples[1].Value.Uint64(); v > s.peakG {
			s.peakG = v
		}
		if c := samples[2].Value.Uint64(); c != cycles {
			cycles = c
			s.heaps = append(s.heaps, float64(live))
		}
	}
	go func() {
		defer close(s.finished)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			read()
			select {
			case <-s.done:
				read()
				return
			case <-t.C:
			}
		}
	}()
	return s
}

func (s *sampler) finish() {
	close(s.done)
	<-s.finished
}

// settle collects garbage left by set-up so every timed phase starts
// from the same heap state.
func settle() {
	runtime.GC()
	runtime.GC()
}
