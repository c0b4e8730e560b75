package main

import (
	"sort"
	"sync"
	"time"

	"pti/internal/transport"
)

// workload is one traffic mix driven through the public object path.
type workload interface {
	// network names what the traffic crosses: loopback TCP or the
	// in-memory fabric.
	network() string
	// setup builds the peers, registers the types, connects them and
	// warms every cache the steady state relies on.
	setup(h *harness) error
	// run drives the closed loop until h.stop closes, then waits for
	// every op it started to end (or for h.abort).
	run(h *harness)
	// totals returns cumulative counters over every peer the workload
	// has built, including peers it has already closed.
	totals() totals
	// fixtures describes the op shape to the ledger.
	fixtures() *fixtureSet
	close()
}

var workloads = map[string]func() workload{
	"stream": func() workload { return &streamLoad{} },
	"join":   func() workload { return &joinLoad{} },
	"rpc":    func() workload { return &rpcLoad{} },
	// Over wan a broadcast takes 100 to 300ms, so fanout keeps 32 in
	// flight. fanout-lossy's take about 4ms, nearly all of it CPU: 4 in
	// flight keep both cores busy, and a larger window only queues ops
	// behind each other, which tied its latency to any other load on
	// the machine (one core taken by another process raised its p50 by
	// 37% at a window of 4 and by 130% at 32).
	"fanout":       func() workload { return &fanoutLoad{window: 32} },
	"fanout-lossy": func() workload { return &fanoutLoad{lossy: true, window: 4} },
}

// workloadProcs fixes GOMAXPROCS for the request/reply workloads. A
// join or an rpc call is a chain of goroutine hand-offs. On two Ps each
// hand-off can wait for the host to wake the other vCPU, which on a
// shared machine can cost more than the work: join's ops/s halved
// between runs whose calibrated machine speed was the same. On one P
// the chain runs without idling, so its time is CPU time, as the
// reference's is (see calib.go). stream and fanout-lossy keep both
// cores busy and run on the default nproc Ps.
var workloadProcs = map[string]int{"join": 1, "rpc": 1}

func workloadNames() []string {
	out := make([]string, 0, len(workloads))
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// totals are the cumulative counters a workload exports, summed over
// its peers.
type totals struct {
	BytesSent          uint64
	ObjectsSent        uint64
	ObjectsDelivered   uint64
	CompiledDeliveries uint64
	ObjectsDropped     uint64
	TypeInfoRequests   uint64
	CodeRequests       uint64
	DescriptorHits     uint64
	Invokes            uint64
	InvokesShed        uint64
	RelDataSent        uint64
	RelRetransmits     uint64
	RelFastRetransmits uint64
	RelAcksReceived    uint64
	RelDeduped         uint64
	RelNacksSent       uint64

	// Fabric-only counters.
	FabricFrames     uint64
	FramesDropped    uint64
	FramesDuplicated uint64
	FramesReordered  uint64
	SchedFrames      uint64
	SchedHeapOps     uint64
	Clock            time.Duration // the fabric clock's reading

	TPSDelivered uint64
	TPSDropped   uint64

	// The stream mix as delivered: correct ops and their frame bytes,
	// by record class.
	LargeOps, SmallOps     uint64
	LargeBytes, SmallBytes uint64
}

func (t *totals) addPeer(p *transport.Peer) {
	s := p.Stats().Snapshot()
	t.BytesSent += s.BytesSent
	t.ObjectsSent += s.ObjectsSent
	t.ObjectsDelivered += s.ObjectsDelivered
	t.CompiledDeliveries += s.CompiledDeliveries
	t.ObjectsDropped += s.ObjectsDropped
	t.TypeInfoRequests += s.TypeInfoRequests
	t.CodeRequests += s.CodeRequests
	t.DescriptorHits += s.DescriptorHits
	t.Invokes += s.Invokes
	t.InvokesShed += s.InvokesShed
	t.RelDataSent += s.RelDataSent
	t.RelRetransmits += s.RelRetransmits
	t.RelFastRetransmits += s.RelFastRetransmits
	t.RelAcksReceived += s.RelAcksReceived
	t.RelDeduped += s.RelDeduped
	t.RelNacksSent += s.RelNacksSent
}

// frames is the number of frames put on the wire. On the fabric this
// is the fabric's own count. On TCP no layer counts frames, so it is a
// model from the peers' Stats: one frame per object sent and two per
// request/reply exchange (type info, code, invoke). The model cannot
// see a change that batches frames or adds control frames.
func (t *totals) frames() uint64 {
	if t.FabricFrames > 0 {
		return t.FabricFrames
	}
	return t.ObjectsSent + 2*(t.TypeInfoRequests+t.CodeRequests+t.Invokes)
}

// mix reports the delivered mix's large-record share of ops and of
// frame bytes, and the mean frame size of each class; nil when the
// workload has no mix.
func (t *totals) mix() map[string]float64 {
	ops := t.LargeOps + t.SmallOps
	if ops == 0 {
		return nil
	}
	m := map[string]float64{
		"large_op_share":   float64(t.LargeOps) / float64(ops),
		"large_byte_share": float64(t.LargeBytes) / float64(t.LargeBytes+t.SmallBytes),
	}
	if t.LargeOps > 0 {
		m["large_frame_bytes"] = float64(t.LargeBytes) / float64(t.LargeOps)
	}
	if t.SmallOps > 0 {
		m["small_frame_bytes"] = float64(t.SmallBytes) / float64(t.SmallOps)
	}
	return m
}

// sub returns t - o for every counter.
func (t totals) sub(o totals) totals {
	return totals{
		BytesSent:          t.BytesSent - o.BytesSent,
		ObjectsSent:        t.ObjectsSent - o.ObjectsSent,
		ObjectsDelivered:   t.ObjectsDelivered - o.ObjectsDelivered,
		CompiledDeliveries: t.CompiledDeliveries - o.CompiledDeliveries,
		ObjectsDropped:     t.ObjectsDropped - o.ObjectsDropped,
		TypeInfoRequests:   t.TypeInfoRequests - o.TypeInfoRequests,
		CodeRequests:       t.CodeRequests - o.CodeRequests,
		DescriptorHits:     t.DescriptorHits - o.DescriptorHits,
		Invokes:            t.Invokes - o.Invokes,
		InvokesShed:        t.InvokesShed - o.InvokesShed,
		RelDataSent:        t.RelDataSent - o.RelDataSent,
		RelRetransmits:     t.RelRetransmits - o.RelRetransmits,
		RelFastRetransmits: t.RelFastRetransmits - o.RelFastRetransmits,
		RelAcksReceived:    t.RelAcksReceived - o.RelAcksReceived,
		RelDeduped:         t.RelDeduped - o.RelDeduped,
		RelNacksSent:       t.RelNacksSent - o.RelNacksSent,
		FabricFrames:       t.FabricFrames - o.FabricFrames,
		FramesDropped:      t.FramesDropped - o.FramesDropped,
		FramesDuplicated:   t.FramesDuplicated - o.FramesDuplicated,
		FramesReordered:    t.FramesReordered - o.FramesReordered,
		SchedFrames:        t.SchedFrames - o.SchedFrames,
		SchedHeapOps:       t.SchedHeapOps - o.SchedHeapOps,
		Clock:              t.Clock - o.Clock,
		TPSDelivered:       t.TPSDelivered - o.TPSDelivered,
		TPSDropped:         t.TPSDropped - o.TPSDropped,
		LargeOps:           t.LargeOps - o.LargeOps,
		SmallOps:           t.SmallOps - o.SmallOps,
		LargeBytes:         t.LargeBytes - o.LargeBytes,
		SmallBytes:         t.SmallBytes - o.SmallBytes,
	}
}

// window is a closed loop's in-flight limit: a sender takes a slot
// before each op and the op's completion returns it.
type window chan struct{}

func newWindow(n int) window { return make(window, n) }

// acquire blocks for a slot; it fails once stop closes.
func (w window) acquire(stop <-chan struct{}) bool {
	select {
	case <-stop:
		return false
	default:
	}
	select {
	case w <- struct{}{}:
		return true
	case <-stop:
		return false
	}
}

func (w window) release() { <-w }

// drain waits until every slot is free, or abort closes.
func (w window) drain(abort <-chan struct{}) {
	for i := 0; i < cap(w); i++ {
		select {
		case w <- struct{}{}:
		case <-abort:
			return
		}
	}
	for i := 0; i < cap(w); i++ {
		<-w
	}
}

// opStart is an outstanding op: when it started and its root span.
type opStart struct {
	at   time.Time
	span int64
}

// inflight maps an op id to its start while it is outstanding. A
// second completion for the same id finds no entry: a duplicate.
type inflight struct {
	mu sync.Mutex
	m  map[int64]opStart
}

func newInflight() *inflight { return &inflight{m: make(map[int64]opStart)} }

func (f *inflight) put(id int64, s opStart) {
	f.mu.Lock()
	f.m[id] = s
	f.mu.Unlock()
}

// take removes id and returns its start.
func (f *inflight) take(id int64) (opStart, bool) {
	f.mu.Lock()
	s, ok := f.m[id]
	delete(f.m, id)
	f.mu.Unlock()
	return s, ok
}
