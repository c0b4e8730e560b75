package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pti/internal/registry"
	"pti/internal/tps"
	"pti/internal/transport"
)

// fanout: one publisher on the simulation fabric, seeded by the
// workload seed. It broadcasts large records over reliable links (send
// queue, adaptive RTO) with compression on, through the "wan" fault
// profile (loss, duplication, reordering), to fanoutSubs subscriber
// nodes. Each subscriber's tps.Broker is attached with tps.AttachNode
// and holds one subscription in its own vocabulary. An op is one
// object delivered exactly once, in order, to every subscriber. This
// is the only workload that loads reliable, fabric/sched, compress and
// tps.
//
// The fabric runs on the wall clock. On the virtual clock a run stalls
// within seconds on some seeds (24 and 41 at 20s): a scheduler shard
// stays parked in its timer select with the clock frozen.
//
// The reliable links start with a retransmit timeout above the wan
// round trip. At the library's 20ms default every data frame is resent
// before its ack can arrive, so under Karn's rule the adaptive RTO
// never takes a sample: SRTT stays 0, every frame goes out about four
// times and the latency tail jumps between retransmit plateaus from
// run to run.
const (
	fanoutSubs = 2
	fanoutPool = 32
	fanoutWarm = 8
	fanoutWait = 30 * time.Second // set-up deadline for the warm-up deliveries
	// fanoutInitialRTO is the retransmit timeout before the first RTT
	// sample. It lies above the wan profile's largest round trip
	// (2 x (100ms + 50ms jitter)), so the first frames are acked
	// before they are resent and the adaptive estimate gets clean
	// samples (Karn's rule) instead of staying at the library default.
	fanoutInitialRTO = 400 * time.Millisecond
)

type fanoutSub struct {
	node   *transport.Node
	broker *tps.Broker
	orderT typeRef      // the subscriber's Order, for the ledger's round trip
	next   atomic.Int64 // next seq this subscriber must see
}

// fanoutOp is one outstanding broadcast.
type fanoutOp struct {
	start time.Time
	span  int64
	left  int // subscribers still to deliver
	good  bool
}

type fanoutLoad struct {
	lossy  bool // fanout-lossy: the lan profile's latency with wan's faults
	window int  // broadcasts in flight
	pool   []ShipmentOrder
	exp    []Order
	fab    *transport.Fabric
	pub    *transport.Node
	subs   []*fanoutSub
	win    window
	h      *harness // the harness the handlers report to

	mu  sync.Mutex
	ops map[int64]*fanoutOp
	seq int64 // next seq to broadcast
}

func (f *fanoutLoad) network() string { return "fabric-wall-clock" }

func (f *fanoutLoad) setup(h *harness) error {
	f.h = h
	f.ops = make(map[int64]*fanoutOp)
	f.win = newWindow(f.window)
	lines := h.gen.largeLines(fanoutPool)
	for i := 0; i < fanoutPool; i++ {
		o := h.gen.order(lines[i])
		f.pool = append(f.pool, o)
		f.exp = append(f.exp, expectOrder(&o))
	}
	prof, err := fanoutProfile(f.lossy)
	if err != nil {
		return err
	}
	// The warm-up runs on the profile's latency without its faults:
	// with only fanoutWarm frames on a link, a lost last frame has no
	// successor to reveal the gap and waits out the initial RTO, which
	// would make set-up time a matter of the seed's fault schedule.
	calm := prof
	calm.DropRate, calm.DupRate, calm.ReorderRate = 0, 0, 0
	// The fabric's seed is the workload seed: the fault schedule is an
	// input like the payloads.
	f.fab = transport.NewFabric(h.gen.seed)
	rel := transport.WithReliableLinks(
		transport.WithSendQueue(4*f.window),
		transport.WithWindow(4*f.window),
		transport.WithRetransmitTimeout(fanoutInitialRTO),
		transport.WithAdaptiveRTO())
	regP := registry.New()
	if _, err := regP.Register(ShipmentOrder{}); err != nil {
		return err
	}
	pub, err := f.fab.AddPeerWithRegistry("pub", regP, rel, transport.WithCompression(),
		transport.WithRequestTimeout(10*time.Second))
	if err != nil {
		return err
	}
	f.pub = pub
	for i := 0; i < fanoutSubs; i++ {
		name := fmt.Sprintf("sub%d", i+1)
		reg := registry.New()
		e, err := reg.Register(Order{})
		if err != nil {
			return err
		}
		n, err := f.fab.AddPeerWithRegistry(name, reg, rel, transport.WithRequestTimeout(10*time.Second))
		if err != nil {
			return err
		}
		s := &fanoutSub{node: n, broker: tps.NewBroker(reg), orderT: e.Description.Ref()}
		if _, err := s.broker.Subscribe(Order{}, f.onEvent(s)); err != nil {
			return err
		}
		if err := tps.AttachNode(s.broker, n, Order{}); err != nil {
			return err
		}
		if _, _, err := f.fab.Connect("pub", name, calm); err != nil {
			return err
		}
		f.subs = append(f.subs, s)
	}
	// Warm up: a few broadcasts through to every subscriber, so the
	// type round trips, compiles and the RTO estimate are done.
	h.reset()
	for i := 0; i < fanoutWarm; i++ {
		if !f.win.acquire(h.stop) {
			break
		}
		h.begin()
		f.broadcast(h)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		f.win.drain(h.abort)
	}()
	select {
	case <-done:
	case <-time.After(fanoutWait):
		h.giveUp()
		<-done
		return fmt.Errorf("warm-up: %d of %d broadcasts delivered within %s", h.completed.Load(), fanoutWarm, fanoutWait)
	}
	if h.failed.Load() != 0 {
		return fmt.Errorf("warm-up: %d broadcasts failed", h.failed.Load())
	}
	for _, sub := range f.subs {
		if err := f.fab.SetProfile("pub", sub.node.Name(), prof); err != nil {
			return err
		}
	}
	return nil
}

// fanoutProfile returns the links' fault profile: "wan" for fanout,
// and for fanout-lossy "lan"'s sub-millisecond latency carrying wan's
// loss, duplication and reordering rates. There a lost frame is
// recovered within a millisecond rather than a round trip of 200ms, so
// a run's thousands of ops each see a few recoveries and the figures
// settle, while every reliable and fabric counter still moves.
func fanoutProfile(lossy bool) (transport.FaultProfile, error) {
	wan, ok := transport.NamedProfile("wan")
	if !ok {
		return wan, errors.New(`fabric has no "wan" profile`)
	}
	if !lossy {
		return wan, nil
	}
	lan, ok := transport.NamedProfile("lan")
	if !ok {
		return lan, errors.New(`fabric has no "lan" profile`)
	}
	lan.DropRate, lan.DupRate, lan.ReorderRate = wan.DropRate, wan.DupRate, wan.ReorderRate
	return lan, nil
}

// broadcast sends the next seq to every subscriber.
func (f *fanoutLoad) broadcast(h *harness) {
	f.mu.Lock()
	id := f.seq
	f.seq++
	op := &fanoutOp{start: time.Now(), left: fanoutSubs, good: true}
	op.span = h.tracer.begin("fanout.op", 0, id)
	f.ops[id] = op
	f.mu.Unlock()

	o := f.pool[id%fanoutPool]
	o.OrderSeq = id
	sp := h.tracer.begin("transport.Broadcast", op.span, id)
	n, err := f.pub.Peer().Broadcast(o)
	h.tracer.end(sp, 1)
	if err != nil || n != fanoutSubs {
		f.mu.Lock()
		delete(f.ops, id)
		f.mu.Unlock()
		h.fail()
		f.win.release()
	}
}

// onEvent checks one subscriber's deliveries: exactly once, in order,
// with the broadcast's content.
func (f *fanoutLoad) onEvent(s *fanoutSub) tps.Handler {
	return func(e tps.Event) {
		h := f.h
		got, ok := e.Bound.(*Order)
		if !ok {
			h.begin()
			h.fail()
			return
		}
		inOrder := s.next.CompareAndSwap(got.Seq, got.Seq+1)
		good := false
		if inOrder && got.Seq >= 0 {
			exp := f.exp[got.Seq%fanoutPool]
			exp.Seq = got.Seq
			good = sameOrder(got, &exp)
		}
		end := time.Now()
		f.mu.Lock()
		op, ok := f.ops[got.Seq]
		if !inOrder || !ok {
			f.mu.Unlock()
			// Out of order, duplicated, or for no outstanding op.
			h.begin()
			h.fail()
			return
		}
		op.good = op.good && good
		op.left--
		finished := op.left == 0
		if finished {
			delete(f.ops, got.Seq)
		}
		f.mu.Unlock()
		if !finished {
			return
		}
		h.tracer.end(op.span, 1)
		if op.good {
			h.ok(end.Sub(op.start))
		} else {
			h.fail()
		}
		f.win.release()
	}
}

func (f *fanoutLoad) run(h *harness) {
	for f.win.acquire(h.stop) {
		h.begin()
		f.broadcast(h)
	}
	f.win.drain(h.abort)
}

func (f *fanoutLoad) totals() totals {
	var t totals
	t.addPeer(f.pub.Peer())
	for _, s := range f.subs {
		t.addPeer(s.node.Peer())
		_, delivered, dropped := s.broker.Stats()
		t.TPSDelivered += delivered
		t.TPSDropped += dropped
	}
	fs := f.fab.Stats()
	t.FabricFrames = fs.FramesSent
	t.FramesDropped = fs.FramesDropped
	t.FramesDuplicated = fs.FramesDuplicated
	t.FramesReordered = fs.FramesReordered
	t.SchedFrames, t.SchedHeapOps, _ = f.fab.SchedulerStats()
	t.Clock = time.Duration(f.fab.Clock().Now().UnixNano())
	return t
}

// gauges reports the publisher's reliable-link state, averaged over
// its links to the subscribers.
func (f *fanoutLoad) gauges() map[string]float64 {
	var srtt, rto time.Duration
	peak := 0
	n := 0
	for _, s := range f.subs {
		c, ok := f.pub.ConnTo(s.node.Name())
		if !ok {
			continue
		}
		st, ok := c.ReliableSnapshot()
		if !ok {
			continue
		}
		srtt += st.SRTT
		rto += st.RTO
		if st.QueuePeak > peak {
			peak = st.QueuePeak
		}
		n++
	}
	if n == 0 {
		return nil
	}
	return map[string]float64{
		"reliable.srtt_us":    float64(srtt.Microseconds()) / float64(n),
		"reliable.rto_us":     float64(rto.Microseconds()) / float64(n),
		"reliable.queue_peak": float64(peak),
	}
}

func (f *fanoutLoad) close() {
	if f.fab != nil {
		_ = f.fab.Close()
	}
}

func (f *fanoutLoad) fixtures() *fixtureSet {
	fx := &fixtureSet{
		path: map[string]float64{"transport.send_compressed": fanoutSubs, "transport.frame_write": 1,
			"transport.frame_read": 1, "xmlenc.envelope_parse": 1, "conform.check_cached": 1,
			"proxy.mapping": 1, "wire.decode": 1, "proxy.invoker": 1, "tps.publish": 1},
	}
	for i := range f.pool {
		fx.add(f.pool[i], Order{})
	}
	if c, ok := f.pub.ConnTo(f.subs[0].node.Name()); ok {
		fx.roundTrip = func() error { return typeInfoRoundTrip(c, f.subs[0].orderT) }
	}
	return fx
}
