package main

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"pti/internal/fixtures"
	"pti/internal/registry"
	"pti/internal/transport"
)

// stream: two sender->receiver pairs over loopback TCP on plain links,
// each sender keeping streamWindow objects in flight. Types are warm,
// so the load falls on encode, envelopes, frame I/O and dispatch, and
// every conformance check is a cache hit.
//
// The mix is an assumption, not a recorded trace. One object in four
// is a large record, so small objects are most of the ops (3 in 4) and
// large records most of the bytes (about 4 in 5 at 24 to 72 lines, a
// mean of about 5 KB a frame against about 0.4 KB for PersonB): both
// the per-message path and the per-byte path carry a large share of
// the load, and a change to either shows. Every run records the
// delivered op and byte shares and the mean frame size of each class
// in record.json. The window of 2 per pair lets a sender encode the
// next object while the previous one crosses the connection, without
// queueing objects behind each other.
const (
	streamPairs  = 2
	streamWindow = 2
	streamPool   = 64 // distinct inputs, cycled
	streamLarge  = 16 // of which large records; the rest are PersonB
)

// streamInput is one pool entry: a sender value and what the receiver
// must get for it.
type streamInput struct {
	large     bool
	order     ShipmentOrder
	person    fixtures.PersonB
	expOrder  Order
	expPerson fixtures.PersonA
	frame     uint64 // bytes of the frame that carries it
}

type streamPair struct {
	send, recv *transport.Peer
	conn       *transport.Conn
	inflight   *inflight
	win        window
}

type streamLoad struct {
	pool    []streamInput
	pairs   []*streamPair
	orderID typeRef // the receiver's Order, for the ledger's round trip

	// The delivered mix: correct ops and their frame bytes by class.
	largeOps, smallOps     atomic.Uint64
	largeBytes, smallBytes atomic.Uint64
}

func (s *streamLoad) network() string { return "loopback-tcp" }

func makeStreamPool(g *gen) []streamInput {
	pool := make([]streamInput, streamPool)
	large := make([]bool, streamPool)
	for i := 0; i < streamLarge; i++ {
		large[i] = true
	}
	g.rng.Shuffle(len(large), func(i, j int) { large[i], large[j] = large[j], large[i] })
	lines := g.largeLines(streamLarge)
	for i := range pool {
		in := &pool[i]
		in.large = large[i]
		if in.large {
			in.order = g.order(lines[0])
			lines = lines[1:]
			in.expOrder = expectOrder(&in.order)
		} else {
			in.person = g.person()
			in.expPerson = expectPerson(&in.person)
		}
	}
	return pool
}

func (s *streamLoad) setup(h *harness) error {
	s.pool = makeStreamPool(h.gen)
	if err := measureFrames(s.pool); err != nil {
		return err
	}
	for i := 0; i < streamPairs; i++ {
		regS := registry.New()
		regR := registry.New()
		for _, v := range []interface{}{ShipmentOrder{}, fixtures.PersonB{}} {
			if _, err := regS.Register(v); err != nil {
				return err
			}
		}
		e, err := regR.Register(Order{})
		if err != nil {
			return err
		}
		s.orderID = e.Description.Ref()
		if _, err := regR.Register(fixtures.PersonA{}); err != nil {
			return err
		}
		p := &streamPair{
			send:     transport.NewPeer(regS, transport.WithName(fmt.Sprintf("sender%d", i))),
			recv:     transport.NewPeer(regR, transport.WithName(fmt.Sprintf("receiver%d", i))),
			inflight: newInflight(),
			win:      newWindow(streamWindow),
		}
		s.pairs = append(s.pairs, p)
		if err := p.recv.OnReceive(Order{}, s.onOrder(h, p)); err != nil {
			return err
		}
		if err := p.recv.OnReceive(fixtures.PersonA{}, s.onPerson(h, p)); err != nil {
			return err
		}
		if err := p.recv.Listen("127.0.0.1:0"); err != nil {
			return err
		}
		c, err := p.send.Dial(p.recv.Addr())
		if err != nil {
			return err
		}
		p.conn = c
	}
	// Warm up: every pool entry once through every pair, so type
	// descriptions, code, plans, programs and envelope shapes are
	// cached before timing starts.
	h.reset()
	for i, p := range s.pairs {
		for k := 0; k < streamPool; k++ {
			if !p.win.acquire(h.stop) {
				break
			}
			h.begin()
			s.sendOne(h, p, int64(k*streamPairs+i))
		}
		p.win.drain(h.abort)
	}
	if n := h.completed.Load(); n != int64(streamPairs*streamPool) || h.failed.Load() != 0 {
		return fmt.Errorf("warm-up delivered %d of %d objects, %d failed", n, streamPairs*streamPool, h.failed.Load())
	}
	return nil
}

// measureFrames stores the size of the frame SendObject puts on the
// wire for each pool entry, taken from a peer of its own through a
// capturing link.
func measureFrames(pool []streamInput) error {
	reg := registry.New()
	for _, v := range []interface{}{ShipmentOrder{}, fixtures.PersonB{}} {
		if _, err := reg.Register(v); err != nil {
			return err
		}
	}
	p := transport.NewPeer(reg)
	defer p.Close()
	for i := range pool {
		in := &pool[i]
		var v interface{} = in.person
		if in.large {
			v = in.order
		}
		var c captureLink
		if err := p.SendObject(&c, v); err != nil {
			return err
		}
		n, err := transport.WriteMessage(io.Discard, c.last)
		if err != nil {
			return err
		}
		in.frame = uint64(n)
	}
	return nil
}

// streamEntry is the pool entry of op id. A pair's ops are
// id = k*streamPairs + pair, and every pair cycles through the whole
// pool, so the mix does not depend on which pair runs faster.
func streamEntry(id int64) int { return int((id / streamPairs) % streamPool) }

// sendOne sends op id with the id stamped in.
func (s *streamLoad) sendOne(h *harness, p *streamPair, id int64) {
	in := &s.pool[streamEntry(id)]
	var v interface{}
	if in.large {
		o := in.order
		o.OrderSeq = id
		v = o
	} else {
		pb := in.person
		pb.PersonAge = int(id)
		v = pb
	}
	op := opStart{at: time.Now(), span: h.tracer.begin("stream.op", 0, id)}
	p.inflight.put(id, op)
	sp := h.tracer.begin("transport.SendObject", op.span, id)
	err := p.send.SendObject(p.conn, v)
	h.tracer.end(sp, 1)
	if err != nil {
		if _, ok := p.inflight.take(id); ok {
			h.fail()
			p.win.release()
		}
	}
}

func (s *streamLoad) deliver(h *harness, p *streamPair, id int64, in *streamInput, good bool) {
	end := time.Now()
	op, ok := p.inflight.take(id)
	if !ok {
		// A delivery nobody is waiting for: a duplicate or a value
		// whose id was corrupted. It fails an op of its own.
		h.begin()
		h.fail()
		return
	}
	h.tracer.end(op.span, 1)
	if good {
		if in.large {
			s.largeOps.Add(1)
			s.largeBytes.Add(in.frame)
		} else {
			s.smallOps.Add(1)
			s.smallBytes.Add(in.frame)
		}
		h.ok(end.Sub(op.at))
	} else {
		h.fail()
	}
	p.win.release()
}

func (s *streamLoad) onOrder(h *harness, p *streamPair) func(transport.Delivery) {
	return func(d transport.Delivery) {
		got, ok := d.Bound.(*Order)
		if !ok {
			h.begin()
			h.fail()
			return
		}
		if got.Seq < 0 {
			h.begin()
			h.fail()
			return
		}
		in := &s.pool[streamEntry(got.Seq)]
		exp := in.expOrder
		exp.Seq = got.Seq
		s.deliver(h, p, got.Seq, in, in.large && sameOrder(got, &exp))
	}
}

func (s *streamLoad) onPerson(h *harness, p *streamPair) func(transport.Delivery) {
	return func(d transport.Delivery) {
		got, ok := d.Bound.(*fixtures.PersonA)
		if !ok {
			h.begin()
			h.fail()
			return
		}
		id := int64(got.Age)
		if id < 0 {
			h.begin()
			h.fail()
			return
		}
		in := &s.pool[streamEntry(id)]
		exp := in.expPerson
		exp.Age = got.Age
		s.deliver(h, p, id, in, !in.large && *got == exp)
	}
}

func (s *streamLoad) run(h *harness) {
	var wg sync.WaitGroup
	for i, p := range s.pairs {
		wg.Add(1)
		go func(i int, p *streamPair) {
			defer wg.Done()
			for k := int64(streamPool); p.win.acquire(h.stop); k++ {
				h.begin()
				s.sendOne(h, p, k*streamPairs+int64(i))
			}
			p.win.drain(h.abort)
		}(i, p)
	}
	wg.Wait()
}

func (s *streamLoad) totals() totals {
	var t totals
	for _, p := range s.pairs {
		t.addPeer(p.send)
		t.addPeer(p.recv)
	}
	t.LargeOps, t.SmallOps = s.largeOps.Load(), s.smallOps.Load()
	t.LargeBytes, t.SmallBytes = s.largeBytes.Load(), s.smallBytes.Load()
	return t
}

func (s *streamLoad) close() {
	for _, p := range s.pairs {
		_ = p.send.Close()
		_ = p.recv.Close()
	}
}

func (s *streamLoad) fixtures() *fixtureSet {
	fx := &fixtureSet{
		path: map[string]float64{"transport.send": 1, "transport.frame_write": 1, "transport.frame_read": 1,
			"xmlenc.envelope_parse": 1, "conform.check_cached": 1, "proxy.mapping": 1, "wire.decode": 1, "proxy.invoker": 1},
	}
	for i := range s.pool {
		if in := &s.pool[i]; in.large {
			fx.add(in.order, Order{})
		} else {
			fx.add(in.person, fixtures.PersonA{})
		}
	}
	p := s.pairs[0]
	fx.roundTrip = func() error { return typeInfoRoundTrip(p.conn, s.orderID) }
	return fx
}
