package main

import (
	"errors"
	"fmt"
	"time"

	"pti/internal/fixtures"
	"pti/internal/registry"
	"pti/internal/transport"
)

// join: a new subscriber arriving. Each op builds a fresh receiver
// peer with a fresh registry, registers joinK interest types, connects
// to a long-lived publisher over loopback TCP and receives one object
// of each type, written in the publisher's vocabulary. Joins run one
// after another. This is the optimistic protocol's first-contact cost:
// descriptions, registry writes, uncached conformance checks, plan and
// program compiles, and the type-info and code round trips.
//
// The publisher dials the new subscriber rather than the other way
// round. The connection is the same loopback TCP either way, but this
// way the publisher holds the *Conn it sends on, so no op polls for the
// publisher's accept or for its teardown of the previous joiner.
const (
	joinK        = 4
	joinPool     = 16 // distinct input sets, cycled
	joinDeadline = 5 * time.Second
)

// joinInput is one join's K objects and their expectations.
type joinInput struct {
	order   ShipmentOrder
	person  fixtures.PersonB
	quote   fixtures.StockQuoteB
	reading SensorReading

	expOrder   Order
	expPerson  fixtures.PersonA
	expQuote   fixtures.StockQuoteA
	expReading Reading
}

type joinLoad struct {
	pool []joinInput
	pub  *transport.Peer

	// closed accumulates the counters of joiner peers already torn
	// down.
	closed totals
	// ledgerPeer is a subscriber kept connected for the ledger's round
	// trips; ledgerConn is the publisher's connection to it.
	ledgerPeer *transport.Peer
	ledgerConn *transport.Conn
	orderT     typeRef // the ledger subscriber's Order
}

func (j *joinLoad) network() string { return "loopback-tcp" }

func (j *joinLoad) setup(h *harness) error {
	g := h.gen
	lines := g.largeLines(joinPool)
	for i := 0; i < joinPool; i++ {
		in := joinInput{order: g.order(lines[i]), person: g.person(), quote: g.quote(), reading: g.reading()}
		in.expOrder = expectOrder(&in.order)
		in.expPerson = expectPerson(&in.person)
		in.expQuote = expectQuote(&in.quote)
		in.expReading = expectReading(&in.reading)
		j.pool = append(j.pool, in)
	}
	reg := registry.New()
	for _, v := range []interface{}{ShipmentOrder{}, fixtures.PersonB{}, fixtures.StockQuoteB{}, SensorReading{}} {
		if _, err := reg.Register(v); err != nil {
			return err
		}
	}
	j.pub = transport.NewPeer(reg, transport.WithName("publisher"))
	// Warm up: two joins, so the publisher's description and code
	// caches are filled the way a long-lived publisher's are.
	h.reset()
	for i := int64(0); i < 2; i++ {
		h.begin()
		if err := j.joinOnce(h, i); err != nil {
			return fmt.Errorf("warm-up join: %w", err)
		}
	}
	if h.failed.Load() != 0 {
		return errors.New("warm-up join delivered wrong values")
	}
	return nil
}

// joinOnce runs one join, id naming its inputs; it records the op and
// returns an error only when the join could not run at all.
func (j *joinLoad) joinOnce(h *harness, id int64) error {
	in := &j.pool[id%joinPool]
	start := time.Now()
	root := h.tracer.begin("join.op", 0, id)
	// Room for every expected delivery and as many unexpected ones; a
	// handler never blocks on it, so a duplicate cannot wedge Close.
	got := make(chan bool, 2*joinK)

	sp := h.tracer.begin("join.build_peer", root, id)
	reg := registry.New()
	for _, v := range []interface{}{Order{}, fixtures.PersonA{}, fixtures.StockQuoteA{}, Reading{}} {
		if _, err := reg.Register(v); err != nil {
			return err
		}
	}
	p := transport.NewPeer(reg, transport.WithName("joiner"))
	var c *transport.Conn
	defer func() { j.retire(p, c) }()
	handlers := []struct {
		v  interface{}
		fn func(transport.Delivery) bool
	}{
		{Order{}, func(d transport.Delivery) bool {
			o, ok := d.Bound.(*Order)
			exp := in.expOrder
			exp.Seq = id
			return ok && sameOrder(o, &exp)
		}},
		{fixtures.PersonA{}, func(d transport.Delivery) bool {
			o, ok := d.Bound.(*fixtures.PersonA)
			exp := in.expPerson
			exp.Age = int(id)
			return ok && *o == exp
		}},
		{fixtures.StockQuoteA{}, func(d transport.Delivery) bool {
			o, ok := d.Bound.(*fixtures.StockQuoteA)
			exp := in.expQuote
			exp.Volume = int(id)
			return ok && *o == exp
		}},
		{Reading{}, func(d transport.Delivery) bool {
			o, ok := d.Bound.(*Reading)
			exp := in.expReading
			exp.At = id
			return ok && *o == exp
		}},
	}
	for _, hd := range handlers {
		fn := hd.fn
		deliver := func(d transport.Delivery) {
			select {
			case got <- fn(d):
			default:
			}
		}
		if err := p.OnReceive(hd.v, deliver); err != nil {
			return err
		}
	}
	h.tracer.end(sp, 1)

	sp = h.tracer.begin("join.connect", root, id)
	var err error
	if err = p.Listen("127.0.0.1:0"); err == nil {
		c, err = j.pub.Dial(p.Addr())
	}
	if err != nil {
		h.fail()
		return nil
	}
	h.tracer.end(sp, 1)

	sp = h.tracer.begin("join.send", root, id)
	o, pb, q, r := in.order, in.person, in.quote, in.reading
	o.OrderSeq, pb.PersonAge, q.StockVolume, r.TakenAt = id, int(id), int(id), id
	for _, v := range []interface{}{o, pb, q, r} {
		if err := j.pub.SendObject(c, v); err != nil {
			h.fail()
			return nil
		}
	}
	h.tracer.end(sp, 1)

	sp = h.tracer.begin("join.await", root, id)
	good := true
	timeout := time.NewTimer(joinDeadline)
	defer timeout.Stop()
	for k := 0; k < joinK; k++ {
		select {
		case ok := <-got:
			good = good && ok
		case <-timeout.C:
			h.fail()
			return nil
		case <-h.abort:
			return nil
		}
	}
	end := time.Now()
	h.tracer.end(sp, 1)
	h.tracer.end(root, 1)
	if good && len(got) == 0 {
		h.ok(end.Sub(start))
	} else {
		h.fail()
	}
	return nil
}

// retire closes a joiner and the publisher's connection to it, and
// keeps the joiner's counters.
func (j *joinLoad) retire(p *transport.Peer, c *transport.Conn) {
	if c != nil {
		_ = c.Close()
	}
	_ = p.Close()
	j.closed.addPeer(p)
}

func (j *joinLoad) run(h *harness) {
	for id := int64(joinPool); !h.stopping(); id++ {
		h.begin()
		if err := j.joinOnce(h, id); err != nil {
			h.fail()
		}
	}
}

func (j *joinLoad) totals() totals {
	t := j.closed
	t.addPeer(j.pub)
	return t
}

func (j *joinLoad) close() {
	if j.ledgerPeer != nil {
		_ = j.ledgerPeer.Close()
	}
	if j.pub != nil {
		_ = j.pub.Close()
	}
}

func (j *joinLoad) fixtures() *fixtureSet {
	fx := &fixtureSet{
		// The joiner registers its K types one after another; the K
		// deliveries then run side by side, so one type's first-contact
		// path is on the op's blocking path.
		path: map[string]float64{"registry.register": joinK, "xmlenc.desc_unmarshal": 1, "conform.check_cold": 1,
			"conform.plan": 1, "wire.compile": 1, "xmlenc.envelope_parse": 1, "proxy.mapping": 1,
			"wire.decode": 1, "proxy.invoker": 1},
		parallel:        joinK,
		freshCacheEvery: joinK,
	}
	for i := range j.pool {
		in := &j.pool[i]
		fx.add(in.order, Order{})
		fx.add(in.person, fixtures.PersonA{})
		fx.add(in.quote, fixtures.StockQuoteA{})
		fx.add(in.reading, Reading{})
	}
	// A type-info round trip over a publisher-subscriber connection:
	// the publisher asks a connected subscriber for its Order.
	fx.roundTrip = func() error {
		if j.ledgerConn == nil {
			reg := registry.New()
			e, err := reg.Register(Order{})
			if err != nil {
				return err
			}
			j.orderT = e.Description.Ref()
			j.ledgerPeer = transport.NewPeer(reg, transport.WithName("ledger-joiner"))
			if err := j.ledgerPeer.Listen("127.0.0.1:0"); err != nil {
				return err
			}
			if j.ledgerConn, err = j.pub.Dial(j.ledgerPeer.Addr()); err != nil {
				return err
			}
		}
		return typeInfoRoundTrip(j.ledgerConn, j.orderT)
	}
	return fx
}
