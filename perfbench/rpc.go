package main

import (
	"fmt"
	"sync"
	"time"

	"pti/internal/registry"
	"pti/internal/transport"
	"pti/internal/wire"
)

// rpc: rpcCallers callers, each on its own loopback-TCP connection,
// making synchronous RemoteRef.Calls on an exported PriceDesk with zero
// service time. Calls alternate between a permuted-argument method
// (the Swapped/Swappee shape) and one that returns an object. The conn
// layer is the same as stream's, used as request/reply.
const (
	rpcCallers = 2
	rpcPool    = 64 // distinct argument sets, cycled
)

type rpcArgs struct {
	label    string
	count    int
	combined string // what Combine must return
	sku      string
	quantity int
	quote    LineItem // what Quote must return, in the caller's vocabulary
}

type rpcCaller struct {
	peer *transport.Peer
	conn *transport.Conn
	ref  *transport.RemoteRef
}

type rpcLoad struct {
	pool    []rpcArgs
	server  *transport.Peer
	callers []*rpcCaller
	deskT   typeRef
}

func (r *rpcLoad) network() string { return "loopback-tcp" }

func (r *rpcLoad) setup(h *harness) error {
	for i := 0; i < rpcPool; i++ {
		a := rpcArgs{label: h.gen.word(12), count: h.gen.rng.Intn(100000)}
		a.combined = fmt.Sprintf("%s#%d", a.label, a.count)
		a.sku, a.quantity = h.gen.word(12), 1+h.gen.rng.Intn(99)
		a.quote = LineItem{Sku: a.sku, Quantity: a.quantity, Price: quotePrice(a.quantity)}
		r.pool = append(r.pool, a)
	}
	reg := registry.New()
	e, err := reg.Register(PriceDesk{})
	if err != nil {
		return err
	}
	r.deskT = e.Description.Ref()
	if _, err := reg.Register(OrderLineItem{}); err != nil {
		return err
	}
	r.server = transport.NewPeer(reg, transport.WithName("desk-server"))
	if err := r.server.Export("desk", &PriceDesk{}); err != nil {
		return err
	}
	if err := r.server.Listen("127.0.0.1:0"); err != nil {
		return err
	}
	for i := 0; i < rpcCallers; i++ {
		creg := registry.New()
		for _, v := range []interface{}{Desk{}, LineItem{}} {
			if _, err := creg.Register(v); err != nil {
				return err
			}
		}
		c := &rpcCaller{peer: transport.NewPeer(creg, transport.WithName(fmt.Sprintf("caller%d", i)))}
		r.callers = append(r.callers, c)
		if c.conn, err = c.peer.Dial(r.server.Addr()); err != nil {
			return err
		}
		if c.ref, err = c.peer.Remote(c.conn, "desk", Desk{}); err != nil {
			return err
		}
	}
	// Warm up: every argument set once per caller, both methods.
	h.reset()
	for _, c := range r.callers {
		for k := int64(0); k < 2*rpcPool; k++ {
			h.begin()
			r.call(h, c, k, k)
		}
	}
	if h.failed.Load() != 0 {
		return fmt.Errorf("warm-up: %d of %d calls failed", h.failed.Load(), h.attempted.Load())
	}
	return nil
}

// call makes a caller's k-th call, traced as op id: even k call
// Combine, odd k Quote, with argument set k/2.
func (r *rpcLoad) call(h *harness, c *rpcCaller, k, id int64) {
	a := &r.pool[(k/2)%rpcPool]
	start := time.Now()
	root := h.tracer.begin("rpc.op", 0, id)
	var good bool
	if k%2 == 0 {
		sp := h.tracer.begin("transport.RemoteRef.Call", root, id)
		out, err := c.ref.Call("Combine", a.count, a.label)
		h.tracer.end(sp, 1)
		good = err == nil && len(out) == 1 && out[0] == a.combined
	} else {
		sp := h.tracer.begin("transport.RemoteRef.Call", root, id)
		out, err := c.ref.Call("Quote", a.quantity, a.sku)
		h.tracer.end(sp, 1)
		good = err == nil && len(out) == 1 && sameQuote(out[0], a)
	}
	end := time.Now()
	h.tracer.end(root, 1)
	if good {
		h.ok(end.Sub(start))
	} else {
		h.fail()
	}
}

// sameQuote checks a Quote result against its expectation. The result
// is the server's OrderLineItem; the caller reads it by its LineItem
// member names, whether it arrives bound or as a generic object.
func sameQuote(v interface{}, a *rpcArgs) bool {
	want := a.quote
	switch got := v.(type) {
	case *LineItem:
		return *got == want
	case LineItem:
		return got == want
	case *wire.Object:
		sku, _ := got.Field("Sku")
		qty, _ := got.Field("Quantity")
		price, _ := got.Field("Price")
		return sku == want.Sku && toInt(qty) == int64(want.Quantity) && price == want.Price
	}
	return false
}

func toInt(v wire.Value) int64 {
	switch n := v.(type) {
	case int:
		return int64(n)
	case int64:
		return n
	case int32:
		return int64(n)
	}
	return -1
}

func (r *rpcLoad) run(h *harness) {
	var wg sync.WaitGroup
	for i, c := range r.callers {
		wg.Add(1)
		go func(i int, c *rpcCaller) {
			defer wg.Done()
			for k := int64(0); !h.stopping(); k++ {
				h.begin()
				r.call(h, c, k, k*rpcCallers+int64(i))
			}
		}(i, c)
	}
	wg.Wait()
}

func (r *rpcLoad) totals() totals {
	var t totals
	t.addPeer(r.server)
	for _, c := range r.callers {
		t.addPeer(c.peer)
	}
	return t
}

func (r *rpcLoad) close() {
	for _, c := range r.callers {
		_ = c.peer.Close()
	}
	if r.server != nil {
		_ = r.server.Close()
	}
}

func (r *rpcLoad) fixtures() *fixtureSet {
	fx := &fixtureSet{
		// Request and reply each cross the frame layer once.
		path: map[string]float64{"proxy.call": 1, "transport.frame_write": 2, "transport.frame_read": 2,
			"wire.encode": 1, "wire.decode": 1},
	}
	for i := range r.pool {
		a := &r.pool[i]
		fx.add(OrderLineItem{Sku: a.sku, Quantity: a.quantity, Price: a.quote.Price}, LineItem{})
	}
	c := r.callers[0]
	fx.roundTrip = func() error { return typeInfoRoundTrip(c.conn, r.deskT) }
	return fx
}
