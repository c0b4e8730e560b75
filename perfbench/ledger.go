package main

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"time"

	"pti/internal/conform"
	"pti/internal/proxy"
	"pti/internal/registry"
	"pti/internal/tps"
	"pti/internal/transport"
	"pti/internal/typedesc"
	"pti/internal/wire"
	"pti/internal/xmlenc"
)

type typeRef = typedesc.TypeRef

// fixtureSet is what the ledger needs from a workload: its inputs in
// the workload's own mix, and the shape of one op.
type fixtureSet struct {
	mix []fixture
	// path maps each ledger span on one op's blocking path to how
	// many times the op waits for it; the summed self times are what
	// transport.unattributed_us subtracts from the op's p50.
	path map[string]float64
	// parallel is how many deliveries of one op run at once (join's K
	// types), so their round trips overlap.
	parallel int
	// freshCacheEvery, when set, replays the conformance checks with a
	// new cache every that many inputs, as join's fresh subscriber
	// peers do; otherwise one cache serves the whole mix.
	freshCacheEvery int
	// roundTrip performs one type-info request/reply on a live
	// connection of the workload.
	roundTrip func() error
}

// fixture is one input: a sender-vocabulary value and a zero value of
// the receiver type it is delivered as.
type fixture struct{ src, dst interface{} }

func (fx *fixtureSet) add(src, dst interface{}) { fx.mix = append(fx.mix, fixture{src, dst}) }

// typeInfoRoundTrip asks the peer at the other end of c for the
// description of ref, as a receiver does on first contact.
func typeInfoRoundTrip(c transport.Link, ref typeRef) error {
	// The request body is the protocol's type-ref encoding: name, NUL,
	// identity.
	_, err := c.Request(transport.MsgTypeInfoRequest, []byte(ref.Name+"\x00"+ref.Identity.String()))
	return err
}

// captureLink is a Link that keeps the last message sent through it:
// the ledger times SendObject without a network behind it.
type captureLink struct{ last *transport.Message }

func (c *captureLink) Send(m *transport.Message) error { c.last = m; return nil }
func (c *captureLink) Request(transport.MsgType, []byte) (*transport.Message, error) {
	return nil, errors.New("capture link: no peer")
}
func (c *captureLink) Close() error { return nil }

// ledgerPair is everything the ledger calls for one (sender type,
// receiver type) pair, built the way a receiving peer builds it: the
// receiver knows only the sender's root description.
type ledgerPair struct {
	srcT, dstT       reflect.Type
	srcDesc, dstDesc *typedesc.TypeDescription
	srcProg, dstProg *wire.Program
	tpl              *xmlenc.EnvelopeTemplate
	descXML          []byte
	resolver         typedesc.Resolver
	checker          *conform.Checker
	binder           *proxy.Binder
	plan             *conform.Plan
	broker           *tps.Broker
	fp               string
}

// ledger holds the ledger's own peers and fixtures.
type ledger struct {
	fx      *fixtureSet
	pairs   map[[2]reflect.Type]*ledgerPair
	regS    *registry.Registry
	send    *transport.Peer
	comp    *transport.Peer
	capture captureLink
	desk    *proxy.Invoker
}

var policy = conform.Relaxed(1) // the peers' default policy

func newLedger(fx *fixtureSet) (*ledger, error) {
	l := &ledger{fx: fx, pairs: make(map[[2]reflect.Type]*ledgerPair), regS: registry.New()}
	regR := registry.New()
	for _, f := range fx.mix {
		key := [2]reflect.Type{reflect.TypeOf(f.src), reflect.TypeOf(f.dst)}
		if l.pairs[key] != nil {
			continue
		}
		lp := &ledgerPair{srcT: key[0], dstT: key[1]}
		se, err := l.regS.Register(f.src)
		if err != nil {
			return nil, err
		}
		de, err := regR.Register(f.dst)
		if err != nil {
			return nil, err
		}
		lp.srcDesc, lp.dstDesc = se.Description, de.Description
		if lp.srcProg, err = se.Program(); err != nil {
			return nil, err
		}
		if lp.dstProg, err = de.Program(); err != nil {
			return nil, err
		}
		if lp.tpl, err = se.EnvelopeTemplate(xmlenc.PayloadEncoding(wire.Binary{}.Name()), l.regS); err != nil {
			return nil, err
		}
		if lp.descXML, err = se.DescriptionXML(); err != nil {
			return nil, err
		}
		remote := typedesc.NewRepository()
		if err := remote.Add(lp.srcDesc); err != nil {
			return nil, err
		}
		lp.resolver = typedesc.MultiResolver{regR, remote}
		lp.checker = conform.New(lp.resolver, conform.WithPolicy(policy), conform.WithCache(conform.NewCache()))
		lp.binder = proxy.NewBinder(regR, lp.checker)
		if lp.plan, err = de.PlanFor(nil); err != nil {
			return nil, err
		}
		lp.broker = tps.NewBroker(regR)
		if _, err := lp.broker.Subscribe(f.dst, func(tps.Event) {}); err != nil {
			return nil, err
		}
		lp.fp = fmt.Sprintf("ledger-%p", lp)
		l.pairs[key] = lp
	}
	l.send = transport.NewPeer(l.regS)
	l.comp = transport.NewPeer(l.regS, transport.WithCompression())

	// The rpc shape: Desk's Combine maps to PriceDesk's with the two
	// parameters swapped.
	cand, err := typedesc.Describe(reflect.TypeOf(PriceDesk{}))
	if err != nil {
		return nil, err
	}
	exp, err := typedesc.Describe(reflect.TypeOf(Desk{}))
	if err != nil {
		return nil, err
	}
	r, err := conform.New(nil, conform.WithPolicy(policy)).Check(cand, exp)
	if err != nil {
		return nil, err
	}
	if !r.Conformant {
		return nil, fmt.Errorf("PriceDesk does not conform to Desk: %s", r.Reason)
	}
	if l.desk, err = proxy.NewInvoker(&PriceDesk{}, r.Mapping); err != nil {
		return nil, err
	}
	return l, nil
}

func (l *ledger) close() {
	_ = l.send.Close()
	_ = l.comp.Close()
}

// ledgerResult is what one ledger run measured besides its spans.
type ledgerResult struct {
	payload, envelope, desc []float64 // bytes per op
	sendAlloc, compAlloc    []float64 // bytes per call
	stepSums                []float64 // ns per ledger op, over fx.path
	hitRatio                float64
}

// run times the ledger's calls on the workload's mix for d, one ledger
// op per input, every call inside a span under the op's root span.
func (l *ledger) run(tr *tracer, d time.Duration) (*ledgerResult, error) {
	res := &ledgerResult{}
	var (
		payload, env, scratch []byte
		frame                 bytes.Buffer
		rd                    bytes.Reader
		er                    xmlenc.EnvelopeReader
	)
	deadline := time.Now().Add(d)
	for op := int64(1); ; op++ {
		f := l.fx.mix[int(op-1)%len(l.fx.mix)]
		lp := l.pairs[[2]reflect.Type{reflect.TypeOf(f.src), reflect.TypeOf(f.dst)}]
		root := tr.begin("ledger.op", 0, op)
		var err error
		timed := func(name string, n int, fn func()) {
			id := tr.begin(name, root, op)
			for i := 0; i < n; i++ {
				fn()
			}
			tr.end(id, n)
		}
		check := func(e error) {
			if e != nil && err == nil {
				err = e
			}
		}
		srcRef := lp.srcDesc.Ref()

		// The warm path, in the order a delivery takes it.
		timed("wire.encode", 8, func() {
			var e error
			payload, e = wire.Binary{}.EncodeCompiled(lp.srcProg, payload[:0], f.src)
			check(e)
		})
		timed("xmlenc.envelope_append", 8, func() { env = lp.tpl.Append(env[:0], payload) })
		msg := &transport.Message{Type: transport.MsgObject, Body: env}
		timed("transport.frame_write", 8, func() {
			frame.Reset()
			_, e := transport.WriteMessage(&frame, msg)
			check(e)
		})
		timed("transport.frame_read", 8, func() {
			rd.Reset(frame.Bytes())
			_, _, e := transport.ReadMessage(&rd)
			check(e)
		})
		var parsed *xmlenc.Envelope
		timed("xmlenc.envelope_parse", 8, func() {
			var e error
			parsed, scratch, e = er.Unmarshal(env, scratch)
			check(e)
		})
		timed("registry.lookup", 64, func() {
			if _, ok := l.regS.LookupGo(lp.srcT); !ok {
				check(fmt.Errorf("lookup %s: not registered", lp.srcT))
			}
		})
		timed("conform.check_cached", 64, func() {
			r, e := lp.checker.Check(lp.srcDesc, lp.dstDesc)
			check(e)
			if e == nil && !r.Conformant {
				check(fmt.Errorf("%s does not conform to %s: %s", lp.srcT, lp.dstT, r.Reason))
			}
		})
		timed("proxy.mapping", 64, func() {
			_, e := lp.binder.MappingRef(srcRef, lp.dstDesc)
			check(e)
		})
		var bound interface{}
		timed("wire.decode", 8, func() {
			var ok bool
			bound, ok = wire.Binary{}.DecodeObjectFast(lp.dstProg, parsed.Payload, reflect.PtrTo(lp.dstT),
				lp.binder.FieldResolverFor(srcRef), lp.fp, srcRef.Name)
			if !ok {
				check(fmt.Errorf("compiled decode of %s as %s did not engage", lp.srcT, lp.dstT))
			}
		})
		if err != nil {
			tr.end(root, 1)
			return nil, err
		}
		timed("proxy.invoker", 16, func() {
			_, e := proxy.NewInvokerWithPlan(bound, nil, lp.plan)
			check(e)
		})
		res.sendAlloc = append(res.sendAlloc, timedAlloc(timed, "transport.send", 8, func() {
			check(l.send.SendObject(&l.capture, f.src))
		}))
		res.compAlloc = append(res.compAlloc, timedAlloc(timed, "transport.send_compressed", 4, func() {
			check(l.comp.SendObject(&l.capture, f.src))
		}))
		timed("tps.publish", 8, func() {
			n, e := lp.broker.Publish(bound)
			check(e)
			if e == nil && n != 1 {
				check(fmt.Errorf("tps: published %s to %d subscribers, want 1", lp.dstT, n))
			}
		})
		timed("proxy.call", 16, func() {
			out, e := l.desk.Call("Combine", 7, "desk")
			check(e)
			if e == nil && (len(out) != 1 || out[0] != "desk#7") {
				check(fmt.Errorf("Desk.Combine(7, desk) = %v, want [desk#7]", out))
			}
		})

		// First contact: what a fresh subscriber does per type.
		timed("typedesc.describe", 1, func() {
			_, e := typedesc.Describe(lp.srcT)
			check(e)
		})
		timed("registry.register", 1, func() {
			_, e := registry.New().Register(f.dst)
			check(e)
		})
		timed("xmlenc.desc_marshal", 1, func() {
			_, e := xmlenc.MarshalDescription(lp.srcDesc)
			check(e)
		})
		timed("xmlenc.desc_unmarshal", 1, func() {
			_, e := xmlenc.UnmarshalDescription(lp.descXML)
			check(e)
		})
		timed("conform.check_cold", 1, func() {
			c := conform.New(lp.resolver, conform.WithPolicy(policy), conform.WithCache(conform.NewCache()))
			_, e := c.Check(lp.srcDesc, lp.dstDesc)
			check(e)
		})
		cold := conform.New(lp.resolver, conform.WithPolicy(policy), conform.WithCache(conform.NewCache()))
		r, e := cold.Check(lp.srcDesc, lp.dstDesc)
		check(e)
		if e == nil {
			timed("conform.plan", 1, func() {
				_, e := cold.PlanFor(r, conform.PlanTargetOf(f.src))
				check(e)
			})
		}
		timed("wire.compile", 1, func() {
			_, e := wire.CompileProgram(lp.dstT)
			check(e)
		})
		if l.fx.roundTrip != nil && op <= 256 {
			timed("transport.fetch", 1, func() { check(l.fx.roundTrip()) })
		}
		tr.end(root, 1)
		if err != nil {
			return nil, err
		}

		res.payload = append(res.payload, float64(len(payload)))
		res.envelope = append(res.envelope, float64(len(env)))
		res.desc = append(res.desc, float64(len(lp.descXML)))
		if time.Now().After(deadline) && op >= int64(len(l.fx.mix)) {
			break
		}
	}
	res.hitRatio = l.replayHitRatio()
	return res, nil
}

// timedAlloc runs a timed batch and returns the heap bytes allocated
// per call. Nothing else runs while the ledger does.
func timedAlloc(timed func(string, int, func()), name string, n int, fn func()) float64 {
	before := allocBytes()
	timed(name, n, fn)
	return float64(allocBytes()-before) / float64(n)
}

// replayHitRatio replays the workload's conformance checks, one per
// input in mix order, on a cache shaped like the workload's peers'
// (long-lived, or fresh per op), and returns Cache.Stats' hit ratio.
func (l *ledger) replayHitRatio() float64 {
	var hits, misses uint64
	var cache *conform.Cache
	for i, f := range l.fx.mix {
		if cache == nil || (l.fx.freshCacheEvery > 0 && i%l.fx.freshCacheEvery == 0) {
			if cache != nil {
				h, m := cache.Stats()
				hits, misses = hits+h, misses+m
			}
			cache = conform.NewCache()
		}
		lp := l.pairs[[2]reflect.Type{reflect.TypeOf(f.src), reflect.TypeOf(f.dst)}]
		c := conform.New(lp.resolver, conform.WithPolicy(policy), conform.WithCache(cache))
		_, _ = c.Check(lp.srcDesc, lp.dstDesc)
	}
	if cache != nil {
		h, m := cache.Stats()
		hits, misses = hits+h, misses+m
	}
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// layerMetrics runs the ledger and derives every per-layer metric from
// its spans, the run's counters and both measured phases.
func layerMetrics(cfg runConfig, w workload, h *harness, plain, traced *phase, d time.Duration, lost int) (map[string]metricValue, error) {
	fx := w.fixtures()
	l, err := newLedger(fx)
	if err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	defer l.close()
	lr, err := l.run(h.tracer, d)
	if err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	spans := h.tracer.snapshot()
	if err := writeSpans(filepath.Join(cfg.dir, "spans.jsonl"), spans); err != nil {
		return nil, err
	}
	self := medianSelf(spans)

	// Step sums per ledger op, from the same spans.
	perCall := selfTimes(spans)
	sums := make(map[int64]float64)
	for _, s := range spans {
		if k := fx.path[s.Name]; k > 0 && s.Parent > 0 {
			sums[s.Parent] += k * perCall[s.ID]
		}
	}
	for _, v := range sums {
		lr.stepSums = append(lr.stepSums, v)
	}

	ops := plain.ops()
	c := plain.after.sub(plain.before)
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	rtt := self["transport.fetch"]
	fetchWait := rtt * float64(c.TypeInfoRequests+c.CodeRequests) / ops / float64(max(fx.parallel, 1))
	p50 := plain.stats().p50
	tracedP50 := traced.stats().p50
	unattributed := p50 - median(lr.stepSums) - fetchWait

	vals := map[string]float64{
		"wire.encode_ns":                        self["wire.encode"],
		"wire.decode_ns":                        self["wire.decode"],
		"wire.payload_bytes":                    median(lr.payload),
		"wire.compiled_ratio":                   ratio(c.CompiledDeliveries, c.ObjectsDelivered),
		"wire.compile_ns":                       self["wire.compile"],
		"xmlenc.envelope_append_ns":             self["xmlenc.envelope_append"],
		"xmlenc.envelope_parse_ns":              self["xmlenc.envelope_parse"],
		"xmlenc.envelope_bytes":                 median(lr.envelope),
		"xmlenc.desc_marshal_ns":                self["xmlenc.desc_marshal"],
		"xmlenc.desc_unmarshal_ns":              self["xmlenc.desc_unmarshal"],
		"xmlenc.desc_bytes":                     median(lr.desc),
		"typedesc.describe_ns":                  self["typedesc.describe"],
		"registry.register_ns":                  self["registry.register"],
		"registry.lookup_ns":                    self["registry.lookup"],
		"conform.check_cold_ns":                 self["conform.check_cold"],
		"conform.plan_ns":                       self["conform.plan"],
		"conform.check_cached_ns":               self["conform.check_cached"],
		"conform.cache_hit_ratio":               lr.hitRatio,
		"proxy.mapping_ns":                      self["proxy.mapping"],
		"proxy.invoker_ns":                      self["proxy.invoker"],
		"proxy.call_ns":                         self["proxy.call"],
		"transport.send_ns":                     self["transport.send"],
		"transport.send_alloc_bytes":            median(lr.sendAlloc),
		"transport.send_compressed_ns":          self["transport.send_compressed"],
		"transport.send_compressed_alloc_bytes": median(lr.compAlloc),
		"transport.frame_write_ns":              self["transport.frame_write"],
		"transport.frame_read_ns":               self["transport.frame_read"],
		"transport.unattributed_us":             unattributed / 1e3,
		"transport.typeinfo_per_join":           float64(c.TypeInfoRequests) / ops,
		"transport.code_per_join":               float64(c.CodeRequests) / ops,
		"transport.desc_hit_ratio":              ratio(c.DescriptorHits, c.DescriptorHits+c.TypeInfoRequests),
		"transport.fetch_wait_us":               fetchWait / 1e3,
		"transport.dropped":                     float64(c.ObjectsDropped),
		"transport.invokes":                     float64(c.Invokes),
		"transport.invoke_shed_ratio":           ratio(c.InvokesShed, c.Invokes),
		"transport.nested_rename_lost_fields":   float64(lost),
		"reliable.data_frames":                  float64(c.RelDataSent),
		"reliable.retransmits":                  float64(c.RelRetransmits),
		"reliable.fast_retransmits":             float64(c.RelFastRetransmits),
		"reliable.nacks":                        float64(c.RelNacksSent),
		"reliable.deduped":                      float64(c.RelDeduped),
		"reliable.acks":                         float64(c.RelAcksReceived),
		"reliable.useful_ratio":                 ratio(c.RelDataSent, c.RelDataSent+c.RelRetransmits+c.RelFastRetransmits),
		"fabric.frames_dropped":                 float64(c.FramesDropped),
		"fabric.frames_duplicated":              float64(c.FramesDuplicated),
		"fabric.frames_reordered":               float64(c.FramesReordered),
		"fabric.heap_ops_per_frame":             ratio(c.SchedHeapOps, c.SchedFrames),
		"fabric.clock_ms_per_op":                float64(c.Clock.Microseconds()) / 1e3 / ops,
		"tps.publish_ns":                        self["tps.publish"],
		"tps.delivered":                         float64(c.TPSDelivered),
		"tps.dropped":                           float64(c.TPSDropped),
		"runtime.gc_cycles_per_kop":             float64(plain.gcCycles) * 1000 / ops,
		"runtime.goroutines_peak":               float64(plain.peakG),
		"trace.latency_p50_us":                  tracedP50 / 1e3,
		"trace.overhead_us":                     (tracedP50 - p50) / 1e3,
		"fail_ratio":                            float64(plain.failed+traced.failed) / float64(max(plain.attempted+traced.attempted, 1)),
	}
	if g, ok := w.(interface{ gauges() map[string]float64 }); ok {
		for k, v := range g.gauges() {
			vals[k] = v
		}
	}
	out := make(map[string]metricValue, len(layerList))
	for _, m := range layerList {
		out[m.name] = metricValue{vals[m.name], m.unit}
	}
	return out, nil
}
