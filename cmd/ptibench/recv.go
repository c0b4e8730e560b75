package main

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"pti"
	"pti/internal/conform"
	"pti/internal/proxy"
	"pti/internal/registry"
	"pti/internal/wire"
	"pti/internal/xmlenc"
)

// recvSubject is the receive-path benchmark shape: the same field mix
// the wire package's differential tests pin (strings, numbers, bools,
// bytes, slices, nested structs), heavy enough that decode cost is
// dominated by real materialization work.
type recvPoint struct {
	X, Y float64
}

type recvSubject struct {
	ID     uint64
	Name   string
	Active bool
	Score  float64
	Tags   []string
	Counts []int32
	Blob   []byte
	Origin recvPoint
	Path   []recvPoint
}

func recvSample() recvSubject {
	return recvSubject{
		ID:     77,
		Name:   "receive-path subject <&> 'quoted'",
		Active: true,
		Score:  3.25,
		Tags:   []string{"alpha", "beta", "gamma"},
		Counts: []int32{1, -2, 3, -4},
		Blob:   []byte{0, 1, 2, 0xfe, 0xff},
		Origin: recvPoint{X: 1.5, Y: -2.5},
		Path:   []recvPoint{{X: 0, Y: 0}, {X: 3, Y: -3}, {X: 9, Y: 9}},
	}
}

// recvSOAPFloor is the compiled SOAP decode's acceptance bar: it must
// beat the reflective pipeline by at least this factor. The other
// receive rows must merely not lose (>= 1x), timing-noise headroom
// without letting the compiled path silently fall behind.
const recvSOAPFloor = 2.0

// recvAllocBudget caps the warm end-to-end Unmarshal's allocations per
// call: the destination object's own, as the committed run measured.
const recvAllocBudget = 17

// expRecv measures the compiled receive path: per-codec compiled decode
// (the wire program materializing straight into the destination
// struct) against the reflective authority (generic value tree +
// ToGo), and the facade's end-to-end Unmarshal — envelope parse,
// conformance mapping and decode — warm, where the learned envelope
// shape and the compiled decoder leave only the destination object's
// allocations standing.
//
// Gates: both timings of every row are positive, the compiled path
// holds its speedup floor, and the end-to-end Unmarshal allocates no
// more than recvAllocBudget.
func expRecv(reps int, m metrics) error {
	iters := 2000 * reps
	sample := recvSample()
	typ := reflect.TypeOf(&recvSubject{})
	prog, err := wire.CompileProgram(reflect.TypeOf(recvSubject{}))
	if err != nil {
		return err
	}

	fmt.Printf("  %-18s %12s %12s %9s %8s\n",
		"row", "compiled", "reflective", "speedup", "allocs")

	for _, codec := range []wire.Codec{wire.SOAP{}, wire.Binary{}} {
		data, err := codec.Encode(sample)
		if err != nil {
			return err
		}
		// One checked round: the fast path must engage and agree with
		// the reflective decode before its timing means anything.
		out, ok := codec.DecodeObjectFast(prog, data, typ, nil, "bench", "recvSubject")
		if !ok {
			return fmt.Errorf("%s: compiled decode did not engage", codec.Name())
		}
		if got := out.(*recvSubject); !reflect.DeepEqual(*got, sample) {
			return fmt.Errorf("%s: compiled decode diverged: %+v", codec.Name(), got)
		}
		compiled := measure(reps, iters, func() {
			codec.DecodeObjectFast(prog, data, typ, nil, "bench", "recvSubject")
		})
		reflective := measure(reps, iters, func() {
			gv, err := codec.DecodeGeneric(data)
			if err != nil {
				panic(err)
			}
			if _, err := wire.ToGo(gv.(*wire.Object), typ, nil); err != nil {
				panic(err)
			}
		})
		recvRow(m, codec.Name()+"-decode", compiled, reflective, "")
	}

	// End to end through the facade: compiled Unmarshal (warm caches)
	// vs the reflective pipeline it falls back to.
	rt := pti.New()
	if err := rt.Register(recvSubject{}); err != nil {
		return err
	}
	envData, err := rt.Marshal(sample)
	if err != nil {
		return err
	}
	var expected interface{} = recvSubject{}
	for i := 0; i < 4; i++ { // warm the envelope shape + compiled caches
		if _, _, err := rt.Unmarshal(envData, expected); err != nil {
			return err
		}
	}
	compiled := measure(reps, iters, func() {
		if _, _, err := rt.Unmarshal(envData, expected); err != nil {
			panic(err)
		}
	})
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, err := rt.Unmarshal(envData, expected); err != nil {
			panic(err)
		}
	})

	reg := registry.New()
	entry, err := reg.Register(recvSubject{})
	if err != nil {
		return err
	}
	binder := proxy.NewBinder(reg, conform.New(reg, conform.WithPolicy(conform.Relaxed(1))))
	reflective := measure(reps, iters, func() {
		env, err := xmlenc.UnmarshalEnvelope(envData)
		if err != nil {
			panic(err)
		}
		codec, err := wire.ByName(string(env.Encoding))
		if err != nil {
			panic(err)
		}
		gv, err := codec.DecodeGeneric(env.Payload)
		if err != nil {
			panic(err)
		}
		if _, _, err := binder.Bind(gv.(*wire.Object), entry.Description.Ref()); err != nil {
			panic(err)
		}
	})
	recvRow(m, "unmarshal-e2e", compiled, reflective, fmt.Sprintf("%8.1f", allocs))
	m.add("unmarshal-e2e", "allocs_per_op", allocs, "allocs", is("<=", recvAllocBudget))
	return nil
}

// recvRow records and prints one compiled-vs-reflective row.
func recvRow(m metrics, name string, compiled, reflective time.Duration, note string) {
	c, r := float64(compiled.Nanoseconds()), float64(reflective.Nanoseconds())
	speedup := 0.0
	if c > 0 {
		speedup = r / c
	}
	floor := 1.0
	if name == "soap-decode" {
		floor = recvSOAPFloor
	}
	m.add(name, "compiled_ns", c, "ns", is(">", 0))
	m.add(name, "reflective_ns", r, "ns", is(">", 0))
	m.add(name, "speedup", speedup, "ratio", is(">=", floor))
	fmt.Printf("  %-18s %12s %12s %8.1fx %s\n", name, fmtDur(compiled), fmtDur(reflective), speedup, note)
}
