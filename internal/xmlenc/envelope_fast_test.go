package xmlenc

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// envEqual compares envelopes field-wise; payloads by content (the
// fast path reuses scratch storage, so nil-vs-empty differences in
// the slice headers are not meaningful).
func envEqual(a, b *Envelope) bool {
	return a.Type == b.Type && a.Encoding == b.Encoding &&
		bytes.Equal(a.Payload, b.Payload) &&
		reflect.DeepEqual(a.Assemblies, b.Assemblies)
}

// TestEnvelopeReaderMatchesUnmarshal pins the fast-path guarantee: a
// warmed EnvelopeReader and the reflective UnmarshalEnvelope agree on
// every document — template-shaped, reformatted, mutated, truncated.
func TestEnvelopeReaderMatchesUnmarshal(t *testing.T) {
	env := templateFixture()
	env.Payload = []byte("the payload bytes \x00\xff")
	doc, err := MarshalEnvelope(env)
	if err != nil {
		t.Fatal(err)
	}
	env.Encoding = EncodingSOAP
	docSOAP, err := MarshalEnvelope(env)
	if err != nil {
		t.Fatal(err)
	}
	env.Payload = nil
	docEmpty, err := MarshalEnvelope(env)
	if err != nil {
		t.Fatal(err)
	}
	// A semantically identical but differently formatted document
	// (payload chardata wrapped in whitespace): always the slow path.
	reformatted := bytes.Replace(doc,
		[]byte(`<Payload encoding="binary">`),
		[]byte("<Payload encoding=\"binary\">\n    "), 1)

	docs := [][]byte{
		doc, docSOAP, docEmpty, reformatted,
		doc[:len(doc)/2],
		[]byte("<Message></Message>"),
		nil,
	}
	for _, i := range []int{10, len(doc) / 2, len(doc) - 20} {
		m := append([]byte(nil), doc...)
		m[i] ^= 0x20
		docs = append(docs, m)
	}

	er := &EnvelopeReader{}
	var scratch []byte
	for round := 0; round < 3; round++ {
		for _, d := range docs {
			want, wantErr := UnmarshalEnvelope(d)
			var got *Envelope
			var gotErr error
			got, scratch, gotErr = er.Unmarshal(d, scratch)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("round %d doc %q: error mismatch reader=%v reflective=%v", round, d, gotErr, wantErr)
			}
			if wantErr != nil {
				if !errors.Is(gotErr, ErrMalformed) {
					t.Fatalf("round %d: reader error %v does not wrap ErrMalformed", round, gotErr)
				}
				continue
			}
			if !envEqual(got, want) {
				t.Fatalf("round %d doc %q:\n reader %+v\n reflective %+v", round, d, got, want)
			}
		}
	}
}

// TestEnvelopeReaderSteadyStateAllocs pins the receive-side template
// win: once the shape is learned, parsing another document of it
// allocates only the returned Envelope header.
func TestEnvelopeReaderSteadyStateAllocs(t *testing.T) {
	env := templateFixture()
	env.Payload = bytes.Repeat([]byte{0xAB}, 512)
	doc, err := MarshalEnvelope(env)
	if err != nil {
		t.Fatal(err)
	}
	er := &EnvelopeReader{}
	var scratch []byte
	for i := 0; i < 3; i++ { // learn the shape and size the scratch
		var e *Envelope
		e, scratch, err = er.Unmarshal(doc, scratch)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(e.Payload, env.Payload) {
			t.Fatal("payload mismatch")
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		e, s, err := er.Unmarshal(doc, scratch)
		if err != nil || len(e.Payload) != 512 {
			t.Fatal("bad fast-path parse")
		}
		scratch = s
	})
	if allocs > 1 {
		t.Errorf("steady-state envelope parse allocates %v times per op, want <= 1", allocs)
	}
}

// TestEnvelopeReaderManyShapes drives more distinct shapes than the
// cache holds: everything keeps parsing correctly, bounded memory.
func TestEnvelopeReaderManyShapes(t *testing.T) {
	er := &EnvelopeReader{}
	var scratch []byte
	for round := 0; round < 2; round++ {
		for i := 0; i < 2*maxEnvelopeShapes; i++ {
			env := templateFixture()
			env.Assemblies[0].DownloadPaths = []string{
				"http://host.example/" + strings.Repeat("x", i+1),
			}
			env.Payload = []byte{byte(i)}
			doc, err := MarshalEnvelope(env)
			if err != nil {
				t.Fatal(err)
			}
			var got *Envelope
			got, scratch, err = er.Unmarshal(doc, scratch)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Payload, []byte{byte(i)}) {
				t.Fatalf("shape %d round %d: payload %x", i, round, got.Payload)
			}
			if got.Assemblies[0].DownloadPaths[0] != env.Assemblies[0].DownloadPaths[0] {
				t.Fatalf("shape %d round %d: wrong metadata", i, round)
			}
		}
	}
	if len(er.shapes) > maxEnvelopeShapes {
		t.Fatalf("cache grew to %d shapes, bound is %d", len(er.shapes), maxEnvelopeShapes)
	}
}

// TestEnvelopeReaderConcurrentShapes decodes two alternating shapes
// from several goroutines on one reader, as a plain conn's concurrent
// handlers do. Under -race it pins that a fast-path hit never writes
// the shape cache that other decoders are scanning.
func TestEnvelopeReaderConcurrentShapes(t *testing.T) {
	binary := templateFixture()
	binary.Payload = []byte("binary payload")
	soap := templateFixture()
	soap.Encoding = EncodingSOAP
	soap.Payload = []byte("soap payload")
	var docs [2][]byte
	for i, env := range []*Envelope{binary, soap} {
		doc, err := MarshalEnvelope(env)
		if err != nil {
			t.Fatal(err)
		}
		docs[i] = doc
	}
	want := [2]*Envelope{binary, soap}

	er := &EnvelopeReader{}
	errs := make(chan error, 4)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var scratch []byte
			for i := 0; i < 500; i++ {
				k := (g + i) % 2
				var got *Envelope
				var err error
				got, scratch, err = er.Unmarshal(docs[k], scratch)
				if err != nil {
					errs <- err
					return
				}
				if !envEqual(got, want[k]) {
					errs <- fmt.Errorf("goroutine %d iteration %d: got %+v, want %+v", g, i, got, want[k])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
