package main

import (
	"fmt"
	"time"

	"pti/internal/registry"
	"pti/internal/transport"
)

// The nested-rename probe: a record whose nested types rename their
// members too. Conformance accepts it (the nested types are matched by
// name only, since the receiver never fetches their descriptions), but
// the delivered value loses the renamed nested members. The workloads'
// records keep nested member names equal, so fail_ratio cannot see the
// defect; every run therefore sends the probe record once and prints
// the count of lost members next to fail_ratio.

// ParcelRecord is the probe record in the sender's vocabulary.
type ParcelRecord struct {
	RecordSeq   int64
	RecordLines []ParcelLine
	RecordPlace ParcelPlace
}

// ParcelLine renames its members relative to Line.
type ParcelLine struct {
	LineSku      string
	LineQuantity int
}

// ParcelPlace renames its members relative to Place.
type ParcelPlace struct {
	PlaceCity string
	PlaceCode string
}

// Record is ParcelRecord in the receiver's vocabulary.
type Record struct {
	Lines []Line
	Place Place
	Seq   int64
}

// Line is ParcelLine in the receiver's vocabulary.
type Line struct {
	Quantity int
	Sku      string
}

// Place is ParcelPlace in the receiver's vocabulary.
type Place struct {
	Code string
	City string
}

// nestedRenameProbe sends one ParcelRecord over an in-memory pipe and
// returns how many of its renamed nested members arrived wrong, and how
// many it sent.
func nestedRenameProbe() (lost, total int, err error) {
	regS, regR := registry.New(), registry.New()
	if _, err := regS.Register(ParcelRecord{}); err != nil {
		return 0, 0, err
	}
	if _, err := regR.Register(Record{}); err != nil {
		return 0, 0, err
	}
	send, recv := transport.NewPeer(regS), transport.NewPeer(regR)
	defer send.Close()
	defer recv.Close()
	got := make(chan *Record, 1)
	if err := recv.OnReceive(Record{}, func(d transport.Delivery) {
		if r, ok := d.Bound.(*Record); ok {
			got <- r
		}
	}); err != nil {
		return 0, 0, err
	}
	c, _ := transport.Connect(send, recv)
	in := ParcelRecord{
		RecordSeq:   1,
		RecordLines: []ParcelLine{{"sku-a", 2}, {"sku-b", 3}, {"sku-c", 5}},
		RecordPlace: ParcelPlace{PlaceCity: "lausanne", PlaceCode: "1015"},
	}
	if err := send.SendObject(c, in); err != nil {
		return 0, 0, err
	}
	var r *Record
	select {
	case r = <-got:
	case <-time.After(5 * time.Second):
		return 0, 0, fmt.Errorf("probe record not delivered")
	}
	if r.Seq != in.RecordSeq || len(r.Lines) != len(in.RecordLines) {
		return 0, 0, fmt.Errorf("probe record lost its top-level members: %+v", r)
	}
	total = 2*len(in.RecordLines) + 2
	for i, l := range in.RecordLines {
		if r.Lines[i].Sku != l.LineSku {
			lost++
		}
		if r.Lines[i].Quantity != l.LineQuantity {
			lost++
		}
	}
	if r.Place.City != in.RecordPlace.PlaceCity {
		lost++
	}
	if r.Place.Code != in.RecordPlace.PlaceCode {
		lost++
	}
	return lost, total, nil
}
