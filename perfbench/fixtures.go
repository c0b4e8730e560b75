package main

import (
	"fmt"
	"math/rand"

	"pti/internal/fixtures"
)

// The benchmark's records come in two vocabularies, as in the paper's
// Person example: the sender registers one, the receiver registers an
// independently written one, and conformance maps between them.
//
// The large record renames and reorders its top-level members and
// carries slices, a map and nested structs. The nested types are
// renamed too, but their members keep their names: the receiver only
// ever fetches the root description, so a renamed nested member has
// nothing to map it (see nestedRenameProbe, which every run sends once
// and reports next to fail_ratio, instead of failing every large
// delivery on it).

// ShipmentOrder is the large record in the sender's vocabulary.
type ShipmentOrder struct {
	OrderSeq     int64
	CustomerName string
	OrderLines   []OrderLineItem
	ShipAddress  PostalAddress
	OrderLabels  map[string]int
	OrderNotes   []string
	OrderTotal   float64
	Expedited    bool
}

// OrderLineItem is one line of a ShipmentOrder.
type OrderLineItem struct {
	Sku      string
	Quantity int
	Price    float64
}

// PostalAddress is the sender's address type.
type PostalAddress struct {
	Street string
	City   string
	Code   string
}

// Order is the large record in the receiver's vocabulary.
type Order struct {
	Total     float64
	Lines     []LineItem
	Seq       int64
	Customer  string
	Notes     []string
	Labels    map[string]int
	Address   Address
	Expedited bool
}

// LineItem is the receiver's line type.
type LineItem struct {
	Price    float64
	Sku      string
	Quantity int
}

// Address is the receiver's address type.
type Address struct {
	City   string
	Code   string
	Street string
}

// SensorReading is a small record in the sender's vocabulary; join
// uses it as its fourth type.
type SensorReading struct {
	SensorName   string
	ReadingValue float64
	ReadingUnit  string
	TakenAt      int64
}

// Reading is SensorReading in the receiver's vocabulary.
type Reading struct {
	Unit  string
	Value float64
	Name  string
	At    int64
}

// PriceDesk is the object the rpc server exports, in the server's
// vocabulary.
type PriceDesk struct{}

// Combine has the Swapped shape: the caller declares the parameters in
// the other order.
func (PriceDesk) Combine(label string, count int) string {
	return fmt.Sprintf("%s#%d", label, count)
}

// QuoteLine returns an object.
func (PriceDesk) QuoteLine(sku string, quantity int) OrderLineItem {
	return OrderLineItem{Sku: sku, Quantity: quantity, Price: quotePrice(quantity)}
}

func quotePrice(quantity int) float64 { return float64(quantity) * 1.25 }

// Desk is the caller's expected type for the exported PriceDesk: the
// same methods with renamed names and permuted parameters.
type Desk struct{}

// Combine is the Swappee shape of PriceDesk.Combine.
func (Desk) Combine(count int, label string) string { return "" }

// Quote maps to PriceDesk.QuoteLine with permuted parameters.
func (Desk) Quote(quantity int, sku string) LineItem { return LineItem{} }

// gen draws every input of a run from the workload seed.
type gen struct {
	seed int64
	rng  *rand.Rand
}

func newGen(seed int64) *gen { return &gen{seed: seed, rng: rand.New(rand.NewSource(seed))} }

const letters = "abcdefghijklmnopqrstuvwxyz"

// word returns a string of exactly n seeded letters, so record sizes
// do not depend on the seed.
func (g *gen) word(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = letters[g.rng.Intn(len(letters))]
	}
	return string(b)
}

// order builds a large record with the given number of lines.
func (g *gen) order(lines int) ShipmentOrder {
	o := ShipmentOrder{
		CustomerName: g.word(16),
		ShipAddress:  PostalAddress{Street: g.word(20), City: g.word(12), Code: g.word(6)},
		OrderLabels:  make(map[string]int, 8),
		Expedited:    g.rng.Intn(2) == 1,
	}
	for i := 0; i < lines; i++ {
		l := OrderLineItem{Sku: g.word(12), Quantity: 1 + g.rng.Intn(99), Price: float64(g.rng.Intn(100000)) / 100}
		o.OrderLines = append(o.OrderLines, l)
		o.OrderTotal += float64(l.Quantity) * l.Price
	}
	for i := 0; i < 8; i++ {
		o.OrderLabels[fmt.Sprintf("%s%d", g.word(8), i)] = g.rng.Intn(1000)
	}
	for i := 0; i < 6; i++ {
		o.OrderNotes = append(o.OrderNotes, g.word(24))
	}
	return o
}

func (g *gen) person() fixtures.PersonB {
	return fixtures.PersonB{PersonName: g.word(14)}
}

func (g *gen) quote() fixtures.StockQuoteB {
	return fixtures.StockQuoteB{StockSymbol: g.word(4), StockPrice: float64(g.rng.Intn(100000)) / 100}
}

func (g *gen) reading() SensorReading {
	return SensorReading{SensorName: g.word(10), ReadingValue: float64(g.rng.Intn(100000)) / 10, ReadingUnit: g.word(3)}
}

// largeLines returns the line counts of the large records of a pool:
// an even spread over [24, 72], shuffled by the seed, so the mean
// record size is the same for every seed and only the order differs.
func (g *gen) largeLines(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = 24 + (48*i)/n
	}
	g.rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// The expectations: what the receiver must see for a given input,
// translated member by member into its vocabulary.

func expectOrder(o *ShipmentOrder) Order {
	out := Order{
		Total:     o.OrderTotal,
		Seq:       o.OrderSeq,
		Customer:  o.CustomerName,
		Notes:     o.OrderNotes,
		Labels:    o.OrderLabels,
		Address:   Address{City: o.ShipAddress.City, Code: o.ShipAddress.Code, Street: o.ShipAddress.Street},
		Expedited: o.Expedited,
	}
	for _, l := range o.OrderLines {
		out.Lines = append(out.Lines, LineItem{Price: l.Price, Sku: l.Sku, Quantity: l.Quantity})
	}
	return out
}

func expectPerson(p *fixtures.PersonB) fixtures.PersonA {
	return fixtures.PersonA{Name: p.PersonName, Age: p.PersonAge}
}

func expectQuote(q *fixtures.StockQuoteB) fixtures.StockQuoteA {
	return fixtures.StockQuoteA{Symbol: q.StockSymbol, Price: q.StockPrice, Volume: q.StockVolume}
}

func expectReading(r *SensorReading) Reading {
	return Reading{Unit: r.ReadingUnit, Value: r.ReadingValue, Name: r.SensorName, At: r.TakenAt}
}

// sameOrder compares two receiver-side orders field by field; seq is
// compared separately by callers that substitute it.
func sameOrder(a, b *Order) bool {
	if a.Total != b.Total || a.Seq != b.Seq || a.Customer != b.Customer ||
		a.Expedited != b.Expedited || a.Address != b.Address ||
		len(a.Lines) != len(b.Lines) || len(a.Notes) != len(b.Notes) || len(a.Labels) != len(b.Labels) {
		return false
	}
	for i := range a.Lines {
		if a.Lines[i] != b.Lines[i] {
			return false
		}
	}
	for i := range a.Notes {
		if a.Notes[i] != b.Notes[i] {
			return false
		}
	}
	for k, v := range a.Labels {
		if w, ok := b.Labels[k]; !ok || w != v {
			return false
		}
	}
	return true
}
