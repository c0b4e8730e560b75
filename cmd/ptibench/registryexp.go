package main

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"pti/internal/fixtures"
	"pti/internal/registry"
	"pti/internal/transport"
)

// The registry experiment measures the durable type registry: a
// subscriber backed by a file store takes its first delivery cold
// (one wire description fetch), then crash/restarts and takes the
// same stream warm — every description preloaded from disk.

// registryRow is one measured cell (cold or warm).
type registryRow struct {
	Name           string
	Messages       int
	Delivered      int
	DescFetches    uint64
	DescWarmLoaded uint64
	DescStoreHits  uint64
	TTFDMs         float64
}

// expRegistry runs the cold-vs-warm restart comparison on the virtual
// clock and reports the description-fetch counters and TTFD per row.
//
// Gates: both rows deliver every message; the cold row fetches at
// least one description, or it is not cold; the warm row fetches none
// (a restart must not re-ask the network what it already learned),
// preloads at least one from the store, and beats the cold row's
// time to first delivery outright, since only the cold path pays the
// description round trip. TTFD magnitudes track the machine, so the
// gate compares cold with warm in the same run, never run with run.
func expRegistry(reps int, m metrics) error {
	msgs := 10 * reps
	fmt.Printf("  fabric seed: %d (rerun with -seed %d to replay)  [virtual clock]\n", *seed, *seed)
	rows, err := runRegistry(msgs)
	if err != nil {
		return err
	}
	cold, warm := rows[0], rows[1]
	m.add(cold.Name, "desc_fetches", float64(cold.DescFetches), "count", is(">=", 1))
	m.add(warm.Name, "desc_fetches", float64(warm.DescFetches), "count", is("==", 0))
	m.add(warm.Name, "desc_warm_loaded", float64(warm.DescWarmLoaded), "count", is(">=", 1))
	m.add(warm.Name, "ttfd_ms", warm.TTFDMs, "ms", vsRow("<", 1, cold.Name, "ttfd_ms"))
	m.add(cold.Name, "ttfd_ms", cold.TTFDMs, "ms")
	m.add(cold.Name, "desc_warm_loaded", float64(cold.DescWarmLoaded), "count")
	for _, r := range []registryRow{cold, warm} {
		m.add(r.Name, "delivered", float64(r.Delivered), "count", vsRow("==", 1, r.Name, "messages"))
		m.add(r.Name, "messages", float64(r.Messages), "count")
		m.add(r.Name, "desc_store_hits", float64(r.DescStoreHits), "count")
		fmt.Printf("  %-16s delivered %d/%d  desc fetches %d  warm-loaded %d  ttfd %.3fms\n",
			r.Name, r.Delivered, r.Messages, r.DescFetches, r.DescWarmLoaded, r.TTFDMs)
	}
	return nil
}

// runRegistry is one full cold/warm run: a publisher streams msgs
// objects at a store-backed subscriber, the subscriber crashes and
// warm-restarts from the same directory, and the stream repeats.
func runRegistry(msgs int) ([]registryRow, error) {
	f := transport.NewFabric(*seed, transport.WithVirtualClock())
	defer func() { _ = f.Close() }()

	dir, err := os.MkdirTemp("", "ptibench-registry-*")
	if err != nil {
		return nil, err
	}
	defer func() { _ = os.RemoveAll(dir) }()

	regPub := registry.New()
	if _, err := regPub.Register(fixtures.PersonB{},
		registry.WithConstructor("NewPersonB", fixtures.NewPersonB)); err != nil {
		return nil, err
	}
	pub, err := f.AddPeerWithRegistry("pub", regPub)
	if err != nil {
		return nil, err
	}
	regSub := registry.New()
	if _, err := regSub.Register(fixtures.PersonA{},
		registry.WithConstructor("NewPersonA", fixtures.NewPersonA)); err != nil {
		return nil, err
	}
	// WithStoreDir so the fabric Restart reopens the store from disk:
	// the warm incarnation shares nothing with the cold one but the
	// directory, exactly like a restarted process.
	sub, err := f.AddPeerWithRegistry("sub", regSub, transport.WithStoreDir(dir))
	if err != nil {
		return nil, err
	}
	// A visible link latency so TTFD is dominated by round-trips: the
	// cold path pays the description exchange on top of the delivery,
	// the warm path only the delivery.
	if _, _, err := f.Connect("pub", "sub", transport.FaultProfile{Latency: 2 * time.Millisecond}); err != nil {
		return nil, err
	}

	// runPhase streams msgs objects and measures delivery count and
	// virtual time to first delivery on the current sub incarnation.
	runPhase := func(name string, node *transport.Node) (registryRow, error) {
		delivered := make(chan struct{}, msgs)
		// Handlers run concurrently: the first one records the
		// time to first delivery, once.
		var (
			firstOnce sync.Once
			ttfd      atomic.Int64
		)
		start := f.Clock().Now()
		if err := node.Peer().OnReceive(fixtures.PersonA{}, func(d transport.Delivery) {
			firstOnce.Do(func() { ttfd.Store(int64(f.Clock().Now().Sub(start))) })
			delivered <- struct{}{}
		}); err != nil {
			return registryRow{}, err
		}
		for i := 0; i < msgs; i++ {
			if _, err := pub.Peer().Broadcast(fixtures.PersonB{PersonName: name, PersonAge: i}); err != nil {
				return registryRow{}, err
			}
		}
		got := 0
		deadline := time.Now().Add(60 * time.Second)
		for got < msgs && time.Now().Before(deadline) {
			select {
			case <-delivered:
				got++
			case <-time.After(10 * time.Millisecond):
			}
		}
		st := node.Peer().Stats().Snapshot()
		return registryRow{
			Name:           name,
			Messages:       msgs,
			Delivered:      got,
			DescFetches:    st.TypeInfoRequests,
			DescWarmLoaded: st.DescWarmLoaded,
			DescStoreHits:  st.DescStoreHits,
			TTFDMs:         float64(ttfd.Load()) / 1e6,
		}, nil
	}

	cold, err := runPhase("registry-cold", sub)
	if err != nil {
		return nil, err
	}
	if err := f.Crash("sub"); err != nil {
		return nil, err
	}
	sub2, err := f.Restart("sub")
	if err != nil {
		return nil, err
	}
	warm, err := runPhase("registry-warm", sub2)
	if err != nil {
		return nil, err
	}
	return []registryRow{cold, warm}, nil
}
