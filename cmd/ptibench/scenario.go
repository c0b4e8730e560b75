package main

import (
	"fmt"
	"time"

	"pti/internal/benchdoc"
	"pti/internal/fixtures"
	"pti/internal/registry"
	"pti/internal/transport"
)

// scenarioResult is one (profile, mode) row of the scenario
// experiment.
type scenarioResult struct {
	Sent, Received, Delivered, Dropped uint64
	MatchRate                          float64
	TypeInfoReqs, CodeReqs             uint64
	FramesLost, FramesDuped            uint64
	Retransmits, Deduped               uint64
	ElapsedMs                          float64
}

// expScenario drives the optimistic protocol across the simulation
// fabric's fault profiles and reports delivery counts and match rate
// (delivered/published) under each — with -reliable, each profile
// additionally runs with the reliable delivery layer on, which must
// converge every profile to a 100% match rate (exactly-once). All
// randomness derives from -seed; a surprising result replays exactly
// by re-running with the printed seed; -vclock runs the whole
// experiment on the virtual clock.
//
// Gates: a reliable row delivers exactly once, so its match rate is
// exactly 1 and any drift is a dedup or retransmit bug. An unreliable
// row's match rate tracks the seed-pinned fault schedule, so it stays
// within 0.10 of its profile's ref, the rate the committed run
// measured (seed 42, 100 objects), headroom for protocol-retry timing.
// The refs are declared here rather than read from the committed doc,
// so regenerating BENCH.json cannot move them.
func expScenario(reps int, m metrics) error {
	objects := 50 * reps
	profiles := []struct {
		name string
		prof transport.FaultProfile
		ref  float64
		note string
	}{
		{"perfect", transport.FaultProfile{}, 1,
			"baseline: every object must land"},
		{"latency-2ms", transport.FaultProfile{
			Latency: 2 * time.Millisecond, Jitter: time.Millisecond}, 1,
			"pure delay: at-most-once regime, zero loss"},
		{"lossy-10pct", transport.FaultProfile{
			Latency: 200 * time.Microsecond, DropRate: 0.10}, 0.89,
			"drops hit objects and protocol round trips alike"},
		{"lossy-30pct", transport.FaultProfile{
			Latency: 200 * time.Microsecond, DropRate: 0.30}, 0.69,
			"heavy loss: match rate collapses without retry"},
		{"dup-reorder", transport.FaultProfile{
			Latency: 200 * time.Microsecond, DupRate: 0.10, ReorderRate: 0.25}, 1.13,
			"duplicates re-check against the cache; reorder delays only"},
		{"bandwidth-256KBps", transport.FaultProfile{
			Bandwidth: 256 * 1024}, 1,
			"shaped link: delivery spread over transmission time"},
	}
	modes := []bool{false}
	if *reliable {
		modes = append(modes, true)
	}

	fmt.Printf("  fabric seed: %d (rerun with -seed %d to replay)", *seed, *seed)
	if *vclock {
		fmt.Printf("  [virtual clock]")
	}
	fmt.Println()
	fmt.Printf("  %-24s %8s %9s %10s %8s %8s %8s %8s\n",
		"profile", "sent", "received", "delivered", "match", "retrans", "deduped", "elapsed")
	for _, pr := range profiles {
		for _, rel := range modes {
			res, err := runScenario(pr.prof, rel, objects)
			if err != nil {
				return err
			}
			name := pr.name
			matchGates := []benchdoc.Gate{drift(">=", pr.ref, -0.10), drift("<=", pr.ref, 0.10)}
			if rel {
				name += "+rel"
				matchGates = []benchdoc.Gate{is("==", 1)}
			}
			m.add(name, "match_rate", res.MatchRate, "ratio", matchGates...)
			m.add(name, "sent", float64(res.Sent), "count")
			m.add(name, "received", float64(res.Received), "count")
			m.add(name, "delivered", float64(res.Delivered), "count")
			m.add(name, "dropped", float64(res.Dropped), "count")
			m.add(name, "type_info_requests", float64(res.TypeInfoReqs), "count")
			m.add(name, "code_requests", float64(res.CodeReqs), "count")
			m.add(name, "frames_lost", float64(res.FramesLost), "count")
			m.add(name, "frames_duplicated", float64(res.FramesDuped), "count")
			m.add(name, "retransmits", float64(res.Retransmits), "count")
			m.add(name, "deduped", float64(res.Deduped), "count")
			m.add(name, "elapsed_ms", res.ElapsedMs, "ms")
			fmt.Printf("  %-24s %8d %9d %10d %7.0f%% %8d %8d %8s  %s\n",
				name, res.Sent, res.Received, res.Delivered, res.MatchRate*100,
				res.Retransmits, res.Deduped,
				fmtDur(time.Duration(res.ElapsedMs*1e6)), pr.note)
		}
	}

	return nil
}

// runScenario runs one (profile, reliability) cell: a publisher and a
// subscriber with divergent registries, `objects` publications, then
// quiesce and account.
func runScenario(prof transport.FaultProfile, rel bool, objects int) (scenarioResult, error) {
	var fabOpts []transport.FabricOption
	if *vclock {
		fabOpts = append(fabOpts, transport.WithVirtualClock())
	}
	f := transport.NewFabric(*seed, fabOpts...)
	defer func() { _ = f.Close() }()

	peerOpts := []transport.PeerOption{transport.WithRequestTimeout(250 * time.Millisecond)}
	if rel {
		// Reliability needs room for retransmit round trips before the
		// request-timeout failsafe fires.
		peerOpts = []transport.PeerOption{
			transport.WithRequestTimeout(2 * time.Second),
			transport.WithReliableLinks(transport.WithRetransmitTimeout(5 * time.Millisecond)),
		}
	}
	regA := registry.New()
	if _, err := regA.Register(fixtures.PersonB{},
		registry.WithConstructor("NewPersonB", fixtures.NewPersonB)); err != nil {
		return scenarioResult{}, err
	}
	regB := registry.New()
	if _, err := regB.Register(fixtures.PersonA{},
		registry.WithConstructor("NewPersonA", fixtures.NewPersonA)); err != nil {
		return scenarioResult{}, err
	}
	na, err := f.AddPeerWithRegistry("pub", regA, peerOpts...)
	if err != nil {
		return scenarioResult{}, err
	}
	nb, err := f.AddPeerWithRegistry("sub", regB, peerOpts...)
	if err != nil {
		return scenarioResult{}, err
	}
	if _, _, err := f.Connect("pub", "sub", prof); err != nil {
		return scenarioResult{}, err
	}
	// Delivery counts come from the peer's Stats; the handler only
	// has to exist for the interest to match.
	if err := nb.Peer().OnReceive(fixtures.PersonA{}, func(transport.Delivery) {}); err != nil {
		return scenarioResult{}, err
	}
	conn, _ := na.ConnTo("sub")

	start := time.Now()
	for i := 0; i < objects; i++ {
		if err := na.Peer().SendObject(conn, fixtures.PersonB{
			PersonName: "bench", PersonAge: i,
		}); err != nil {
			return scenarioResult{}, err
		}
	}
	// Quiesce: receptions resolve to delivered or dropped. With
	// reliability on, wait for the retransmit machinery to land every
	// object.
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st := nb.Peer().Stats().Snapshot()
		if rel && st.ObjectsDelivered+st.ObjectsDropped < uint64(objects) {
			time.Sleep(5 * time.Millisecond)
			continue
		}
		if st.ObjectsReceived > 0 && st.ObjectsReceived == st.ObjectsDelivered+st.ObjectsDropped {
			// One extra settle pass for frames still in flight.
			time.Sleep(20 * time.Millisecond)
			st2 := nb.Peer().Stats().Snapshot()
			if st2.ObjectsReceived == st.ObjectsReceived {
				break
			}
			continue
		}
		time.Sleep(5 * time.Millisecond)
	}
	elapsed := time.Since(start)

	st := nb.Peer().Stats().Snapshot()
	pubSt := na.Peer().Stats().Snapshot()
	fs := f.Stats()
	return scenarioResult{
		Sent:         uint64(objects),
		Received:     st.ObjectsReceived,
		Delivered:    st.ObjectsDelivered,
		Dropped:      st.ObjectsDropped,
		MatchRate:    float64(st.ObjectsDelivered) / float64(objects),
		TypeInfoReqs: st.TypeInfoRequests,
		CodeReqs:     st.CodeRequests,
		FramesLost:   fs.FramesDropped,
		FramesDuped:  fs.FramesDuplicated,
		Retransmits:  pubSt.RelRetransmits + st.RelRetransmits,
		Deduped:      st.RelDeduped + pubSt.RelDeduped,
		ElapsedMs:    float64(elapsed.Nanoseconds()) / 1e6,
	}, nil
}
