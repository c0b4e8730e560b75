package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"pti/internal/benchdoc"
	"pti/internal/fixtures"
	"pti/internal/registry"
	"pti/internal/transport"
)

// The scale experiment measures the fabric's scalability — the
// sharded frame scheduler, the O(1) busy probe and the lazily spawned
// reliable loops — exercised by broadcast fan-out plus a crash wave at
// two fleet sizes.

// scaleRow is one measured fleet size.
type scaleRow struct {
	Peers            int
	Messages         int
	MatchRate        float64
	Duplicates       int
	PeakGoroutines   int
	SchedFrames      uint64
	SchedOpsPerFrame float64
	SchedShards      int
	PeersPerVirtualS float64
	ElapsedVirtualMs float64
	ElapsedWallMs    float64
}

// scaleWallBudgetMs is the committed CI-viability budget per run:
// generous against machine variance, tight against complexity
// regressions — a scheduler or busy probe that went O(peers·links)
// again blows it by an order of magnitude.
const scaleWallBudgetMs = 120000

// scaleOpsCeiling bounds scheduler heap ops per delivered frame. The
// steady state is exactly 2 (one push, one pop); modest headroom
// covers frames abandoned in the heap at teardown, while a scheduler
// that re-sorts or thrashes overshoots immediately.
const scaleOpsCeiling = 2.25

// scaleGoroutineSlack bounds the per-peer goroutine cost at a larger
// fleet by the next smaller fleet's times this factor: headroom for
// runtime background goroutines, while per-link parked goroutines
// creeping back would roughly double the per-peer cost.
const scaleGoroutineSlack = 1.3

// expScale runs the broadcast fan-out + crash wave soak at two fleet
// sizes on the virtual clock and reports delivery, goroutine and
// scheduler-cost metrics.
//
// Gates: every fleet size delivers exactly once (match rate exactly 1,
// no duplicates); each run finishes inside its committed wall-clock
// budget; scheduler ops per frame stay within [1, scaleOpsCeiling];
// and the per-peer goroutine cost stays flat as the fleet grows (the
// scheduler pool is fixed and idle reliable links hold no goroutines,
// so only the per-connection read loops scale with peers). Wall times
// and goroutine counts track the machine, so budgets and the
// cross-fleet ratio are the gates, never run-vs-run magnitudes.
func expScale(reps int, m metrics) error {
	fmt.Printf("  fabric seed: %d (rerun with -seed %d to replay)  [virtual clock]\n", *seed, *seed)
	prev := ""
	for _, subs := range []int{150, 600} {
		r, err := runScale(subs)
		if err != nil {
			return err
		}
		name := fmt.Sprintf("scale-%d", subs)
		perPeer := float64(r.PeakGoroutines) / float64(r.Peers)
		var perPeerGates []benchdoc.Gate
		if prev != "" {
			perPeerGates = []benchdoc.Gate{vsRow("<=", scaleGoroutineSlack, prev, "goroutines_per_peer")}
		}
		m.add(name, "match_rate", r.MatchRate, "ratio", is("==", 1))
		m.add(name, "duplicates", float64(r.Duplicates), "count", is("==", 0))
		m.add(name, "elapsed_wall_ms", r.ElapsedWallMs, "ms", is("<=", scaleWallBudgetMs))
		m.add(name, "sched_ops_per_frame", r.SchedOpsPerFrame, "count", is(">=", 1), is("<=", scaleOpsCeiling))
		m.add(name, "peers", float64(r.Peers), "count", is(">", 0))
		m.add(name, "peak_goroutines", float64(r.PeakGoroutines), "count", is(">", 0))
		m.add(name, "goroutines_per_peer", perPeer, "count", perPeerGates...)
		m.add(name, "messages", float64(r.Messages), "count")
		m.add(name, "sched_frames", float64(r.SchedFrames), "count")
		m.add(name, "sched_shards", float64(r.SchedShards), "count")
		m.add(name, "peers_per_virtual_sec", r.PeersPerVirtualS, "1/s")
		m.add(name, "elapsed_virtual_ms", r.ElapsedVirtualMs, "ms")
		fmt.Printf("  %-12s match %.0f%%  dups %d  peakGoroutines %d (%.1f/peer)  schedOps/frame %.2f  shards %d  virtual %.0fms  wall %.0fms (budget %dms)\n",
			name, r.MatchRate*100, r.Duplicates, r.PeakGoroutines, perPeer, r.SchedOpsPerFrame,
			r.SchedShards, r.ElapsedVirtualMs, r.ElapsedWallMs, scaleWallBudgetMs)
		prev = name
	}
	return nil
}

// runScale is one full scale run: nSubs subscribers split across
// publishers (≤125 managed links each), four rounds of broadcast
// fan-out with a 10% crash wave between rounds one and three.
func runScale(nSubs int) (scaleRow, error) {
	nPubs := (nSubs + 124) / 125
	if nPubs < 2 {
		nPubs = 2
	}
	rounds, perRound := 4, 4
	total := rounds * perRound
	wallStart := time.Now()
	// The peak counts this run's goroutines only, not those an earlier
	// run in the same process left behind.
	before := runtime.NumGoroutine()

	f := transport.NewFabric(*seed, transport.WithVirtualClock())
	defer func() { _ = f.Close() }()
	lan, _ := transport.NamedProfile("lan")

	pubs := make([]string, nPubs)
	for i := range pubs {
		pubs[i] = fmt.Sprintf("pub%02d", i)
		regPub := registry.New()
		if _, err := regPub.Register(fixtures.PersonB{},
			registry.WithConstructor("NewPersonB", fixtures.NewPersonB)); err != nil {
			return scaleRow{}, err
		}
		if _, err := f.AddPeerWithRegistry(pubs[i], regPub,
			transport.WithReliableLinks(
				transport.WithAdaptiveRTO(),
				transport.WithSendQueue(4*total),
				transport.WithOverflowPolicy(transport.OverflowError)),
			transport.WithHeartbeat(50*time.Millisecond),
			transport.WithSuspectAfter(250*time.Millisecond),
			transport.WithRedialBackoff(10*time.Millisecond, 100*time.Millisecond),
			transport.WithRequestTimeout(2*time.Second)); err != nil {
			return scaleRow{}, err
		}
	}

	var logMu sync.Mutex
	seenByNode := make(map[string][]map[int]int)
	names := make([]string, nSubs)
	for i := 0; i < nSubs; i++ {
		name := fmt.Sprintf("sub%04d", i)
		names[i] = name
		reg := registry.New()
		if _, err := reg.Register(fixtures.PersonA{},
			registry.WithConstructor("NewPersonA", fixtures.NewPersonA)); err != nil {
			return scaleRow{}, err
		}
		record := func(name string) transport.PeerOption {
			return func(p *transport.Peer) {
				seen := make(map[int]int)
				logMu.Lock()
				seenByNode[name] = append(seenByNode[name], seen)
				logMu.Unlock()
				_ = p.OnReceive(fixtures.PersonA{}, func(d transport.Delivery) {
					logMu.Lock()
					seen[d.Bound.(*fixtures.PersonA).Age]++
					logMu.Unlock()
				})
			}
		}(name)
		if _, err := f.AddPeerWithRegistry(name, reg,
			transport.WithRequestTimeout(2*time.Second), record); err != nil {
			return scaleRow{}, err
		}
		if _, err := f.ConnectManaged(pubs[i%nPubs], name, lan); err != nil {
			return scaleRow{}, err
		}
	}

	var wave []string
	for i := 0; i < nSubs && len(wave) < nSubs/10; i += 10 {
		wave = append(wave, names[i])
	}

	peak := runtime.NumGoroutine()
	sample := func() {
		if n := runtime.NumGoroutine(); n > peak {
			peak = n
		}
	}

	virtualStart := f.Clock().Now()
	publish := func(round int) error {
		var wg sync.WaitGroup
		errs := make(chan error, nPubs)
		for i, p := range pubs {
			wg.Add(1)
			go func(i int, p string) {
				defer wg.Done()
				peer := f.Node(p).Peer()
				for m := 0; m < perRound; m++ {
					if _, err := peer.Broadcast(fixtures.PersonB{
						PersonName: p, PersonAge: round*perRound + m}); err != nil {
						errs <- fmt.Errorf("%s round %d msg %d: %w", p, round, m, err)
						return
					}
				}
			}(i, p)
		}
		wg.Wait()
		close(errs)
		sample()
		return <-errs
	}
	for round := 0; round < rounds; round++ {
		switch round {
		case 1:
			for _, n := range wave {
				if err := f.Crash(n); err != nil {
					return scaleRow{}, err
				}
			}
		case 2:
			for _, n := range wave {
				if _, err := f.Restart(n); err != nil {
					return scaleRow{}, err
				}
			}
		}
		if err := publish(round); err != nil {
			return scaleRow{}, err
		}
	}

	coverage := func(name string) (distinct, dups int) {
		logMu.Lock()
		defer logMu.Unlock()
		union := make(map[int]int)
		for _, seen := range seenByNode[name] {
			for id, n := range seen {
				union[id] += n
			}
		}
		for _, n := range union {
			if n > 1 {
				dups += n - 1
			}
		}
		return len(union), dups
	}
	deadline := time.Now().Add(240 * time.Second)
	converged := func() bool {
		sample()
		for _, name := range names {
			if got, _ := coverage(name); got != total {
				return false
			}
		}
		return true
	}
	for time.Now().Before(deadline) && !converged() {
		time.Sleep(2 * time.Millisecond)
	}
	elapsedVirtual := f.Clock().Now().Sub(virtualStart)
	elapsedWall := time.Since(wallStart)

	covered, dups := 0, 0
	for _, name := range names {
		got, d := coverage(name)
		covered += got
		dups += d
	}
	frames, heapOps, shards := f.SchedulerStats()
	opsPerFrame := 0.0
	if frames > 0 {
		opsPerFrame = float64(heapOps) / float64(frames)
	}
	perVirtualS := 0.0
	if elapsedVirtual > 0 {
		perVirtualS = float64(nSubs+nPubs) / elapsedVirtual.Seconds()
	}
	return scaleRow{
		Peers:            nSubs + nPubs,
		Messages:         total,
		MatchRate:        float64(covered) / float64(total*nSubs),
		Duplicates:       dups,
		PeakGoroutines:   peak - before,
		SchedFrames:      frames,
		SchedOpsPerFrame: opsPerFrame,
		SchedShards:      shards,
		PeersPerVirtualS: perVirtualS,
		ElapsedVirtualMs: float64(elapsedVirtual.Nanoseconds()) / 1e6,
		ElapsedWallMs:    float64(elapsedWall.Nanoseconds()) / 1e6,
	}, nil
}
