package main

import (
	"fmt"
	"sync"
	"time"

	"pti/internal/fixtures"
	"pti/internal/registry"
	"pti/internal/transport"
)

// The churn experiment measures the connection-lifecycle subsystem:
// publishers on managed links keep broadcasting through send queues
// while waves of subscribers crash and restart.

// churnRow is the measured churn cell.
type churnRow struct {
	Subscribers      int
	Churned          int
	Rounds           int
	Messages         int
	MatchRate        float64
	Duplicates       int
	SessionsResumed  uint64
	SessionsFresh    uint64
	FramesReplayed   uint64
	Redials          uint64
	Suspects         uint64
	Recoveries       uint64
	QueueAbandoned   uint64
	ElapsedVirtualMs float64
}

// churnStallBudgetMs bounds the run's virtual elapsed time: with the
// async queues absorbing each outage, the run costs retransmit and
// redial backoff intervals, not request-timeout stalls. A publisher
// serialized behind a crashed subscriber blows this by an order of
// magnitude.
const churnStallBudgetMs = 30000

// churnRedialBudget caps total dial attempts across the run. Each
// churned link needs a handful of probes to notice the restart;
// dozens per outage means the backoff schedule regressed.
const churnRedialBudget = 400

// expChurn runs the crash/restart waves on the virtual clock and
// reports lineage coverage plus the lifecycle counters.
//
// Gates: every subscriber lineage (the union of its incarnations)
// reaches a match rate of exactly 1; every churned link comes back
// with a session, same-epoch resume or fresh-epoch replay (the
// session shortfall, churned - resumed - fresh, is at most 0), with no
// abandoned queue frames; the redial loop stays inside its budget (a
// backoff or failure-detector regression shows up as a redial storm
// long before it breaks delivery); and the run finishes inside its
// virtual-time stall budget.
func expChurn(reps int, m metrics) error {
	subs := 10 * reps
	churned := subs / 3
	rounds, perRound := 4, 5*reps

	fmt.Printf("  fabric seed: %d (rerun with -seed %d to replay)  [virtual clock]\n", *seed, *seed)
	r, err := runChurn(subs, churned, rounds, perRound)
	if err != nil {
		return err
	}
	const name = "churn-waves"
	shortfall := float64(r.Churned) - float64(r.SessionsResumed) - float64(r.SessionsFresh)
	m.add(name, "match_rate", r.MatchRate, "ratio", is("==", 1))
	m.add(name, "session_shortfall", shortfall, "count", is("<=", 0))
	m.add(name, "queue_abandoned", float64(r.QueueAbandoned), "count", is("==", 0))
	m.add(name, "redials", float64(r.Redials), "count", is("<=", churnRedialBudget))
	m.add(name, "elapsed_virtual_ms", r.ElapsedVirtualMs, "ms", is("<=", churnStallBudgetMs))
	m.add(name, "subscribers", float64(r.Subscribers), "count")
	m.add(name, "churned", float64(r.Churned), "count")
	m.add(name, "rounds", float64(r.Rounds), "count")
	m.add(name, "messages", float64(r.Messages), "count")
	m.add(name, "duplicates", float64(r.Duplicates), "count")
	m.add(name, "sessions_resumed", float64(r.SessionsResumed), "count")
	m.add(name, "sessions_fresh", float64(r.SessionsFresh), "count")
	m.add(name, "frames_replayed", float64(r.FramesReplayed), "count")
	m.add(name, "suspects", float64(r.Suspects), "count")
	m.add(name, "recoveries", float64(r.Recoveries), "count")
	fmt.Printf("  %-24s match %.0f%%  dups %d  resumed+fresh %d+%d/%d  redials %d (budget %d)  elapsed %.0fms (budget %dms)\n",
		name, r.MatchRate*100, r.Duplicates, r.SessionsResumed, r.SessionsFresh,
		r.Churned, r.Redials, churnRedialBudget, r.ElapsedVirtualMs, churnStallBudgetMs)
	return nil
}

// runChurn is one full churn run: subs subscribers on managed links,
// the first `churned` of them crash/restarting in two waves while the
// publisher broadcasts `rounds` rounds of perRound objects.
func runChurn(subs, churned, rounds, perRound int) (churnRow, error) {
	total := rounds * perRound
	f := transport.NewFabric(*seed, transport.WithVirtualClock())
	defer func() { _ = f.Close() }()

	regPub := registry.New()
	if _, err := regPub.Register(fixtures.PersonB{},
		registry.WithConstructor("NewPersonB", fixtures.NewPersonB)); err != nil {
		return churnRow{}, err
	}
	pub, err := f.AddPeerWithRegistry("pub", regPub,
		transport.WithReliableLinks(
			transport.WithSendQueue(4*total),
			transport.WithOverflowPolicy(transport.OverflowError)),
		transport.WithHeartbeat(50*time.Millisecond),
		transport.WithSuspectAfter(200*time.Millisecond),
		transport.WithRedialBackoff(10*time.Millisecond, 100*time.Millisecond),
		transport.WithRequestTimeout(2*time.Second))
	if err != nil {
		return churnRow{}, err
	}
	lan, _ := transport.NamedProfile("lan")

	// Lineage logs: every incarnation of a subscriber appends to the
	// same per-name slice, so coverage is the union across restarts.
	var logMu sync.Mutex
	seenByNode := make(map[string][]map[int]int)
	names := make([]string, subs)
	for i := 0; i < subs; i++ {
		name := fmt.Sprintf("sub%02d", i)
		names[i] = name
		reg := registry.New()
		if _, err := reg.Register(fixtures.PersonA{},
			registry.WithConstructor("NewPersonA", fixtures.NewPersonA)); err != nil {
			return churnRow{}, err
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
			return churnRow{}, err
		}
		if _, err := f.ConnectManaged("pub", name, lan); err != nil {
			return churnRow{}, err
		}
	}
	waves := [][]string{names[:churned/2], names[churned/2 : churned]}

	virtualStart := f.Clock().Now()
	publish := func(round int) error {
		for i := 0; i < perRound; i++ {
			if _, err := pub.Peer().Broadcast(fixtures.PersonB{
				PersonName: "churn", PersonAge: round*perRound + i,
			}); err != nil {
				return fmt.Errorf("round %d msg %d: %w", round, i, err)
			}
		}
		return nil
	}
	for round := 0; round < rounds; round++ {
		switch round {
		case 1:
			for _, n := range waves[0] {
				if err := f.Crash(n); err != nil {
					return churnRow{}, err
				}
			}
		case 2:
			for _, n := range waves[0] {
				if _, err := f.Restart(n); err != nil {
					return churnRow{}, err
				}
			}
			for _, n := range waves[1] {
				if err := f.Crash(n); err != nil {
					return churnRow{}, err
				}
			}
		case 3:
			for _, n := range waves[1] {
				if _, err := f.Restart(n); err != nil {
					return churnRow{}, err
				}
			}
		}
		if err := publish(round); err != nil {
			return churnRow{}, err
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
	deadline := time.Now().Add(120 * time.Second)
	converged := func() bool {
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

	covered, dups := 0, 0
	for _, name := range names {
		got, d := coverage(name)
		covered += got
		dups += d
	}
	st := pub.Peer().Stats().Snapshot()
	return churnRow{
		Subscribers:      subs,
		Churned:          churned,
		Rounds:           rounds,
		Messages:         total,
		MatchRate:        float64(covered) / float64(total*subs),
		Duplicates:       dups,
		SessionsResumed:  st.RelSessionsResumed,
		SessionsFresh:    st.RelSessionsFresh,
		FramesReplayed:   st.RelFramesReplayed,
		Redials:          st.PeerRedials,
		Suspects:         st.PeerSuspects,
		Recoveries:       st.PeerRecoveries,
		QueueAbandoned:   st.RelQueueAbandoned,
		ElapsedVirtualMs: float64(elapsedVirtual.Nanoseconds()) / 1e6,
	}, nil
}
