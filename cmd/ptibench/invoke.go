package main

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"pti/internal/benchdoc"
	"pti/internal/registry"
	"pti/internal/transport"
)

// The invoke experiment measures the pipelined invoke path: N
// closed-loop invokers calling a remote method with a fixed virtual
// service time, through the reliable link, at capacity and at 2x
// overload. Rows report invoke-latency percentiles, goodput and shed
// counts; a separate comparison pits a pipelined client window against
// strictly serialized calls on a clean high-latency link.

// invokeWorkers/invokeQueue bound the server: 4 concurrent method
// executions plus 2 queued invokes; arrival depth beyond 6 is shed.
const (
	invokeWorkers     = 4
	invokeQueue       = 2
	invokeServiceTime = 10 * time.Millisecond
)

// invokeRow is one measured (profile, load) cell.
type invokeRow struct {
	Invokers         int
	Attempts         int
	Completed        int
	Shed             int
	Failures         int
	P50Ms            float64
	P99Ms            float64
	GoodputPerSec    float64
	ElapsedVirtualMs float64
}

// invokePipeline is the pipelined-vs-serialized comparison.
type invokePipeline struct {
	Calls        int
	Depth        int
	LatencyMs    float64
	SerializedMs float64
	PipelinedMs  float64
}

// invokeNoCollapseFraction is the congestion-collapse floor: goodput
// at 2x overload must be at least this fraction of goodput at
// capacity on the same profile.
const invokeNoCollapseFraction = 0.5

// invokeChaosGoodputRef is the goodput each chaos row measured in the
// committed run the floor was set against (seed 42, virtual clock). A
// row may not fall below half of it: the overload ratio alone cannot
// see both loads slow down together. Declared here rather than read
// from the committed doc, so regenerating BENCH.json cannot move it.
var invokeChaosGoodputRef = map[string]float64{
	"capacity":   38.1,
	"overload2x": 58.7,
}

// invokeBenchSvc is the exported service. The service-time knob is an
// injected func field, NOT a *Peer field: typedesc fingerprints every
// field recursively, and a *Peer would drag the whole peer struct
// graph into the type description.
type invokeBenchSvc struct {
	nap     func(time.Duration)
	service time.Duration
}

// Work consumes the configured virtual service time and echoes.
func (s *invokeBenchSvc) Work(n int) int {
	if s.service > 0 {
		s.nap(s.service)
	}
	return n + 1
}

// expInvoke runs the invoke-load rows and the pipelined-vs-serialized
// comparison on the virtual clock.
//
// Gates: every row finishes with zero non-shed failures and a nonzero
// completion count, goodput and p99 (a shed is a typed, retryable
// contract; a timeout or decode error is a bug); per profile, goodput
// at 2x overload holds at least half the goodput at capacity, so load
// shedding prevents congestion collapse rather than renaming it; each
// chaos row holds at least half its reference goodput; and
// the pipelined window beats serialized calls outright on the
// high-latency link, or the pipelining isn't real.
func expInvoke(reps int, m metrics) error {
	attempts := 15 * reps // per invoker
	fmt.Printf("  fabric seed: %d (rerun with -seed %d to replay)  [virtual clock]\n", *seed, *seed)
	fmt.Printf("  server budget: %d workers + %d queued, %s service time per call\n",
		invokeWorkers, invokeQueue, invokeServiceTime)

	loads := []struct {
		name     string
		invokers int
	}{
		{"capacity", invokeWorkers},
		{"overload2x", 2 * invokeWorkers},
	}
	for _, profile := range []string{"slow", "chaos"} {
		for _, load := range loads {
			r, err := runInvokeLoad(profile, load.invokers, attempts)
			if err != nil {
				return err
			}
			name := profile + "/" + load.name
			goodputGates := []benchdoc.Gate{is(">", 0)}
			if load.name != "capacity" {
				goodputGates = append(goodputGates,
					vsRow(">=", invokeNoCollapseFraction, profile+"/capacity", "goodput_per_sec"))
			}
			if ref, ok := invokeChaosGoodputRef[load.name]; ok && profile == "chaos" {
				goodputGates = append(goodputGates, drift(">=", ref, -ref/2))
			}
			m.add(name, "failures", float64(r.Failures), "count", is("==", 0))
			m.add(name, "completed", float64(r.Completed), "count", is(">", 0))
			m.add(name, "goodput_per_sec", r.GoodputPerSec, "1/s", goodputGates...)
			m.add(name, "p99_ms", r.P99Ms, "ms", is(">", 0))
			m.add(name, "p50_ms", r.P50Ms, "ms")
			m.add(name, "invokers", float64(r.Invokers), "count")
			m.add(name, "attempts", float64(r.Attempts), "count")
			m.add(name, "shed", float64(r.Shed), "count")
			m.add(name, "elapsed_virtual_ms", r.ElapsedVirtualMs, "ms")
			fmt.Printf("  %-7s %-10s  %d invokers  p50 %.1fms  p99 %.1fms  goodput %.0f/s  shed %d  failures %d  elapsed %.0fms\n",
				profile, load.name, r.Invokers, r.P50Ms, r.P99Ms,
				r.GoodputPerSec, r.Shed, r.Failures, r.ElapsedVirtualMs)
		}
	}

	pl, err := runInvokePipelineCompare(8*reps, 8)
	if err != nil {
		return err
	}
	const pipeline = "pipelined-vs-serial"
	m.add(pipeline, "pipelined_ms", pl.PipelinedMs, "ms", is(">", 0), vsRow("<", 1, pipeline, "serialized_ms"))
	m.add(pipeline, "serialized_ms", pl.SerializedMs, "ms", is(">", 0))
	m.add(pipeline, "calls", float64(pl.Calls), "count")
	m.add(pipeline, "depth", float64(pl.Depth), "count")
	m.add(pipeline, "latency_ms", pl.LatencyMs, "ms")
	fmt.Printf("  %-18s %d calls at %.0fms latency: pipelined(depth %d) %.0fms vs serialized %.0fms (%.1fx faster)\n",
		pipeline, pl.Calls, pl.LatencyMs, pl.Depth,
		pl.PipelinedMs, pl.SerializedMs, pl.SerializedMs/pl.PipelinedMs)
	return nil
}

// invokeRelOpts is the reliable-link shape both sides run: a 10ms RTO
// until the first RTT sample (the SRTT estimate also feeds the
// client's pacing window), NACK fast-retransmit by default, bounded
// backoff so chaos-profile rows converge in bounded virtual time.
func invokeRelOpts() []transport.ReliableOption {
	return []transport.ReliableOption{
		transport.WithSendQueue(1024),
		transport.WithWindow(32),
		transport.WithRetransmitTimeout(10 * time.Millisecond),
		transport.WithMaxBackoff(160 * time.Millisecond),
	}
}

// runInvokeLoad drives `invokers` closed-loop callers, each making
// `attempts` calls, against a server with a fixed worker/queue budget,
// and reports latency percentiles over the successful calls plus
// goodput and shed counts. Shed calls are not retried: each invoker
// spends its attempt budget, and the row records how the budget split
// between completions and sheds.
func runInvokeLoad(profile string, invokers, attempts int) (invokeRow, error) {
	prof, ok := transport.NamedProfile(profile)
	if !ok {
		return invokeRow{}, fmt.Errorf("unknown profile %q", profile)
	}
	f := transport.NewFabric(*seed, transport.WithVirtualClock())
	defer func() { _ = f.Close() }()

	srv, err := f.AddPeerWithRegistry("srv", registry.New(),
		transport.WithRequestTimeout(30*time.Second),
		transport.WithInvokeConcurrency(invokeWorkers, invokeQueue),
		transport.WithReliableLinks(invokeRelOpts()...))
	if err != nil {
		return invokeRow{}, err
	}
	cli, err := f.AddPeerWithRegistry("cli", registry.New(),
		transport.WithRequestTimeout(30*time.Second),
		transport.WithInvokePacing(32, 250*time.Millisecond),
		transport.WithReliableLinks(invokeRelOpts()...))
	if err != nil {
		return invokeRow{}, err
	}
	if _, _, err := f.Connect("srv", "cli", prof); err != nil {
		return invokeRow{}, err
	}
	conn, ok := cli.ConnTo("srv")
	if !ok {
		return invokeRow{}, fmt.Errorf("no conn to srv")
	}

	svc := &invokeBenchSvc{nap: srv.Peer().Pause, service: invokeServiceTime}
	if err := srv.Peer().Export("svc", svc); err != nil {
		return invokeRow{}, err
	}
	ref, err := cli.Peer().Remote(conn, "svc", invokeBenchSvc{})
	if err != nil {
		return invokeRow{}, err
	}

	clk := f.Clock()
	var (
		mu     sync.Mutex
		lats   []time.Duration
		shed   int
		failed int
		wg     sync.WaitGroup
	)
	start := clk.Now()
	for g := 0; g < invokers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < attempts; i++ {
				t0 := clk.Now()
				_, err := ref.Call("Work", g*attempts+i)
				d := clk.Now().Sub(t0)
				mu.Lock()
				switch {
				case err == nil:
					lats = append(lats, d)
				case errors.Is(err, transport.ErrInvokeQueueFull):
					shed++
				default:
					failed++
				}
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	elapsed := clk.Now().Sub(start)

	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	row := invokeRow{
		Invokers:         invokers,
		Attempts:         invokers * attempts,
		Completed:        len(lats),
		Shed:             shed,
		Failures:         failed,
		P50Ms:            durMs(invokePct(lats, 0.50)),
		P99Ms:            durMs(invokePct(lats, 0.99)),
		ElapsedVirtualMs: durMs(elapsed),
	}
	if elapsed > 0 {
		row.GoodputPerSec = float64(len(lats)) / elapsed.Seconds()
	}
	return row, nil
}

// runInvokePipelineCompare times the same call burst twice over a
// clean 50ms-latency link: strictly serialized (Call, one in flight)
// vs pipelined (CallAsync behind a client window of `depth`). The
// method is instant, so the measured gap is pure round-trip overlap.
func runInvokePipelineCompare(calls, depth int) (invokePipeline, error) {
	const latency = 50 * time.Millisecond
	run := func(pipelined bool) (time.Duration, error) {
		f := transport.NewFabric(*seed, transport.WithVirtualClock())
		defer func() { _ = f.Close() }()

		srv, err := f.AddPeerWithRegistry("srv", registry.New(),
			transport.WithRequestTimeout(30*time.Second),
			transport.WithReliableLinks(invokeRelOpts()...))
		if err != nil {
			return 0, err
		}
		cliOpts := []transport.PeerOption{
			transport.WithRequestTimeout(30 * time.Second),
			transport.WithReliableLinks(invokeRelOpts()...),
		}
		if pipelined {
			cliOpts = append(cliOpts, transport.WithInvokePacing(depth, 0))
		}
		cli, err := f.AddPeerWithRegistry("cli", registry.New(), cliOpts...)
		if err != nil {
			return 0, err
		}
		if _, _, err := f.Connect("srv", "cli", transport.FaultProfile{Latency: latency}); err != nil {
			return 0, err
		}
		conn, ok := cli.ConnTo("srv")
		if !ok {
			return 0, fmt.Errorf("no conn to srv")
		}
		if err := srv.Peer().Export("svc", &invokeBenchSvc{}); err != nil {
			return 0, err
		}
		ref, err := cli.Peer().Remote(conn, "svc", invokeBenchSvc{})
		if err != nil {
			return 0, err
		}

		clk := f.Clock()
		start := clk.Now()
		if pipelined {
			pending := make([]*transport.PendingCall, 0, calls)
			for i := 0; i < calls; i++ {
				pc, err := ref.CallAsync("Work", i)
				if err != nil {
					return 0, err
				}
				pending = append(pending, pc)
			}
			for _, pc := range pending {
				if _, err := pc.Wait(); err != nil {
					return 0, err
				}
			}
		} else {
			for i := 0; i < calls; i++ {
				if _, err := ref.Call("Work", i); err != nil {
					return 0, err
				}
			}
		}
		return clk.Now().Sub(start), nil
	}

	serialized, err := run(false)
	if err != nil {
		return invokePipeline{}, fmt.Errorf("serialized run: %w", err)
	}
	pipelined, err := run(true)
	if err != nil {
		return invokePipeline{}, fmt.Errorf("pipelined run: %w", err)
	}
	return invokePipeline{
		Calls:        calls,
		Depth:        depth,
		LatencyMs:    durMs(latency),
		SerializedMs: durMs(serialized),
		PipelinedMs:  durMs(pipelined),
	}, nil
}

// invokePct returns the q-quantile of an ascending latency slice
// (nearest rank).
func invokePct(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted)-1) + 0.5)
	return sorted[i]
}

func durMs(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
