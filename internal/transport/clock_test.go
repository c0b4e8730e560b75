package transport

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"time"
)

// TestManualClockAdvanceFiresInDeadlineOrder: timers fire exactly
// when virtual time crosses their deadline, never before.
func TestManualClockAdvanceFiresInDeadlineOrder(t *testing.T) {
	c := NewManualClock()
	t5 := c.NewTimer(5 * time.Millisecond)
	t10 := c.NewTimer(10 * time.Millisecond)
	t20 := c.NewTimer(20 * time.Millisecond)

	fired := func(tm Timer) bool {
		select {
		case <-tm.C():
			return true
		default:
			return false
		}
	}
	c.Advance(12 * time.Millisecond)
	if !fired(t5) || !fired(t10) {
		t.Error("timers within the advance did not fire")
	}
	if fired(t20) {
		t.Error("timer beyond the advance fired early")
	}
	if got := c.PendingTimers(); got != 1 {
		t.Errorf("PendingTimers = %d, want 1", got)
	}
	if !t20.Stop() {
		t.Error("Stop on a pending timer = false")
	}
	c.Advance(time.Hour)
	if fired(t20) {
		t.Error("stopped timer fired")
	}
	if t20.Stop() {
		t.Error("Stop on a stopped timer = true")
	}
}

// TestManualClockImmediateTimer: a non-positive duration fires at
// creation.
func TestManualClockImmediateTimer(t *testing.T) {
	c := NewManualClock()
	tm := c.NewTimer(0)
	select {
	case <-tm.C():
	default:
		t.Error("zero-duration timer did not fire immediately")
	}
}

// TestManualClockNowAdvances: Now reflects Advance, and Until is
// measured in virtual time.
func TestManualClockNowAdvances(t *testing.T) {
	c := NewManualClock()
	start := c.Now()
	deadline := start.Add(time.Hour)
	c.Advance(20 * time.Minute)
	if got := c.Now().Sub(start); got != 20*time.Minute {
		t.Errorf("Now advanced by %s, want 20m", got)
	}
	if got := c.Until(deadline); got != 40*time.Minute {
		t.Errorf("Until = %s, want 40m", got)
	}
}

// TestVirtualClockAutoAdvanceJumpsToDeadline: in auto mode a pending
// timer hours ahead in virtual time fires within real milliseconds.
func TestVirtualClockAutoAdvanceJumpsToDeadline(t *testing.T) {
	c := NewVirtualClock()
	defer c.Stop()
	tm := c.NewTimer(3 * time.Hour)
	select {
	case <-tm.C():
	case <-time.After(2 * time.Second):
		t.Fatal("auto-advance never reached a 3h deadline")
	}
	if got := c.Now().Sub(vclockEpoch); got < 3*time.Hour {
		t.Errorf("virtual now advanced %s, want >= 3h", got)
	}
}

// TestVirtualTimerHeapMatchesNaiveModel is the event-queue property
// test: the heap-backed timer queue — including Reset's in-place
// heap.Fix re-key and Stop's heap.Remove — must be behaviourally
// indistinguishable from a naive linear-scan reference model across
// randomized interleavings of NewTimer, Advance, Reset and Stop.
// After every operation the test compares, per timer: whether a tick
// is deliverable, the timestamp it carries, the pending reports of
// Stop and Reset, and the clock's pending-timer count. A third of the
// ticks are deliberately left unread so later Resets exercise the
// stale-tick drain path. PTI_SEED replays a failing interleaving.
func TestVirtualTimerHeapMatchesNaiveModel(t *testing.T) {
	seed := scenarioSeed(t, 424242)
	defer func() {
		if t.Failed() {
			t.Logf("replay with PTI_SEED=%d", seed)
		}
	}()
	rng := rand.New(rand.NewSource(seed))
	c := NewManualClock()
	now := c.Now()

	// Reference model: one entry per timer, advanced by scanning every
	// entry linearly — the obviously-correct implementation the heap
	// must match.
	type modelTimer struct {
		deadline time.Time
		pending  bool      // armed, not yet fired or stopped
		hasTick  bool      // fired with the tick not yet consumed
		tick     time.Time // timestamp the unconsumed tick carries
	}
	var (
		real  []Timer
		model []*modelTimer
	)
	fireDue := func() {
		for _, m := range model {
			if m.pending && !m.deadline.After(now) {
				m.pending = false
				m.hasTick = true
				m.tick = now
			}
		}
	}
	arm := func(m *modelTimer, d time.Duration) {
		if d <= 0 {
			m.pending = false
			m.hasTick = true
			m.tick = now
		} else {
			m.pending = true
			m.deadline = now.Add(d)
		}
	}
	randDur := func() time.Duration {
		// Skewed toward small positive values, with occasional
		// non-positive durations to exercise the fire-immediately path
		// and exact collisions from the coarse 1ms grain.
		return time.Duration(rng.Intn(32)-2) * time.Millisecond
	}

	check := func(step int) {
		pending := 0
		for i, m := range model {
			if m.pending {
				pending++
			}
			if rng.Intn(3) == 0 {
				continue // leave the tick (if any) unread for a later Reset
			}
			select {
			case ts := <-real[i].C():
				if !m.hasTick {
					t.Fatalf("step %d: timer %d fired but the model holds no tick", step, i)
				}
				if !ts.Equal(m.tick) {
					t.Fatalf("step %d: timer %d tick %v, model %v", step, i, ts, m.tick)
				}
				m.hasTick = false
			default:
				if m.hasTick {
					t.Fatalf("step %d: model holds a tick for timer %d but none was delivered", step, i)
				}
			}
		}
		if got := c.PendingTimers(); got != pending {
			t.Fatalf("step %d: PendingTimers = %d, model %d", step, got, pending)
		}
	}

	const steps = 4000
	for step := 0; step < steps; step++ {
		switch op := rng.Intn(10); {
		case op < 3 && len(real) < 256:
			d := randDur()
			real = append(real, c.NewTimer(d))
			m := &modelTimer{}
			arm(m, d)
			model = append(model, m)
		case op < 6:
			d := time.Duration(rng.Intn(20)) * time.Millisecond
			c.Advance(d)
			if target := now.Add(d); target.After(now) {
				now = target
			}
			fireDue()
		case op < 9 && len(real) > 0:
			i := rng.Intn(len(real))
			d := randDur()
			wasPending := real[i].Reset(d)
			m := model[i]
			if wasPending != m.pending {
				t.Fatalf("step %d: Reset(timer %d) pending = %v, model %v", step, i, wasPending, m.pending)
			}
			m.hasTick = false // Reset drains a stale unread tick
			arm(m, d)
		case len(real) > 0:
			i := rng.Intn(len(real))
			wasPending := real[i].Stop()
			m := model[i]
			if wasPending != m.pending {
				t.Fatalf("step %d: Stop(timer %d) pending = %v, model %v", step, i, wasPending, m.pending)
			}
			m.pending = false // Stop leaves an already-delivered tick intact
		}
		check(step)
	}
}

// TestVirtualClockStopHaltsAdvance: after Stop, pending timers never
// fire.
func TestVirtualClockStopHaltsAdvance(t *testing.T) {
	c := NewVirtualClock()
	c.Stop()
	tm := c.NewTimer(time.Millisecond)
	select {
	case <-tm.C():
		t.Error("timer fired on a stopped clock")
	case <-time.After(50 * time.Millisecond):
	}
}

// TestManualClockAbsoluteTimers: NewTimerAt and ResetAt arm at the
// instant given, whatever the clock read when the caller computed it;
// an instant not in the future fires at once.
func TestManualClockAbsoluteTimers(t *testing.T) {
	c := NewManualClock()
	start := c.Now()
	tm := c.NewTimerAt(start.Add(10 * time.Millisecond))
	c.Advance(9 * time.Millisecond)
	select {
	case <-tm.C():
		t.Fatal("timer fired before its instant")
	default:
	}
	if !tm.ResetAt(start.Add(12 * time.Millisecond)) {
		t.Error("ResetAt on a pending timer reported it not pending")
	}
	c.Advance(2 * time.Millisecond)
	select {
	case <-tm.C():
		t.Fatal("re-armed timer fired before its instant")
	default:
	}
	c.Advance(time.Millisecond)
	select {
	case <-tm.C():
	default:
		t.Fatal("re-armed timer did not fire at its instant")
	}
	tm.ResetAt(start) // in the past
	select {
	case <-tm.C():
	default:
		t.Fatal("ResetAt a past instant did not fire at once")
	}
	if c.PendingTimers() != 0 {
		t.Errorf("pending timers = %d, want 0", c.PendingTimers())
	}
	select {
	case <-c.NewTimerAt(start).C():
	default:
		t.Fatal("NewTimerAt a past instant did not fire at once")
	}
}

// skewClock is a manual clock that moves once, by skew, right after
// the nth reading at or past from: the auto-advancer stepping in
// between a waiter reading the clock and arming its timer.
type skewClock struct {
	*VirtualClock
	from  time.Time
	nth   int32
	skew  time.Duration
	count atomic.Int32
}

func (c *skewClock) Now() time.Time {
	now := c.VirtualClock.Now()
	if !now.Before(c.from) && c.count.Add(1) == c.nth {
		c.VirtualClock.Advance(c.skew)
	}
	return now
}

// TestSchedShardArmsAtHeadDeadline: time moves between the scheduler
// shard reading the clock and arming its timer for the next frame, and
// that frame must still deliver at its deadline. A shard arming at a
// wait computed from the earlier reading lands past the deadline; on
// the virtual clock the due-but-undelivered head then reads busy, so
// time never reaches the late timer and the fabric stalls for good.
func TestSchedShardArmsAtHeadDeadline(t *testing.T) {
	start := vclockEpoch
	// The shard reads the clock twice after waking at +10ms: once to
	// find the first frame due, once to arm for the second.
	clock := &skewClock{VirtualClock: NewManualClock(),
		from: start.Add(10 * time.Millisecond), nth: 2, skew: 5 * time.Millisecond}
	s := &schedShard{clock: clock, kick: make(chan struct{}, 1),
		done: make(chan struct{}), ops: new(atomic.Uint64)}
	d := &linkDir{name: "a->b", dst: newFrameBuffer(&fabricBusy{}), shard: s}

	// Both frames are queued before the shard runs, and the one kick is
	// taken back, so the shard wakes only on its own timer: the test
	// sees every reading and arming it makes.
	s.enqueue(d, []byte("first"), start.Add(10*time.Millisecond))
	s.enqueue(d, []byte("second"), start.Add(20*time.Millisecond))
	<-s.kick
	go s.run()
	defer close(s.done)

	if !waitUntil(2*time.Second, func() bool { return clock.PendingTimers() == 1 }) {
		t.Fatal("shard never armed its timer")
	}
	// The shard wakes at +10ms and delivers the first frame; the clock
	// moves to +15ms between its reading and its arming for the second.
	clock.VirtualClock.Advance(10 * time.Millisecond)
	if !waitUntil(2*time.Second, func() bool {
		return d.delivered.Load() == 1 && clock.PendingTimers() == 1
	}) {
		t.Fatalf("first frame: delivered %d, pending timers %d", d.delivered.Load(), clock.PendingTimers())
	}
	clock.VirtualClock.Advance(start.Add(20 * time.Millisecond).Sub(clock.VirtualClock.Now()))
	if !waitUntil(2*time.Second, func() bool { return d.delivered.Load() == 2 }) {
		t.Fatalf("frame due at +20ms undelivered at +%v: the shard's timer landed past the deadline",
			clock.VirtualClock.Now().Sub(start))
	}
}
