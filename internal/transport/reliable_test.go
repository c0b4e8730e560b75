package transport

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// The reliable layer's unit tests drive the sender and receiver
// machinery directly — a scripted link and a manual clock on the
// sender side, captured callbacks on the receiver side — separate
// from the fabric scenarios, which exercise the same machinery
// end-to-end under fault schedules.

// scriptLink records every frame the reliable sender puts on the
// wire.
type scriptLink struct {
	mu      sync.Mutex
	sendErr error
	frames  []*Message
}

func (l *scriptLink) Send(m *Message) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.sendErr != nil {
		return l.sendErr
	}
	l.frames = append(l.frames, m)
	return nil
}

func (l *scriptLink) Request(MsgType, []byte) (*Message, error) {
	return nil, errors.New("scriptLink: no requests")
}

func (l *scriptLink) Close() error { return nil }

func (l *scriptLink) count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.frames)
}

// dataFrames decodes the (epoch, seq) headers of every recorded
// reliable data frame.
func (l *scriptLink) dataFrames(t *testing.T) (epochs, seqs []uint64) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, m := range l.frames {
		if m.Type != MsgReliableData {
			t.Fatalf("non-reliable frame %s on scripted link", m.Type)
		}
		e, s, _, err := decodeRelData(m.Body)
		if err != nil {
			t.Fatal(err)
		}
		epochs = append(epochs, e)
		seqs = append(seqs, s)
	}
	return epochs, seqs
}

// recvHarness captures a relReceiver's four callbacks.
type recvHarness struct {
	mu         sync.Mutex
	dispatched []uint64 // inner Seq, used as a payload marker
	replies    []uint64
	acks       [][2]uint64 // (epoch, cum)
	nacks      [][]uint64  // per report: [epoch, seqs...]
	stats      Stats
	rr         *relReceiver
}

func newRecvHarness() *recvHarness {
	h := &recvHarness{}
	h.rr = newRelReceiver(&h.stats,
		func(m *Message) { h.mu.Lock(); h.dispatched = append(h.dispatched, m.Seq); h.mu.Unlock() },
		func(m *Message) { h.mu.Lock(); h.replies = append(h.replies, m.Seq); h.mu.Unlock() },
		func(epoch, cum uint64) { h.mu.Lock(); h.acks = append(h.acks, [2]uint64{epoch, cum}); h.mu.Unlock() },
		func(epoch uint64, seqs []uint64) {
			h.mu.Lock()
			h.nacks = append(h.nacks, append([]uint64{epoch}, seqs...))
			h.mu.Unlock()
		})
	return h
}

func (h *recvHarness) feed(t *testing.T, epoch, seq uint64, inner *Message) {
	t.Helper()
	if err := h.rr.handleData(encodeRelData(epoch, seq, inner)); err != nil {
		t.Fatalf("handleData(e=%d s=%d): %v", epoch, seq, err)
	}
}

func (h *recvHarness) lastAck(t *testing.T) [2]uint64 {
	t.Helper()
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.acks) == 0 {
		t.Fatal("no ack recorded")
	}
	return h.acks[len(h.acks)-1]
}

func obj(marker uint64) *Message   { return &Message{Type: MsgObject, Seq: marker} }
func reply(marker uint64) *Message { return &Message{Type: MsgTypeInfoReply, Seq: marker} }

// TestRelReceiverTable drives the receiver through its dedup,
// buffering, ack and epoch transitions — including the ack-loss case:
// the sender retransmits an already-delivered frame and the receiver
// suppresses it while re-acking.
func TestRelReceiverTable(t *testing.T) {
	type frame struct {
		epoch, seq uint64
		inner      *Message
	}
	cases := []struct {
		name           string
		frames         []frame
		wantDispatched []uint64
		wantReplies    []uint64
		wantFinalAck   [2]uint64
		wantDeduped    uint64
	}{
		{
			name:           "in-order stream",
			frames:         []frame{{1, 1, obj(10)}, {1, 2, obj(11)}, {1, 3, obj(12)}},
			wantDispatched: []uint64{10, 11, 12},
			wantFinalAck:   [2]uint64{1, 3},
		},
		{
			name:           "reordered frames dispatch in sequence order",
			frames:         []frame{{1, 2, obj(11)}, {1, 3, obj(12)}, {1, 1, obj(10)}},
			wantDispatched: []uint64{10, 11, 12},
			wantFinalAck:   [2]uint64{1, 3},
		},
		{
			name: "ack loss: retransmitted frame deduped and re-acked",
			frames: []frame{
				{1, 1, obj(10)},
				{1, 1, obj(10)}, // the ack was lost; the sender resent
			},
			wantDispatched: []uint64{10},
			wantFinalAck:   [2]uint64{1, 1},
			wantDeduped:    1,
		},
		{
			name: "duplicate of buffered out-of-order frame",
			frames: []frame{
				{1, 2, obj(11)},
				{1, 2, obj(11)},
				{1, 1, obj(10)},
			},
			wantDispatched: []uint64{10, 11},
			wantFinalAck:   [2]uint64{1, 2},
			wantDeduped:    1,
		},
		{
			name: "newer epoch resets sequence state",
			frames: []frame{
				{1, 1, obj(10)},
				{1, 2, obj(11)},
				{2, 1, obj(20)}, // restarted sender
				{2, 2, obj(21)},
			},
			wantDispatched: []uint64{10, 11, 20, 21},
			wantFinalAck:   [2]uint64{2, 2},
		},
		{
			name: "ghost frames from an old epoch never redeliver",
			frames: []frame{
				{2, 1, obj(20)},
				{1, 7, obj(10)}, // pre-restart sender's retransmit
				{1, 1, obj(11)},
			},
			wantDispatched: []uint64{20},
			wantFinalAck:   [2]uint64{2, 1},
			wantDeduped:    2,
		},
		{
			name: "replies bypass the in-order queue",
			frames: []frame{
				{1, 2, reply(99)}, // reply arrives before the object filling seq 1
				{1, 1, obj(10)},
			},
			wantDispatched: []uint64{10},
			wantReplies:    []uint64{99},
			wantFinalAck:   [2]uint64{1, 2},
		},
		{
			name: "frame beyond the receive buffer is dropped but acked",
			frames: []frame{
				{1, 1, obj(10)},
				{1, 1 + relRecvBuffer + 5, obj(66)},
			},
			wantDispatched: []uint64{10},
			wantFinalAck:   [2]uint64{1, 1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newRecvHarness()
			for _, f := range tc.frames {
				h.feed(t, f.epoch, f.seq, f.inner)
			}
			h.mu.Lock()
			dispatched := append([]uint64(nil), h.dispatched...)
			replies := append([]uint64(nil), h.replies...)
			h.mu.Unlock()
			if fmt.Sprint(dispatched) != fmt.Sprint(tc.wantDispatched) {
				t.Errorf("dispatched = %v, want %v", dispatched, tc.wantDispatched)
			}
			if fmt.Sprint(replies) != fmt.Sprint(tc.wantReplies) {
				t.Errorf("replies = %v, want %v", replies, tc.wantReplies)
			}
			if got := h.lastAck(t); got != tc.wantFinalAck {
				t.Errorf("final ack = %v, want %v", got, tc.wantFinalAck)
			}
			if got := h.stats.relDeduped.Load(); got != tc.wantDeduped {
				t.Errorf("deduped = %d, want %d", got, tc.wantDeduped)
			}
		})
	}
}

// TestReliableWindowBackpressure pins the satellite requirement: Send
// blocks while Window object frames are unacked, control frames
// bypass the window, and an ack (or link failure) unblocks the
// waiter.
func TestReliableWindowBackpressure(t *testing.T) {
	for _, window := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("window=%d", window), func(t *testing.T) {
			link := &scriptLink{}
			clock := NewManualClock()
			r := NewReliableLink(link, clock, WithWindow(window),
				WithRetransmitTimeout(time.Hour)) // timers out of the way
			defer r.Close()

			for i := 0; i < window; i++ {
				if err := r.Send(obj(uint64(i))); err != nil {
					t.Fatal(err)
				}
			}
			blocked := make(chan error, 1)
			go func() { blocked <- r.Send(obj(999)) }()
			select {
			case err := <-blocked:
				t.Fatalf("Send beyond window returned early: %v", err)
			case <-time.After(50 * time.Millisecond):
			}
			// Control frames bypass the window even while data is
			// blocked.
			if err := r.Send(&Message{Type: MsgTypeInfoRequest, Seq: 7}); err != nil {
				t.Fatalf("control send blocked by full window: %v", err)
			}
			// Ack the first object: exactly one slot frees.
			r.Ack(encodeRelAck(r.Snapshot().Epoch, 1))
			select {
			case err := <-blocked:
				if err != nil {
					t.Fatalf("unblocked Send failed: %v", err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("Send still blocked after ack freed the window")
			}
			if got := r.Snapshot().InFlightData; got != window {
				t.Errorf("InFlightData = %d, want %d", got, window)
			}

			// A blocked Send must also fail fast when the link dies.
			go func() { blocked <- r.Send(obj(1000)) }()
			time.Sleep(20 * time.Millisecond)
			r.stop()
			select {
			case err := <-blocked:
				if !errors.Is(err, ErrClosed) {
					t.Errorf("Send after stop = %v, want ErrClosed", err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("Send still blocked after link stopped")
			}
		})
	}
}

// TestReliableRetransmitBackoff pins the timer schedule: a frame
// whose ack is lost is resent at RTO, then 2×RTO, capped at
// MaxBackoff — and never again once acked.
func TestReliableRetransmitBackoff(t *testing.T) {
	link := &scriptLink{}
	clock := NewManualClock()
	const rto = 10 * time.Millisecond
	r := NewReliableLink(link, clock, WithRetransmitTimeout(rto), WithMaxBackoff(4*rto))
	defer r.Close()

	if err := r.Send(obj(1)); err != nil {
		t.Fatal(err)
	}
	if link.count() != 1 {
		t.Fatalf("initial sends = %d, want 1", link.count())
	}
	advanceAndAwait := func(d time.Duration, wantFrames int) {
		t.Helper()
		// Let the retransmit loop park on the clock before advancing.
		if !waitUntil(2*time.Second, func() bool { return clock.PendingTimers() >= 1 }) {
			t.Fatal("retransmit loop never armed its timer")
		}
		clock.Advance(d)
		if !waitUntil(2*time.Second, func() bool { return link.count() >= wantFrames }) {
			t.Fatalf("frames = %d, want %d after advance", link.count(), wantFrames)
		}
		if link.count() > wantFrames {
			t.Fatalf("frames = %d, want exactly %d", link.count(), wantFrames)
		}
	}
	advanceAndAwait(rto, 2)   // first retransmit at RTO
	advanceAndAwait(2*rto, 3) // backoff doubled
	advanceAndAwait(4*rto, 4) // capped at MaxBackoff
	if got := r.Snapshot().Retransmits; got != 3 {
		t.Errorf("retransmits = %d, want 3", got)
	}

	r.Ack(encodeRelAck(r.Snapshot().Epoch, 1))
	if !waitUntil(2*time.Second, func() bool { return r.Snapshot().InFlight == 0 }) {
		t.Fatal("ack did not clear the in-flight set")
	}
	clock.Advance(time.Minute)
	time.Sleep(20 * time.Millisecond)
	if got := link.count(); got != 4 {
		t.Errorf("acked frame retransmitted: %d frames", got)
	}

	// All retransmitted bytes must be identical to the original frame.
	link.mu.Lock()
	first := link.frames[0].Body
	for i, m := range link.frames {
		if string(m.Body) != string(first) {
			t.Errorf("retransmit %d differs from original frame", i)
		}
	}
	link.mu.Unlock()
}

// TestReliableGiveUpFailsLink: MaxAttempts bounds retransmission;
// exhausting it fails the link with ErrReliableGaveUp.
func TestReliableGiveUpFailsLink(t *testing.T) {
	link := &scriptLink{}
	clock := NewManualClock()
	r := NewReliableLink(link, clock,
		WithRetransmitTimeout(time.Millisecond), WithMaxBackoff(time.Millisecond), WithMaxAttempts(3))
	defer r.Close()
	if err := r.Send(obj(1)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if !waitUntil(time.Second, func() bool { return clock.PendingTimers() >= 1 }) {
			break // loop exited: link failed
		}
		clock.Advance(2 * time.Millisecond)
		time.Sleep(5 * time.Millisecond)
	}
	err := r.Send(obj(2))
	if !errors.Is(err, ErrReliableGaveUp) {
		t.Errorf("Send after give-up = %v, want ErrReliableGaveUp", err)
	}
}

// TestReliableSeqWrapRollsEpoch pins the seq-wrap/restart
// interaction: exhausting the sequence space drains the window, rolls
// to a fresh epoch, and the receiver delivers across the roll exactly
// once and in order.
func TestReliableSeqWrapRollsEpoch(t *testing.T) {
	link := &scriptLink{}
	clock := NewManualClock()
	r := NewReliableLink(link, clock, WithRetransmitTimeout(time.Hour))
	defer r.Close()

	// Jump to the edge of the sequence space.
	r.mu.Lock()
	r.nextSeq = math.MaxUint64 - 1
	oldEpoch := r.epoch
	r.mu.Unlock()

	if err := r.Send(obj(1)); err != nil { // seq MaxUint64-1
		t.Fatal(err)
	}
	if err := r.Send(obj(2)); err != nil { // seq MaxUint64: space exhausted
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- r.Send(obj(3)) }() // must wait for the drain
	select {
	case err := <-done:
		t.Fatalf("Send across wrap returned before drain: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	r.Ack(encodeRelAck(oldEpoch, math.MaxUint64))
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	epochs, seqs := link.dataFrames(t)
	if len(seqs) != 3 {
		t.Fatalf("frames = %d, want 3", len(seqs))
	}
	if seqs[0] != math.MaxUint64-1 || seqs[1] != math.MaxUint64 || seqs[2] != 1 {
		t.Errorf("seqs = %v, want [max-1, max, 1]", seqs)
	}
	if epochs[0] != oldEpoch || epochs[1] != oldEpoch || epochs[2] <= oldEpoch {
		t.Errorf("epochs = %v, want [%d, %d, >%d]", epochs, oldEpoch, oldEpoch, oldEpoch)
	}

	// A receiver mid-stream on the old epoch delivers across the roll
	// exactly once, in order.
	h := newRecvHarness()
	h.rr.mu.Lock()
	h.rr.epoch = oldEpoch
	h.rr.next = math.MaxUint64 - 1
	h.rr.mu.Unlock()
	link.mu.Lock()
	frames := append([]*Message(nil), link.frames...)
	link.mu.Unlock()
	for _, m := range frames {
		if err := h.rr.handleData(m.Body); err != nil {
			t.Fatal(err)
		}
		// Retransmit every frame once: dedup must hold across the roll.
		if err := h.rr.handleData(m.Body); err != nil {
			t.Fatal(err)
		}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if fmt.Sprint(h.dispatched) != fmt.Sprint([]uint64{1, 2, 3}) {
		t.Errorf("dispatched across wrap = %v, want [1 2 3]", h.dispatched)
	}
}

// TestReliableSendFailsWhenLinkDies: a raw-send error marks the link
// dead and surfaces the error.
func TestReliableSendFailsWhenLinkDies(t *testing.T) {
	link := &scriptLink{sendErr: errors.New("wire cut")}
	r := NewReliableLink(link, NewManualClock())
	defer r.Close()
	if err := r.Send(obj(1)); err == nil {
		t.Fatal("Send over a dead link succeeded")
	}
	if err := r.Send(obj(2)); err == nil {
		t.Fatal("Send after link failure succeeded")
	}
}

// TestReliableControlBacklogFailsLink: control frames bypass the
// window, so a link that stops acking must eventually fail rather
// than accumulate unacked control frames without bound.
func TestReliableControlBacklogFailsLink(t *testing.T) {
	link := &scriptLink{}
	clock := NewManualClock()
	r := NewReliableLink(link, clock, WithWindow(2), WithRetransmitTimeout(time.Hour))
	defer r.Close()
	limit := r.maxInflightTotal()
	var err error
	for i := 0; i <= limit+1; i++ {
		if err = r.Send(&Message{Type: MsgTypeInfoRequest, Seq: uint64(i)}); err != nil {
			break
		}
	}
	if !errors.Is(err, ErrReliableGaveUp) {
		t.Fatalf("backlogged link error = %v, want ErrReliableGaveUp", err)
	}
	if got := r.Snapshot().InFlight; got > limit {
		t.Errorf("in-flight = %d, exceeds cap %d", got, limit)
	}
	// The failed link stays failed.
	if err := r.Send(obj(1)); !errors.Is(err, ErrReliableGaveUp) {
		t.Errorf("Send after backlog failure = %v, want ErrReliableGaveUp", err)
	}
}

// --- async pipeline, adaptive RTO, NACK (PR 5) ------------------------

// TestReliableSendQueueAsync pins the pipeline's core property: Send
// returns after enqueueing even when the window is full, the sender
// goroutine drains the queue as acks free window slots, and queue
// depth/peak are observable.
func TestReliableSendQueueAsync(t *testing.T) {
	link := &scriptLink{}
	clock := NewManualClock()
	r := NewReliableLink(link, clock,
		WithWindow(2), WithSendQueue(8), WithRetransmitTimeout(time.Hour))
	defer r.Close()

	done := make(chan struct{})
	go func() {
		for i := 0; i < 5; i++ {
			if err := r.Send(obj(uint64(i))); err != nil {
				t.Errorf("async Send %d: %v", i, err)
			}
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Send blocked despite the send queue")
	}
	// The sender goroutine puts exactly Window frames on the wire.
	if !waitUntil(2*time.Second, func() bool { return link.count() == 2 }) {
		t.Fatalf("frames on wire = %d, want 2 (window)", link.count())
	}
	snap := r.Snapshot()
	if snap.QueueDepth != 3 {
		t.Errorf("QueueDepth = %d, want 3", snap.QueueDepth)
	}
	if snap.QueuePeak < 3 {
		t.Errorf("QueuePeak = %d, want >= 3", snap.QueuePeak)
	}
	// Each ack admits the next queued frame.
	r.Ack(encodeRelAck(snap.Epoch, 1))
	if !waitUntil(2*time.Second, func() bool { return link.count() == 3 }) {
		t.Fatalf("frames on wire = %d after ack, want 3", link.count())
	}
	r.Ack(encodeRelAck(snap.Epoch, 5))
	if !waitUntil(2*time.Second, func() bool { return r.Snapshot().QueueDepth == 0 }) {
		t.Fatalf("queue never drained: %+v", r.Snapshot())
	}
}

// TestReliableQueueOverflowPolicies drives each full-queue policy:
// block applies backpressure, drop-oldest sheds the stalest object
// frame with a counter, error fails fast.
func TestReliableQueueOverflowPolicies(t *testing.T) {
	// Window 1 and no acks: one frame on the wire, the rest queued.
	setup := func(p OverflowPolicy) *ReliableLink {
		return NewReliableLink(&scriptLink{}, NewManualClock(),
			WithWindow(1), WithSendQueue(2), WithOverflowPolicy(p),
			WithRetransmitTimeout(time.Hour))
	}

	t.Run("block", func(t *testing.T) {
		r := setup(OverflowBlock)
		defer r.Close()
		for i := 0; i < 3; i++ { // 1 in flight + 2 queued
			if err := r.Send(obj(uint64(i))); err != nil {
				t.Fatal(err)
			}
		}
		if !waitUntil(2*time.Second, func() bool { return r.Snapshot().QueueDepth == 2 }) {
			t.Fatalf("queue = %+v, want depth 2", r.Snapshot())
		}
		blocked := make(chan error, 1)
		go func() { blocked <- r.Send(obj(99)) }()
		select {
		case err := <-blocked:
			t.Fatalf("Send on full queue returned early: %v", err)
		case <-time.After(50 * time.Millisecond):
		}
		r.Ack(encodeRelAck(r.Snapshot().Epoch, 1)) // window frees, sender drains one
		select {
		case err := <-blocked:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("Send still blocked after the queue drained")
		}
	})

	t.Run("drop-oldest", func(t *testing.T) {
		r := setup(OverflowDropOldest)
		defer r.Close()
		// Reach a quiescent full-pipeline state step by step (an
		// enqueue racing the sender goroutine could otherwise fill
		// the queue early and shed a frame during setup).
		if err := r.Send(obj(0)); err != nil {
			t.Fatal(err)
		}
		if !waitUntil(2*time.Second, func() bool { return r.Snapshot().InFlightData == 1 }) {
			t.Fatalf("first frame never reached the window: %+v", r.Snapshot())
		}
		for i := 1; i < 3; i++ {
			if err := r.Send(obj(uint64(i))); err != nil {
				t.Fatal(err)
			}
		}
		if !waitUntil(2*time.Second, func() bool { return r.Snapshot().QueueDepth == 2 }) {
			t.Fatalf("queue = %+v, want depth 2", r.Snapshot())
		}
		if err := r.Send(obj(99)); err != nil { // sheds the oldest queued object
			t.Fatalf("drop-oldest Send: %v", err)
		}
		snap := r.Snapshot()
		if snap.QueueDropped != 1 {
			t.Errorf("QueueDropped = %d, want 1", snap.QueueDropped)
		}
		if snap.QueueDepth != 2 {
			t.Errorf("QueueDepth = %d, want 2", snap.QueueDepth)
		}
	})

	t.Run("error", func(t *testing.T) {
		r := setup(OverflowError)
		defer r.Close()
		var err error
		for i := 0; i < 6 && err == nil; i++ {
			err = r.Send(obj(uint64(i)))
		}
		if !errors.Is(err, ErrQueueFull) {
			t.Fatalf("overflow error = %v, want ErrQueueFull", err)
		}
	})
}

// TestReliableQueueAbandonedOnShutdown: frames still queued when the
// link dies are reported, never silently lost.
func TestReliableQueueAbandonedOnShutdown(t *testing.T) {
	r := NewReliableLink(&scriptLink{}, NewManualClock(),
		WithWindow(1), WithSendQueue(8), WithRetransmitTimeout(time.Hour))
	for i := 0; i < 5; i++ { // 1 in flight, 4 queued
		if err := r.Send(obj(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if !waitUntil(2*time.Second, func() bool { return r.Snapshot().QueueDepth == 4 }) {
		t.Fatalf("queue = %+v, want depth 4", r.Snapshot())
	}
	r.stop()
	if got := r.Snapshot().QueueAbandoned; got != 4 {
		t.Errorf("QueueAbandoned = %d, want 4", got)
	}
	// Double-Close is safe and idempotent.
	if err := r.Close(); err != nil {
		t.Errorf("first Close: %v", err)
	}
	if err := r.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// TestReliableFlush: Flush returns once queue and in-flight drain,
// and times out with ErrFlushTimeout when the peer never acks.
func TestReliableFlush(t *testing.T) {
	link := &scriptLink{}
	clock := NewManualClock()
	r := NewReliableLink(link, clock, WithSendQueue(8), WithRetransmitTimeout(time.Hour))
	defer r.Close()
	for i := 0; i < 3; i++ {
		if err := r.Send(obj(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	flushed := make(chan error, 1)
	go func() { flushed <- r.Flush(time.Hour) }()
	select {
	case err := <-flushed:
		t.Fatalf("Flush returned with frames unacked: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	r.Ack(encodeRelAck(r.Snapshot().Epoch, 3))
	select {
	case err := <-flushed:
		if err != nil {
			t.Fatalf("Flush after full ack: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Flush never returned after the in-flight set drained")
	}

	// Unacked frames: the flush timer must fire and report. Wait for
	// BOTH pending timers — the retransmit loop's hour-long deadline
	// for the unacked frame and the flush watcher's 10ms one — so the
	// advance below cannot slip in before the flush timer registers.
	if err := r.Send(obj(9)); err != nil {
		t.Fatal(err)
	}
	timeoutCh := make(chan error, 1)
	go func() { timeoutCh <- r.Flush(10 * time.Millisecond) }()
	if !waitUntil(2*time.Second, func() bool { return clock.PendingTimers() >= 2 }) {
		t.Fatal("flush + retransmit timers never both registered")
	}
	clock.Advance(20 * time.Millisecond)
	select {
	case err := <-timeoutCh:
		if !errors.Is(err, ErrFlushTimeout) {
			t.Fatalf("Flush = %v, want ErrFlushTimeout", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Flush never timed out")
	}
}

// TestReliableAdaptiveRTO pins the estimator: the first clean sample
// seeds SRTT/RTTVAR (RTO = SRTT + 4·RTTVAR), later frames start from
// the adaptive value, and Karn's rule keeps retransmitted frames out
// of the sample stream.
func TestReliableAdaptiveRTO(t *testing.T) {
	link := &scriptLink{}
	clock := NewManualClock()
	r := NewReliableLink(link, clock, WithAdaptiveRTO(),
		WithRetransmitTimeout(500*time.Millisecond), WithMaxBackoff(10*time.Second))
	defer r.Close()

	if err := r.Send(obj(1)); err != nil {
		t.Fatal(err)
	}
	if got := r.Snapshot().RTO; got != 500*time.Millisecond {
		t.Fatalf("pre-sample RTO = %v, want the fixed fallback", got)
	}
	clock.Advance(8 * time.Millisecond) // the measured round trip
	r.Ack(encodeRelAck(r.Snapshot().Epoch, 1))
	snap := r.Snapshot()
	if snap.SRTT != 8*time.Millisecond || snap.RTTVar != 4*time.Millisecond {
		t.Fatalf("SRTT/RTTVAR = %v/%v, want 8ms/4ms", snap.SRTT, snap.RTTVar)
	}
	if want := 24 * time.Millisecond; snap.RTO != want { // SRTT + 4·RTTVAR
		t.Fatalf("adaptive RTO = %v, want %v", snap.RTO, want)
	}
	if snap.RTTSamples != 1 {
		t.Fatalf("samples = %d, want 1", snap.RTTSamples)
	}

	// Karn: a retransmitted frame must not contribute a sample.
	if err := r.Send(obj(2)); err != nil {
		t.Fatal(err)
	}
	if !waitUntil(2*time.Second, func() bool { return clock.PendingTimers() >= 1 }) {
		t.Fatal("retransmit timer never armed")
	}
	clock.Advance(30 * time.Millisecond) // past the 24ms adaptive RTO: retransmit
	if !waitUntil(2*time.Second, func() bool { return r.Snapshot().Retransmits == 1 }) {
		t.Fatalf("retransmits = %d, want 1", r.Snapshot().Retransmits)
	}
	r.Ack(encodeRelAck(r.Snapshot().Epoch, 2))
	if got := r.Snapshot().RTTSamples; got != 1 {
		t.Errorf("samples after ambiguous ack = %d, want 1 (Karn)", got)
	}
}

// TestReliableMinRTOClampsEstimate: a sub-millisecond measured RTT
// must not drive the retransmit timer below the configured floor.
func TestReliableMinRTOClampsEstimate(t *testing.T) {
	link := &scriptLink{}
	clock := NewManualClock()
	r := NewReliableLink(link, clock, WithAdaptiveRTO(), WithMinRTO(5*time.Millisecond))
	defer r.Close()
	if err := r.Send(obj(1)); err != nil {
		t.Fatal(err)
	}
	clock.Advance(100 * time.Microsecond)
	r.Ack(encodeRelAck(r.Snapshot().Epoch, 1))
	if got := r.Snapshot().RTO; got != 5*time.Millisecond {
		t.Errorf("clamped RTO = %v, want the 5ms floor", got)
	}
}

// TestReliableNackFastRetransmit drives the sender's NACK reaction:
// named in-flight frames resend immediately, acked/unknown seqs and
// stale epochs are ignored, and WithoutFastRetransmit disables the
// path entirely.
func TestReliableNackFastRetransmit(t *testing.T) {
	link := &scriptLink{}
	clock := NewManualClock()
	r := NewReliableLink(link, clock, WithRetransmitTimeout(time.Hour))
	defer r.Close()
	for i := 1; i <= 3; i++ {
		if err := r.Send(obj(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	epoch := r.Snapshot().Epoch

	r.Nack(encodeRelNack(epoch, []uint64{2}))
	if got := link.count(); got != 4 {
		t.Fatalf("frames = %d after NACK, want 4 (one fast retransmit)", got)
	}
	_, seqs := link.dataFrames(t)
	if seqs[3] != 2 {
		t.Errorf("fast-retransmitted seq = %d, want 2", seqs[3])
	}
	if got := r.Snapshot().FastRetransmits; got != 1 {
		t.Errorf("FastRetransmits = %d, want 1", got)
	}

	// Acked, unknown and stale-epoch reports do nothing.
	r.Ack(encodeRelAck(epoch, 2))
	r.Nack(encodeRelNack(epoch, []uint64{1, 2, 99}))
	r.Nack(encodeRelNack(epoch+1, []uint64{3}))
	if got := link.count(); got != 4 {
		t.Errorf("frames = %d after stale NACKs, want 4", got)
	}

	// Ablation baseline: fast retransmit off.
	link2 := &scriptLink{}
	r2 := NewReliableLink(link2, clock, WithRetransmitTimeout(time.Hour), WithoutFastRetransmit())
	defer r2.Close()
	if err := r2.Send(obj(1)); err != nil {
		t.Fatal(err)
	}
	r2.Nack(encodeRelNack(r2.Snapshot().Epoch, []uint64{1}))
	if got := link2.count(); got != 1 {
		t.Errorf("frames = %d with fast retransmit disabled, want 1", got)
	}
}

// TestRelReceiverNacksGapsOncePerEpoch: the receive side reports each
// missing seq exactly once per epoch — enough for the fast path, with
// the sender's timer as the lost-report backstop.
func TestRelReceiverNacksGapsOncePerEpoch(t *testing.T) {
	h := newRecvHarness()
	h.feed(t, 1, 1, obj(10))
	h.feed(t, 1, 3, obj(12)) // gap at 2
	h.mu.Lock()
	nacks := len(h.nacks)
	h.mu.Unlock()
	if nacks != 1 {
		t.Fatalf("nack reports = %d, want 1", nacks)
	}
	h.mu.Lock()
	first := append([]uint64(nil), h.nacks[0]...)
	h.mu.Unlock()
	if fmt.Sprint(first) != fmt.Sprint([]uint64{1, 2}) {
		t.Fatalf("nack = %v, want [epoch=1 seq=2]", first)
	}

	h.feed(t, 1, 4, obj(13)) // same gap: already reported, no new nack
	h.feed(t, 1, 6, obj(15)) // new gap at 5
	h.mu.Lock()
	count := len(h.nacks)
	second := append([]uint64(nil), h.nacks[len(h.nacks)-1]...)
	h.mu.Unlock()
	if count != 2 {
		t.Fatalf("nack reports = %d, want 2", count)
	}
	if fmt.Sprint(second) != fmt.Sprint([]uint64{1, 5}) {
		t.Fatalf("second nack = %v, want [epoch=1 seq=5]", second)
	}

	// Filling the gaps dispatches in order and triggers no more nacks.
	h.feed(t, 1, 2, obj(11))
	h.feed(t, 1, 5, obj(14))
	h.mu.Lock()
	defer h.mu.Unlock()
	if fmt.Sprint(h.dispatched) != fmt.Sprint([]uint64{10, 11, 12, 13, 14, 15}) {
		t.Fatalf("dispatched = %v", h.dispatched)
	}
	if len(h.nacks) != 2 {
		t.Errorf("nack reports after heal = %d, want 2", len(h.nacks))
	}
}

// TestRelReceiverAcksFreshFrameOnce: a fresh frame is acked exactly
// once, by the drain after its handler returns; receipt alone sends
// nothing. An out-of-order frame is not acked until it is delivered.
func TestRelReceiverAcksFreshFrameOnce(t *testing.T) {
	h := newRecvHarness()
	h.feed(t, 1, 1, obj(10))
	h.mu.Lock()
	acks := fmt.Sprint(h.acks)
	h.mu.Unlock()
	if want := fmt.Sprint([][2]uint64{{1, 1}}); acks != want {
		t.Fatalf("acks after one in-order frame = %s, want %s", acks, want)
	}

	h.feed(t, 1, 3, obj(12)) // gap at 2: reported, not acked
	h.feed(t, 1, 2, obj(11))
	h.mu.Lock()
	defer h.mu.Unlock()
	if want := fmt.Sprint([][2]uint64{{1, 1}, {1, 2}, {1, 3}}); fmt.Sprint(h.acks) != want {
		t.Errorf("acks = %v, want %s (one per delivered frame)", h.acks, want)
	}
	if len(h.nacks) != 1 {
		t.Errorf("nack reports = %d, want 1", len(h.nacks))
	}
}

// TestRelReceiverSignalsWithoutWaitingForHandlers: with a spawner set
// (the read loop's configuration), handleData itself never acks, NACKs
// or runs a handler. Handlers and their acks run on the drain; gap
// reports and re-acks on the signaller, which goes out while the drain
// has not yet run — as it would while a handler blocks. Each starts
// once per burst.
func TestRelReceiverSignalsWithoutWaitingForHandlers(t *testing.T) {
	h := newRecvHarness()
	var spawned []func()
	h.rr.spawn = func(f func()) { spawned = append(spawned, f) }

	h.feed(t, 1, 1, obj(10)) // starts the drain
	h.feed(t, 1, 3, obj(12)) // gap at 2: starts the signaller
	h.feed(t, 1, 1, obj(10)) // duplicate: re-ack, same signaller
	h.mu.Lock()
	quiet := len(h.acks) == 0 && len(h.nacks) == 0 && len(h.dispatched) == 0
	h.mu.Unlock()
	if !quiet {
		t.Fatalf("handleData wrote or dispatched on the caller's goroutine: acks=%v nacks=%v dispatched=%v",
			h.acks, h.nacks, h.dispatched)
	}
	if len(spawned) != 2 {
		t.Fatalf("goroutines spawned = %d, want 2 (drain, signaller)", len(spawned))
	}
	drain, signal := spawned[0], spawned[1]
	signal()
	h.mu.Lock()
	if len(h.dispatched) != 0 || len(h.nacks) != 1 || fmt.Sprint(h.acks) != fmt.Sprint([][2]uint64{{1, 0}}) {
		t.Errorf("after the signaller: dispatched=%v nacks=%v acks=%v, want no dispatch, 1 NACK, re-ack [1 0]",
			h.dispatched, h.nacks, h.acks)
	}
	h.mu.Unlock()
	drain()
	h.mu.Lock()
	if fmt.Sprint(h.dispatched) != fmt.Sprint([]uint64{10}) || h.acks[len(h.acks)-1] != [2]uint64{1, 1} {
		t.Errorf("after the drain: dispatched=%v acks=%v", h.dispatched, h.acks)
	}
	h.mu.Unlock()

	h.feed(t, 1, 2, obj(11)) // a new burst gets a new drain
	if len(spawned) != 3 {
		t.Fatalf("goroutines spawned = %d, want 3", len(spawned))
	}
	spawned[2]()
	h.mu.Lock()
	defer h.mu.Unlock()
	if fmt.Sprint(h.dispatched) != fmt.Sprint([]uint64{10, 11, 12}) {
		t.Errorf("dispatched = %v, want [10 11 12]", h.dispatched)
	}
	if got := h.acks[len(h.acks)-1]; got != [2]uint64{1, 3} {
		t.Errorf("final ack = %v, want [1 3]", got)
	}
}

// TestReliableUnreachableTyped: the give-up error is a typed
// *UnreachableError carrying attempt counts, matching both the new
// ErrPeerUnreachable and the legacy ErrReliableGaveUp sentinels.
func TestReliableUnreachableTyped(t *testing.T) {
	link := &scriptLink{}
	clock := NewManualClock()
	r := NewReliableLink(link, clock,
		WithRetransmitTimeout(time.Millisecond), WithMaxBackoff(time.Millisecond), WithMaxAttempts(2))
	defer r.Close()
	if err := r.Send(obj(1)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if !waitUntil(time.Second, func() bool { return clock.PendingTimers() >= 1 }) {
			break // loop exited: link failed
		}
		clock.Advance(2 * time.Millisecond)
		time.Sleep(5 * time.Millisecond)
	}
	err := r.Send(obj(2))
	if !errors.Is(err, ErrPeerUnreachable) {
		t.Fatalf("give-up = %v, want ErrPeerUnreachable", err)
	}
	if !errors.Is(err, ErrReliableGaveUp) {
		t.Errorf("give-up does not match the legacy sentinel")
	}
	var ue *UnreachableError
	if !errors.As(err, &ue) {
		t.Fatalf("give-up is %T, want *UnreachableError", err)
	}
	if ue.Seq != 1 || ue.Attempts != 2 {
		t.Errorf("UnreachableError = %+v, want seq 1 after 2 attempts", ue)
	}
}

// reliableLoopGoroutines counts live sender/retransmit goroutines —
// the manual-snapshot leak detector (no external goleak dependency).
func reliableLoopGoroutines() int {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	s := string(buf[:n])
	return strings.Count(s, "(*ReliableLink).senderLoop") +
		strings.Count(s, "(*ReliableLink).retransmitLoop")
}

// TestReliableCloseReleasesGoroutines: every Close/stop path releases
// both loop goroutines — across plain links, pipeline links, and
// links killed mid-backpressure.
func TestReliableCloseReleasesGoroutines(t *testing.T) {
	base := reliableLoopGoroutines()
	var links []*ReliableLink
	clock := NewManualClock()
	for i := 0; i < 8; i++ {
		r := NewReliableLink(&scriptLink{}, clock,
			WithWindow(1), WithSendQueue(4), WithRetransmitTimeout(time.Hour))
		for j := 0; j < 3; j++ { // leave work queued and in flight
			if err := r.Send(obj(uint64(j))); err != nil {
				t.Fatal(err)
			}
		}
		links = append(links, r)
	}
	if !waitUntil(2*time.Second, func() bool { return reliableLoopGoroutines() >= base+16 }) {
		t.Fatalf("loop goroutines = %d, want >= %d", reliableLoopGoroutines(), base+16)
	}
	for i, r := range links {
		if i%2 == 0 {
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
			if err := r.Close(); err != nil { // double-Close safe
				t.Fatal(err)
			}
		} else {
			r.stop()
		}
	}
	if !waitUntil(5*time.Second, func() bool { return reliableLoopGoroutines() <= base }) {
		t.Fatalf("loop goroutines = %d after close, want <= %d (leak)", reliableLoopGoroutines(), base)
	}
}
