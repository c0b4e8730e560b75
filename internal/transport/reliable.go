package transport

import (
	cryptorand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The reliable delivery layer sits between the protocol and an
// unreliable Link, the same layering move the paper's type-based
// publish/subscribe stack makes above its transport: reliability is
// built *above* the lossy medium instead of assumed from TCP.
//
// Sender side (ReliableLink): every outgoing message is framed as
// MsgReliableData carrying a (epoch, seq) header; unacked frames live
// in an in-flight set and are retransmitted on a timer with
// exponential backoff until a cumulative MsgReliableAck covers them.
// Object frames additionally pass a bounded window — Send blocks
// (backpressure) while Window object frames are unacked, so a
// retransmit storm can never hold more than Window object frames in
// flight.
//
// With WithSendQueue the sender becomes an asynchronous pipeline:
// Send appends to a bounded per-link outbound queue and returns, and
// a dedicated sender goroutine drains the queue through the window.
// A stalled peer then fills its own queue instead of the caller's
// goroutine — the property that keeps a reliable Broadcast from
// serializing behind its worst connection. The overflow policy
// decides what a full queue does: block the enqueuer (default), shed
// the oldest queued object frame with a counter, or fail fast.
//
// The retransmit timeout follows one rule, RFC 6298's: a
// Jacobson/Karels estimate from measured per-link RTT — SRTT/RTTVAR
// updated only from frames transmitted exactly once (Karn's rule),
// clamped to [MinRTO, MaxBackoff]. RetransmitTimeout is the value
// before the first sample. NACK fast-retransmit closes the other half
// of the loop from the receive side: a receiver that observes a
// sequence gap reports the missing seqs in a MsgReliableNack, and the
// sender repairs them immediately instead of waiting out a full
// backoff interval; the timer remains the backstop for lost NACKs.
//
// Receiver side (relReceiver, armed on every Conn unconditionally so
// only the sender has to opt in): the connection's read loop hands it
// every data frame in wire order, and it deduplicates by (epoch,
// seq), buffers until contiguous and reports gaps right there. Handlers
// run off the read loop, one at a time and strictly in sequence order,
// and each frame is acknowledged cumulatively once its handler returns
// — exactly-once, in-order delivery over links that drop, duplicate
// and reorder. Correlated replies bypass the in-order queue (their Seq
// field already pairs them with their request), which is what keeps a
// blocked in-order dispatch from deadlocking the description fetch it
// is waiting on.
//
// Epochs make restarts safe: each ReliableLink instance draws a fresh
// epoch from a process-wide monotonic counter (randomly seeded, so
// epochs are unique across processes too — see relEpochCounter), and
// the receiver resets its sequence state whenever a newer epoch
// appears — while frames from an older epoch (ghosts of a pre-restart
// sender) are silently discarded, never redelivered.

// ErrReliableGaveUp fails a reliable link whose retransmissions
// exhausted ReliableConfig.MaxAttempts.
var ErrReliableGaveUp = errors.New("transport: reliable link gave up")

// ErrPeerUnreachable classifies a reliable link's give-up: the remote
// end stopped acknowledging and the link abandoned it. The concrete
// error is always an *UnreachableError carrying the attempt count and
// the last underlying send error.
var ErrPeerUnreachable = errors.New("transport: peer unreachable")

// ErrQueueFull fails an enqueue on a full send queue under
// OverflowError.
var ErrQueueFull = errors.New("transport: reliable send queue full")

// ErrFlushTimeout reports that Flush gave up before the queue and
// in-flight set drained.
var ErrFlushTimeout = errors.New("transport: reliable flush timed out")

// UnreachableError is the typed give-up failure of a reliable link:
// a frame exhausted MaxAttempts without an ack, or the unacked
// backlog hit the in-flight cap. It matches both ErrPeerUnreachable
// and the legacy ErrReliableGaveUp sentinel under errors.Is, and
// unwraps to the last raw send error when one was observed.
type UnreachableError struct {
	Seq      uint64 // frame that exhausted its attempts (0 for a backlog give-up)
	Attempts int    // transmissions of that frame
	Pending  int    // unacked frames at the moment of give-up
	LastErr  error  // last underlying send error, nil when raw sends succeeded
}

func (e *UnreachableError) Error() string {
	var msg string
	if e.Seq != 0 {
		msg = fmt.Sprintf("%v: seq %d unacked after %d attempts (%d pending)",
			ErrPeerUnreachable, e.Seq, e.Attempts, e.Pending)
	} else {
		msg = fmt.Sprintf("%v: %d unacked frames", ErrPeerUnreachable, e.Pending)
	}
	if e.LastErr != nil {
		msg += ": " + e.LastErr.Error()
	}
	return msg
}

// Unwrap exposes the last raw send error to errors.Is/As chains.
func (e *UnreachableError) Unwrap() error { return e.LastErr }

// Is matches the give-up sentinels, so callers written against the
// original ErrReliableGaveUp keep working.
func (e *UnreachableError) Is(target error) bool {
	return target == ErrPeerUnreachable || target == ErrReliableGaveUp
}

// OverflowPolicy selects what a full send queue does with the next
// enqueue (see WithSendQueue).
type OverflowPolicy int

const (
	// OverflowBlock applies backpressure: the enqueuing goroutine
	// waits for the sender to drain a slot. The default.
	OverflowBlock OverflowPolicy = iota
	// OverflowDropOldest sheds the oldest queued *object* frame and
	// admits the new one, counting the shed frame in
	// Stats.RelQueueDropped — the slow-consumer policy for publishers
	// that value freshness over completeness. Control frames are
	// never shed (a dropped request would strand its round trip);
	// when only control frames are queued the enqueue blocks.
	OverflowDropOldest
	// OverflowError fails the enqueue immediately with ErrQueueFull.
	OverflowError
)

// ReliableConfig tunes a ReliableLink.
type ReliableConfig struct {
	// Window bounds unacked object frames in flight; Send blocks when
	// the window is full. Control frames (requests, replies) bypass
	// the window so flow control can never deadlock a protocol round
	// trip, but they are still sequenced, retransmitted and deduped.
	Window int
	// RetransmitTimeout is the retransmit timeout before the first RTT
	// sample; from then on the measured estimate applies. Each
	// retransmission doubles a frame's interval up to MaxBackoff.
	RetransmitTimeout time.Duration
	// MaxBackoff caps the per-frame retransmit interval (and the
	// estimated RTO).
	MaxBackoff time.Duration
	// MaxAttempts fails the link when a frame has been transmitted
	// this many times without an ack (0 = keep trying until the link
	// closes — the partition-heals-eventually configuration).
	MaxAttempts int
	// SendQueue > 0 enables the asynchronous pipeline: Send enqueues
	// up to this many frames and returns; a dedicated goroutine
	// drains them through the window.
	SendQueue int
	// Overflow picks the full-queue policy (default OverflowBlock).
	Overflow OverflowPolicy
	// MinRTO floors the estimated RTO so a fast LAN measurement can
	// never spin the retransmit timer (default 2ms).
	MinRTO time.Duration
	// FastRetransmit reacts to receiver gap reports (MsgReliableNack)
	// with an immediate resend (default true); disable it to fall
	// back to pure timer-driven recovery, the ablation baseline of
	// the fan-out benchmark.
	FastRetransmit bool
}

func defaultReliableConfig() ReliableConfig {
	return ReliableConfig{
		Window:            32,
		RetransmitTimeout: 20 * time.Millisecond,
		MaxBackoff:        640 * time.Millisecond,
		MinRTO:            2 * time.Millisecond,
		FastRetransmit:    true,
	}
}

// ReliableOption tunes the reliable layer.
type ReliableOption func(*ReliableConfig)

// WithWindow bounds unacked object frames in flight (default 32).
func WithWindow(n int) ReliableOption {
	return func(c *ReliableConfig) {
		if n > 0 {
			c.Window = n
		}
	}
}

// WithRetransmitTimeout sets the retransmit timeout used until the
// link's first RTT sample (default 20ms); backoff doubles it per
// attempt.
func WithRetransmitTimeout(d time.Duration) ReliableOption {
	return func(c *ReliableConfig) {
		if d > 0 {
			c.RetransmitTimeout = d
		}
	}
}

// WithMaxBackoff caps the retransmit interval (default 640ms).
func WithMaxBackoff(d time.Duration) ReliableOption {
	return func(c *ReliableConfig) {
		if d > 0 {
			c.MaxBackoff = d
		}
	}
}

// WithMaxAttempts bounds transmissions per frame before the link
// fails with an *UnreachableError (default 0 = unlimited).
func WithMaxAttempts(n int) ReliableOption {
	return func(c *ReliableConfig) { c.MaxAttempts = n }
}

// WithSendQueue enables the asynchronous send pipeline: Send appends
// to a bounded queue of n frames and returns immediately, a dedicated
// sender goroutine drains the queue through the in-flight window, and
// a stalled peer fills only its own queue. Pair with
// WithOverflowPolicy to pick what a full queue does.
func WithSendQueue(n int) ReliableOption {
	return func(c *ReliableConfig) {
		if n > 0 {
			c.SendQueue = n
		}
	}
}

// WithOverflowPolicy selects the full-queue behaviour of the send
// pipeline (default OverflowBlock). Only meaningful with
// WithSendQueue.
func WithOverflowPolicy(p OverflowPolicy) ReliableOption {
	return func(c *ReliableConfig) {
		switch p {
		case OverflowBlock, OverflowDropOldest, OverflowError:
			c.Overflow = p
		}
	}
}

// WithAdaptiveRTO does nothing: the measured-RTT estimate (SRTT +
// 4·RTTVAR, Karn sampling, clamped to [MinRTO, MaxBackoff]) is the
// only retransmit-timeout rule.
//
// Deprecated: every reliable link estimates its RTO; drop the option.
func WithAdaptiveRTO() ReliableOption {
	return func(*ReliableConfig) {}
}

// WithMinRTO floors the estimated RTO (default 2ms).
func WithMinRTO(d time.Duration) ReliableOption {
	return func(c *ReliableConfig) {
		if d > 0 {
			c.MinRTO = d
		}
	}
}

// WithoutFastRetransmit disables NACK-driven resends, leaving the
// backoff timer as the only recovery path — the ablation baseline the
// fan-out benchmark compares against.
func WithoutFastRetransmit() ReliableOption {
	return func(c *ReliableConfig) { c.FastRetransmit = false }
}

// WithReliableLinks makes every connection the peer owns send through
// a ReliableLink: SendObject, Broadcast and the protocol's request/
// reply exchanges all ride exactly-once in-order framing. Receiving
// reliable frames needs no option — every peer understands them — so
// enabling the sender side alone upgrades a link.
func WithReliableLinks(opts ...ReliableOption) PeerOption {
	return func(p *Peer) {
		cfg := defaultReliableConfig()
		for _, o := range opts {
			o(&cfg)
		}
		p.relCfg = &cfg
	}
}

// relEpochCounter is the process-wide epoch source: every
// ReliableLink instance gets a strictly greater epoch than any built
// before it, which is what lets receivers tell a restarted sender
// from a ghost of the old one. The counter is seeded from crypto/rand
// at startup because the resume handshake keys saved sessions by
// epoch alone: two processes whose counters both started at 1 would
// routinely present colliding epochs to a shared receiver, letting
// one sender adopt — and seal — another sender's live session. A
// random 62-bit starting point makes that collision vanishingly
// unlikely while keeping within-process epochs strictly ordered.
var relEpochCounter atomic.Uint64

func init() {
	var b [8]byte
	if _, err := cryptorand.Read(b[:]); err == nil {
		// Top two bits clear: ~4.6e18 epochs of headroom before the
		// counter could wrap toward 0, the "no session" sentinel.
		relEpochCounter.Store(binary.BigEndian.Uint64(b[:]) >> 2)
	}
}

func nextRelEpoch() uint64 { return relEpochCounter.Add(1) }

// --- wire framing -----------------------------------------------------

// relDataHeader prefixes every reliable data frame:
// epoch (8) | seq (8) | inner type (1) | inner seq (8).
const relDataHeader = 8 + 8 + 1 + 8

func encodeRelData(epoch, seq uint64, m *Message) []byte {
	b := make([]byte, relDataHeader+len(m.Body))
	binary.BigEndian.PutUint64(b[0:8], epoch)
	binary.BigEndian.PutUint64(b[8:16], seq)
	b[16] = byte(m.Type)
	binary.BigEndian.PutUint64(b[17:25], m.Seq)
	copy(b[relDataHeader:], m.Body)
	return b
}

func decodeRelData(body []byte) (epoch, seq uint64, inner *Message, err error) {
	if len(body) < relDataHeader {
		return 0, 0, nil, fmt.Errorf("%w: short reliable frame", ErrBadFrame)
	}
	epoch = binary.BigEndian.Uint64(body[0:8])
	seq = binary.BigEndian.Uint64(body[8:16])
	inner = &Message{
		Type: MsgType(body[16]),
		Seq:  binary.BigEndian.Uint64(body[17:25]),
		Body: body[relDataHeader:],
	}
	return epoch, seq, inner, nil
}

func encodeRelAck(epoch, cum uint64) []byte {
	b := make([]byte, 16)
	binary.BigEndian.PutUint64(b[0:8], epoch)
	binary.BigEndian.PutUint64(b[8:16], cum)
	return b
}

func decodeRelAck(body []byte) (epoch, cum uint64, err error) {
	if len(body) != 16 {
		return 0, 0, fmt.Errorf("%w: bad reliable ack", ErrBadFrame)
	}
	return binary.BigEndian.Uint64(body[0:8]), binary.BigEndian.Uint64(body[8:16]), nil
}

// maxNackSeqs bounds one gap report; deeper gaps heal incrementally
// as repairs land, with the retransmit timer as the backstop.
const maxNackSeqs = 32

func encodeRelNack(epoch uint64, seqs []uint64) []byte {
	b := make([]byte, 8+8*len(seqs))
	binary.BigEndian.PutUint64(b[0:8], epoch)
	for i, s := range seqs {
		binary.BigEndian.PutUint64(b[8+8*i:16+8*i], s)
	}
	return b
}

func decodeRelNack(body []byte) (epoch uint64, seqs []uint64, err error) {
	if len(body) < 16 || len(body)%8 != 0 {
		return 0, nil, fmt.Errorf("%w: bad reliable nack", ErrBadFrame)
	}
	epoch = binary.BigEndian.Uint64(body[0:8])
	seqs = make([]uint64, 0, (len(body)-8)/8)
	for off := 8; off < len(body); off += 8 {
		seqs = append(seqs, binary.BigEndian.Uint64(body[off:off+8]))
	}
	return epoch, seqs, nil
}

// --- RTT estimation ---------------------------------------------------

// rttEstimator is the Jacobson/Karels RTO estimator (the RFC 6298
// shape): SRTT and RTTVAR are exponentially weighted from clean
// samples and the timeout is SRTT + 4·RTTVAR. Guarded by the owning
// link's mutex.
type rttEstimator struct {
	srtt    time.Duration
	rttvar  time.Duration
	samples uint64
}

func (e *rttEstimator) observe(s time.Duration) {
	if s < 0 {
		s = 0
	}
	if e.samples == 0 {
		e.srtt = s
		e.rttvar = s / 2
	} else {
		d := s - e.srtt
		if d < 0 {
			d = -d
		}
		e.rttvar += (d - e.rttvar) / 4
		e.srtt += (s - e.srtt) / 8
	}
	e.samples++
}

func (e *rttEstimator) rto() time.Duration { return e.srtt + 4*e.rttvar }

// --- sender -----------------------------------------------------------

// relEntry is one unacked frame.
type relEntry struct {
	seq      uint64
	data     bool // counts against the window
	frame    []byte
	sentAt   time.Time // first transmission, for RTT sampling
	deadline time.Time
	backoff  time.Duration
	attempts int
}

// ReliableLink decorates any Link with exactly-once in-order
// delivery: sequence framing, positive cumulative acks, retransmit
// with exponential backoff from the measured RTO, NACK-driven fast
// retransmit, a bounded in-flight window, and optionally an
// asynchronous bounded send queue. Peers built with WithReliableLinks
// attach one to every connection automatically; NewReliableLink
// builds a standalone decorator.
type ReliableLink struct {
	raw   Link
	clock Clock
	stats *Stats // optional peer counters, nil for standalone links
	cfg   ReliableConfig

	// sendMu orders first transmissions: it is held from a frame's
	// sequence number assignment until its raw send returns, so frames
	// reach the wire in sequence order even when replies, requests and
	// the pipeline's sender send concurrently. (Assigned under mu and
	// written after it, two frames could swap on the wire and the
	// receiver would report a gap that no loss caused.) It is taken
	// before mu and released while waiting for window room.
	sendMu sync.Mutex

	mu             sync.Mutex
	cond           *sync.Cond
	epoch          uint64
	nextSeq        uint64 // 0 means the sequence space is exhausted
	inflight       map[uint64]*relEntry
	inflightData   int
	acked          uint64
	queue          []*Message // pipeline mode: pending outbound frames
	queuePeak      int
	queueDropped   uint64
	queueAbandoned uint64
	est            rttEstimator
	// rto is the timeout new frames start from: RetransmitTimeout
	// until the first clean sample, then the clamped estimate.
	rto         time.Duration
	lastSendErr error
	closed      bool
	err         error
	// managed marks a link owned by a Remote (see health.go): a send
	// failure or conn teardown detaches it — parks the machinery with
	// the window intact — instead of killing it, so a redial can
	// resume the session and replay the unacked frames.
	managed  bool
	detached bool

	// busyRef, when set, is the owning fabric's shared busy counter:
	// wasRunnable mirrors this link's contribution to its pipelines
	// count, reconciled by updateRunnableLocked at every admission-state
	// transition. Nil for standalone links.
	busyRef     *fabricBusy
	wasRunnable bool

	// senderActive/retransActive track the lazily spawned loops. An
	// idle link — nothing queued, nothing in flight — holds no
	// goroutines at all; enqueue, registration and resume respawn the
	// loop they need, and each loop exits (clearing its flag inside the
	// same critical section as the exit decision, so a concurrent
	// respawn can never observe a stale flag) when its work drains.
	senderActive  bool
	retransActive bool

	kick     chan struct{}
	done     chan struct{}
	stopOnce sync.Once

	retransmits     atomic.Uint64
	fastRetransmits atomic.Uint64
	acksReceived    atomic.Uint64
}

// NewReliableLink wraps l in a reliable sender. When l is a *Conn the
// link attaches itself for ack/nack routing and raw writes; for any
// other Link the caller must feed incoming MsgReliableAck bodies to
// Ack and MsgReliableNack bodies to Nack. A nil clock means the wall
// clock.
func NewReliableLink(l Link, clock Clock, opts ...ReliableOption) *ReliableLink {
	cfg := defaultReliableConfig()
	for _, o := range opts {
		o(&cfg)
	}
	if clock == nil {
		clock = realClock{}
	}
	raw := l
	var stats *Stats
	var conn *Conn
	var fb *fabricBusy
	if c, ok := l.(*Conn); ok {
		conn = c
		raw = connRaw{c}
		stats = &c.peer.stats
		fb = c.peer.busyRef
	}
	r := newReliableLink(raw, clock, stats, fb, cfg)
	if conn != nil {
		// Replacing an attached sender must stop the old one, or its
		// retransmit loop would resend old-epoch frames (which the
		// receiver ghosts without acking) until the conn dies.
		if old := conn.rel.Swap(r); old != nil {
			old.stop()
		}
	}
	return r
}

func newReliableLink(raw Link, clock Clock, stats *Stats, fb *fabricBusy, cfg ReliableConfig) *ReliableLink {
	r := &ReliableLink{
		raw:      raw,
		clock:    clock,
		stats:    stats,
		busyRef:  fb,
		cfg:      cfg,
		epoch:    nextRelEpoch(),
		nextSeq:  1,
		rto:      cfg.RetransmitTimeout,
		inflight: make(map[uint64]*relEntry),
		kick:     make(chan struct{}, 1),
		done:     make(chan struct{}),
	}
	r.cond = sync.NewCond(&r.mu)
	// No goroutines yet: the sender and retransmit loops spawn lazily
	// on the first queued or registered frame (ensureSenderLocked /
	// ensureRetransLocked) and exit when their work drains. A fabric of
	// 1000 mostly idle managed links therefore parks zero goroutines
	// here instead of two per connection.
	return r
}

// connRaw writes straight to the connection, bypassing the reliable
// wrapping Conn.Send applies once a link is attached.
type connRaw struct{ c *Conn }

func (l connRaw) Send(m *Message) error                         { return l.c.send(m) }
func (l connRaw) Request(t MsgType, b []byte) (*Message, error) { return l.c.request(t, b) }
func (l connRaw) Close() error                                  { return l.c.Close() }

// Send frames m with the next sequence number and transmits it,
// retransmitting until acked. In the default synchronous mode object
// frames block while the window is full and control frames bypass the
// window (see ReliableConfig.Window); in pipeline mode
// (WithSendQueue) Send enqueues and returns, with the overflow policy
// deciding what a full queue does.
func (r *ReliableLink) Send(m *Message) error {
	isData := m.Type == MsgObject
	if r.cfg.SendQueue > 0 && isData {
		return r.enqueue(m)
	}
	// Control frames — correlated replies among them — skip the
	// pipeline queue and admit directly, mirroring the receive side's
	// reply bypass. A reply parked behind head-of-line-blocked data
	// would deadlock the link: the peer's in-order dispatch may be
	// waiting on that very reply, and no ack advances the window
	// until the dispatch returns.
	r.sendMu.Lock()
	defer r.sendMu.Unlock()
	r.mu.Lock()
	if err := r.admitLocked(isData); err != nil {
		r.mu.Unlock()
		return err
	}
	frame := r.registerLocked(m, isData)
	r.ensureRetransLocked()
	r.updateRunnableLocked()
	raw := r.raw
	r.wireBusy(1)
	defer r.wireBusy(-1)
	r.mu.Unlock()

	if r.stats != nil {
		r.stats.relDataSent.Add(1)
	}
	if err := raw.Send(&Message{Type: MsgReliableData, Body: frame}); err != nil {
		if r.failSend(err) {
			// Detached, not dead: the frame is registered and the
			// resume replay owns its delivery.
			return nil
		}
		return err
	}
	r.kickLoop()
	return nil
}

// admitStepLocked performs one admission check for a frame of the
// given kind — the single statement of the rules both the synchronous
// Send path and the pipeline's sender goroutine obey: the window must
// have room for data, the epoch rolls once the exhausted sequence
// space has drained, and the total in-flight backlog failing its cap
// kills the link with a typed *UnreachableError. wait=true asks the
// caller to cond.Wait and re-evaluate (the pipeline re-reads its
// queue head first, since the head can change while waiting). Caller
// holds r.mu.
func (r *ReliableLink) admitStepLocked(isData bool) (wait bool, err error) {
	if r.closed {
		if r.err != nil {
			return false, r.err
		}
		return false, ErrClosed
	}
	if r.nextSeq == 0 {
		// Sequence space exhausted: drain the old epoch fully, then
		// roll to a fresh one so the receiver's reset can never skip
		// an undelivered frame.
		if len(r.inflight) > 0 {
			return true, nil
		}
		r.epoch = nextRelEpoch()
		r.nextSeq = 1
		r.acked = 0
	}
	if isData && r.inflightData >= r.cfg.Window {
		return true, nil
	}
	if len(r.inflight) >= r.maxInflightTotal() {
		if r.detached {
			// A parked link accumulates backlog by design; give-up is
			// the circuit breaker's call, not the admission rule's.
			return true, nil
		}
		// Control frames bypass the window, so on a blackholed link
		// (nothing acked, requests abandoned at the protocol layer)
		// they would otherwise accumulate forever — and a frame can
		// never be silently dropped without leaving a permanent gap
		// in the receiver's contiguity. A link this far behind
		// despite backoff has effectively given up: fail it,
		// releasing everything.
		giveUp := &UnreachableError{Pending: len(r.inflight), LastErr: r.lastSendErr}
		r.closeLocked(giveUp)
		return false, giveUp
	}
	return false, nil
}

// admitLocked blocks on the condition variable until admitStepLocked
// admits a frame of the given kind or fails the link. Caller holds
// r.sendMu and r.mu; while waiting it holds neither, so a frame
// waiting for window room never holds up a control frame's turn.
func (r *ReliableLink) admitLocked(isData bool) error {
	for {
		wait, err := r.admitStepLocked(isData)
		if err != nil {
			return err
		}
		if !wait {
			return nil
		}
		r.sendMu.Unlock()
		r.cond.Wait()
		r.mu.Unlock()
		r.sendMu.Lock()
		r.mu.Lock()
	}
}

// registerLocked assigns the next sequence number to m, places the
// frame in the in-flight set and returns the encoded wire frame.
// Caller holds r.sendMu and r.mu, has passed admission, and sends the
// frame before releasing r.sendMu.
func (r *ReliableLink) registerLocked(m *Message, isData bool) []byte {
	seq := r.nextSeq
	r.nextSeq++ // wraps to 0 at the end of the space: the admit sentinel
	frame := encodeRelData(r.epoch, seq, m)
	now := r.clock.Now()
	e := &relEntry{
		seq:      seq,
		data:     isData,
		frame:    frame,
		sentAt:   now,
		backoff:  r.rto,
		deadline: now.Add(r.rto),
		attempts: 1,
	}
	r.inflight[seq] = e
	if isData {
		r.inflightData++
	}
	return frame
}

// enqueue appends m to the pipeline's bounded queue, applying the
// overflow policy when it is full.
func (r *ReliableLink) enqueue(m *Message) error {
	r.mu.Lock()
	for {
		if r.closed {
			err := r.err
			r.mu.Unlock()
			if err == nil {
				err = ErrClosed
			}
			return err
		}
		if len(r.queue) < r.cfg.SendQueue {
			break
		}
		switch r.cfg.Overflow {
		case OverflowDropOldest:
			if i := r.oldestQueuedDataLocked(); i >= 0 {
				copy(r.queue[i:], r.queue[i+1:])
				r.queue[len(r.queue)-1] = nil
				r.queue = r.queue[:len(r.queue)-1]
				r.queueDropped++
				if r.stats != nil {
					r.stats.relQueueDropped.Add(1)
				}
				continue
			}
			// Only control frames queued: nothing sheddable, block.
			r.cond.Wait()
		case OverflowError:
			n := len(r.queue)
			r.mu.Unlock()
			return fmt.Errorf("%w: %d frames queued", ErrQueueFull, n)
		default: // OverflowBlock
			r.cond.Wait()
		}
	}
	r.queue = append(r.queue, m)
	if len(r.queue) > r.queuePeak {
		r.queuePeak = len(r.queue)
	}
	r.ensureSenderLocked()
	r.updateRunnableLocked()
	r.cond.Broadcast() // wake an already-running sender goroutine
	r.mu.Unlock()
	return nil
}

// oldestQueuedDataLocked returns the index of the oldest queued
// object frame, or -1 when only control frames are queued.
func (r *ReliableLink) oldestQueuedDataLocked() int {
	for i, m := range r.queue {
		if m.Type == MsgObject {
			return i
		}
	}
	return -1
}

// senderLoop is the pipeline's drain goroutine, spawned lazily by
// ensureSenderLocked: it moves frames from the bounded queue into the
// sequence space as window room appears, so enqueuers never wait on
// the network. The head is re-read after every wait — an
// OverflowDropOldest enqueue may have shed it, and the admission rule
// (window for data, none for control) must follow the frame actually
// at the head. The loop exits — instead of parking — when the queue
// drains, the link closes, or it detaches; the flag clears in the
// same critical section as the exit decision so the next enqueue (or
// resume) respawns without racing a stale flag.
func (r *ReliableLink) senderLoop() {
	for {
		r.sendMu.Lock()
		r.mu.Lock()
		if r.closed || r.detached || len(r.queue) == 0 {
			r.senderActive = false
			r.mu.Unlock()
			r.sendMu.Unlock()
			return
		}
		m := r.queue[0]
		isData := m.Type == MsgObject
		wait, err := r.admitStepLocked(isData)
		if err != nil {
			r.senderActive = false
			r.mu.Unlock()
			r.sendMu.Unlock()
			return
		}
		if wait {
			// The head is not admittable (window full, or the old epoch
			// is still draining): the pipeline is stalled on an ack, not
			// runnable, so its busy contribution must drop before the
			// wait or the virtual clock could never advance to the
			// retransmit deadline that produces that ack.
			r.updateRunnableLocked()
			r.sendMu.Unlock()
			r.cond.Wait()
			r.mu.Unlock()
			continue
		}
		r.queue[0] = nil
		r.queue = r.queue[1:]
		frame := r.registerLocked(m, isData)
		r.ensureRetransLocked()
		r.updateRunnableLocked()
		raw := r.raw
		r.cond.Broadcast() // queue shrank: unblock full-queue enqueuers
		r.wireBusy(1)
		r.mu.Unlock()

		if r.stats != nil {
			r.stats.relDataSent.Add(1)
		}
		err = raw.Send(&Message{Type: MsgReliableData, Body: frame})
		r.wireBusy(-1)
		r.sendMu.Unlock()
		if err != nil {
			if !r.failSend(err) {
				r.mu.Lock()
				r.senderActive = false
				r.mu.Unlock()
				return
			}
		} else {
			r.kickLoop()
		}
	}
}

// Flush blocks until every queued and in-flight frame has been
// acknowledged, the link dies, or the timeout elapses (ErrFlushTimeout).
// It is the graceful-drain companion of the async pipeline: call it
// before Close when queued frames must reach the peer.
func (r *ReliableLink) Flush(timeout time.Duration) error {
	t := r.clock.NewTimer(timeout)
	defer t.Stop()
	var timedOut atomic.Bool
	watcherDone := make(chan struct{})
	defer close(watcherDone)
	go func() {
		select {
		case <-t.C():
			timedOut.Store(true)
			r.mu.Lock()
			r.cond.Broadcast()
			r.mu.Unlock()
		case <-watcherDone:
		case <-r.done:
		}
	}()

	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		if len(r.queue) == 0 && len(r.inflight) == 0 {
			return nil
		}
		if r.closed {
			if r.err != nil {
				return r.err
			}
			return ErrClosed
		}
		if timedOut.Load() {
			return fmt.Errorf("%w: %d queued, %d in flight",
				ErrFlushTimeout, len(r.queue), len(r.inflight))
		}
		r.cond.Wait()
	}
}

// runnableLocked reports whether the pipeline's sender has work it
// could perform right now: a queued head frame that the window (or
// epoch roll) would admit. It is the link's contribution to the
// virtual clock's busy probe — time must not advance past a request
// timeout while queued frames are still being put on the wire. Caller
// holds r.mu.
func (r *ReliableLink) runnableLocked() bool {
	if r.closed || r.detached || len(r.queue) == 0 {
		// A detached link cannot progress until a redial lands, and
		// the redial's backoff timers need virtual time to advance —
		// so a parked pipeline must never report busy.
		return false
	}
	if r.nextSeq == 0 && len(r.inflight) > 0 {
		return false
	}
	if m := r.queue[0]; m.Type == MsgObject && r.inflightData >= r.cfg.Window {
		return false
	}
	return true
}

// updateRunnableLocked reconciles the link's contribution to the
// fabric's shared pipelines counter after any state change that could
// flip runnability: enqueue, head admission, ack drain, detach, close,
// resume. The counter replaces the per-link scan the fabric's busy
// probe used to do — O(1) loads at probe time, maintained here at the
// transition edges. Caller holds r.mu.
func (r *ReliableLink) updateRunnableLocked() {
	if r.busyRef == nil {
		return
	}
	now := r.runnableLocked()
	if now == r.wasRunnable {
		return
	}
	r.wasRunnable = now
	if now {
		r.busyRef.pipelines.Add(1)
	} else {
		r.busyRef.pipelines.Add(-1)
	}
}

// wireBusy counts registered frames on their way to the raw link
// into the fabric's pipelines counter (+1 before the link's lock is
// released, -1 once the raw send returns): the frames' retransmit
// deadlines already run, and virtual time must not reach them while
// they have not even left. The send pipeline's sender goroutine is no
// handler, so nothing else counts it busy in that gap.
func (r *ReliableLink) wireBusy(delta int64) {
	if r.busyRef != nil {
		r.busyRef.pipelines.Add(delta)
	}
}

// ensureSenderLocked spawns the pipeline's sender goroutine when
// there is queued work and no loop alive to drain it. Caller holds
// r.mu.
func (r *ReliableLink) ensureSenderLocked() {
	if r.cfg.SendQueue <= 0 || r.senderActive || r.closed || r.detached || len(r.queue) == 0 {
		return
	}
	r.senderActive = true
	go r.senderLoop()
}

// ensureRetransLocked spawns the retransmit loop when frames are in
// flight and no loop is alive to time them. Caller holds r.mu.
func (r *ReliableLink) ensureRetransLocked() {
	if r.retransActive || r.closed || r.detached || len(r.inflight) == 0 {
		return
	}
	r.retransActive = true
	go r.retransmitLoop()
}

// Request passes through to the underlying link: correlated
// request/reply exchanges carry their own correlation and timeout.
// (Conn-attached reliable links route requests through the reliable
// channel at the Conn layer instead — see Conn.request.)
func (r *ReliableLink) Request(t MsgType, body []byte) (*Message, error) {
	r.mu.Lock()
	raw := r.raw
	r.mu.Unlock()
	return raw.Request(t, body)
}

// Ack processes a cumulative acknowledgement body, releasing every
// in-flight frame it covers and feeding the RTT estimator (Karn's
// rule: only frames transmitted exactly once produce samples). A
// clean sample replaces the link's RTO.
// Conn-attached links are fed automatically from the connection's
// read loop.
func (r *ReliableLink) Ack(body []byte) {
	epoch, cum, err := decodeRelAck(body)
	if err != nil {
		return
	}
	now := r.clock.Now()
	r.mu.Lock()
	if r.closed || epoch != r.epoch || cum <= r.acked {
		r.mu.Unlock()
		return
	}
	r.acked = cum
	sampled := false
	for seq, e := range r.inflight {
		if seq <= cum {
			delete(r.inflight, seq)
			if e.data {
				r.inflightData--
			}
			if e.attempts == 1 {
				r.est.observe(now.Sub(e.sentAt))
				sampled = true
			}
		}
	}
	if sampled {
		r.rto = min(max(r.est.rto(), r.cfg.MinRTO), r.cfg.MaxBackoff)
	}
	r.ensureSenderLocked()
	r.updateRunnableLocked()
	r.cond.Broadcast()
	r.mu.Unlock()
	r.acksReceived.Add(1)
	if r.stats != nil {
		r.stats.relAcksReceived.Add(1)
	}
	r.kickLoop()
}

// Nack processes a receiver gap report: every named seq still in
// flight is retransmitted immediately — the fast path that spares a
// single lost frame the full backoff wait. The frame's backoff is
// kept (a gap is a loss signal, not a congestion signal worth
// doubling for) but its deadline is pushed so the timer does not
// double-fire right behind the repair. Conn-attached links are fed
// automatically from the connection's read loop.
func (r *ReliableLink) Nack(body []byte) {
	epoch, seqs, err := decodeRelNack(body)
	if err != nil {
		return
	}
	r.mu.Lock()
	if r.closed || r.detached || epoch != r.epoch || !r.cfg.FastRetransmit {
		r.mu.Unlock()
		return
	}
	now := r.clock.Now()
	var due []*relEntry
	for _, seq := range seqs {
		e, ok := r.inflight[seq]
		if !ok {
			continue // already acked: a stale report
		}
		if r.cfg.MaxAttempts > 0 && e.attempts >= r.cfg.MaxAttempts {
			continue // the timer path owns give-up
		}
		e.attempts++
		e.deadline = now.Add(e.backoff)
		due = append(due, e)
	}
	raw := r.raw
	r.mu.Unlock()
	if len(due) == 0 {
		return
	}
	sort.Slice(due, func(i, j int) bool { return due[i].seq < due[j].seq })
	for _, e := range due {
		if err := raw.Send(&Message{Type: MsgReliableData, Body: e.frame}); err != nil {
			r.failSend(err)
			return
		}
		r.fastRetransmits.Add(1)
		if r.stats != nil {
			r.stats.relFastRetransmits.Add(1)
		}
	}
	r.kickLoop()
}

// retransmitLoop resends unacked frames when their deadlines pass,
// doubling each frame's backoff per attempt. One timer is re-armed at
// the earliest deadline across waits (Timer.ResetAt) so the loop
// costs no per-wake allocation. The loop is spawned lazily by
// ensureRetransLocked and exits — instead of parking — once nothing
// is in flight, the link detaches (deadlines freeze until the resume
// replay rearms them and respawns the loop), or it closes; the flag
// clears in the same critical section as the exit decision so a
// concurrent registration can never see a stale flag and skip the
// respawn.
func (r *ReliableLink) retransmitLoop() {
	var timer Timer
	wait := func(at time.Time) bool { // false: shut down
		if timer == nil {
			timer = r.clock.NewTimerAt(at)
		} else {
			timer.ResetAt(at)
		}
		select {
		case <-timer.C():
		case <-r.kick: // in-flight set changed; recompute
			timer.Stop()
		case <-r.done:
			timer.Stop()
			return false
		}
		return true
	}
	for {
		r.mu.Lock()
		if r.closed || r.detached || len(r.inflight) == 0 {
			r.retransActive = false
			r.mu.Unlock()
			return
		}
		var earliest time.Time
		for _, e := range r.inflight {
			if earliest.IsZero() || e.deadline.Before(earliest) {
				earliest = e.deadline
			}
		}
		now := r.clock.Now()
		if earliest.After(now) {
			r.mu.Unlock()
			if !wait(earliest) {
				r.mu.Lock()
				r.retransActive = false
				r.mu.Unlock()
				return
			}
			continue
		}
		var due []*relEntry
		var gaveUp error
		for _, e := range r.inflight {
			if e.deadline.After(now) {
				continue
			}
			if r.cfg.MaxAttempts > 0 && e.attempts >= r.cfg.MaxAttempts {
				gaveUp = &UnreachableError{
					Seq:      e.seq,
					Attempts: e.attempts,
					Pending:  len(r.inflight),
					LastErr:  r.lastSendErr,
				}
				break
			}
			e.attempts++
			e.backoff = min(2*e.backoff, r.cfg.MaxBackoff)
			e.deadline = now.Add(e.backoff)
			due = append(due, e)
		}
		raw := r.raw
		r.mu.Unlock()
		if gaveUp != nil {
			r.fail(gaveUp)
			r.mu.Lock()
			r.retransActive = false
			r.mu.Unlock()
			return
		}
		// Resend in sequence order: deterministic, and the receiver's
		// contiguity drain benefits from low seqs arriving first.
		sort.Slice(due, func(i, j int) bool { return due[i].seq < due[j].seq })
		for _, e := range due {
			if err := raw.Send(&Message{Type: MsgReliableData, Body: e.frame}); err != nil {
				if r.failSend(err) {
					break // detached: exit on the next pass
				}
				r.mu.Lock()
				r.retransActive = false
				r.mu.Unlock()
				return
			}
			r.retransmits.Add(1)
			if r.stats != nil {
				r.stats.relRetransmits.Add(1)
			}
		}
	}
}

// maxInflightTotal caps the whole in-flight set, control frames
// included — the memory bound for links that stop acking.
func (r *ReliableLink) maxInflightTotal() int {
	if n := 8 * r.cfg.Window; n > 256 {
		return n
	}
	return 256
}

func (r *ReliableLink) kickLoop() {
	select {
	case r.kick <- struct{}{}:
	default:
	}
}

// closeLocked marks the link dead, abandoning queued frames (counted
// in Stats.RelQueueAbandoned — the "flushed or reported" half of the
// shutdown contract) and waking every waiter. Caller holds r.mu.
func (r *ReliableLink) closeLocked(err error) {
	if r.closed {
		return
	}
	r.closed = true
	r.err = err
	if n := len(r.queue); n > 0 {
		r.queueAbandoned += uint64(n)
		if r.stats != nil {
			r.stats.relQueueAbandoned.Add(uint64(n))
		}
		r.queue = nil
	}
	r.updateRunnableLocked()
	r.cond.Broadcast()
	r.stopOnce.Do(func() { close(r.done) })
}

// shutdown marks the link dead, unblocking window waiters, the
// retransmit loop and the sender goroutine.
func (r *ReliableLink) shutdown(err error) {
	r.mu.Lock()
	r.closeLocked(err)
	r.mu.Unlock()
}

func (r *ReliableLink) fail(err error) { r.shutdown(err) }

// failSend records a raw send failure (so later give-up errors can
// carry it) and fails the link — or, on a managed link, detaches it
// and reports true: the window survives for the resume replay.
func (r *ReliableLink) failSend(err error) bool {
	r.mu.Lock()
	if r.lastSendErr == nil {
		r.lastSendErr = err
	}
	if r.managed && !r.closed {
		r.detachLocked()
		r.mu.Unlock()
		r.kickLoop()
		return true
	}
	r.closeLocked(err)
	r.mu.Unlock()
	return false
}

// detachLocked parks a managed link across an outage: loops idle,
// window and queue stay intact. Caller holds r.mu.
func (r *ReliableLink) detachLocked() {
	if r.detached {
		return
	}
	r.detached = true
	r.updateRunnableLocked()
	r.cond.Broadcast()
}

// setManaged hands ownership of the link's lifecycle to a Remote:
// teardown detaches instead of closing. Called before traffic flows.
func (r *ReliableLink) setManaged() {
	r.mu.Lock()
	r.managed = true
	r.mu.Unlock()
}

// sessionEpoch returns the epoch a resume handshake should name.
func (r *ReliableLink) sessionEpoch() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.epoch
}

// isClosed reports whether the link has been killed (as opposed to
// detached); a quarantined Remote's carried link is dead and a redial
// must start fresh.
func (r *ReliableLink) isClosed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.closed
}

// resume points a detached (or freshly failing) link at a new raw
// connection and replays the unacked window. With sameEpoch the
// receiver still holds the session: frames at or below its advertised
// cumulative ack are released unsent and the rest retransmit under
// their old numbering. Otherwise the link rolls to a fresh epoch and
// renumbers the surviving window from seq 1 — the receiver's epoch
// reset then accepts the replay contiguously, and its saved-session
// dedup (resumeCum) suppresses anything it had already committed.
// Returns the number of frames put back on the wire.
func (r *ReliableLink) resume(raw Link, sameEpoch bool, cum uint64) int {
	r.sendMu.Lock() // the replay goes out ahead of any new frame
	defer r.sendMu.Unlock()
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return 0
	}
	r.raw = raw
	if sameEpoch && cum > r.acked {
		r.acked = cum
		for seq, e := range r.inflight {
			if seq <= cum {
				delete(r.inflight, seq)
				if e.data {
					r.inflightData--
				}
			}
		}
	}
	entries := make([]*relEntry, 0, len(r.inflight))
	for _, e := range r.inflight {
		entries = append(entries, e)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].seq < entries[j].seq })
	now := r.clock.Now()
	rto := r.rto
	// Build fresh entries rather than mutating the old ones: a resend
	// racing on another goroutine may still be reading the old frames.
	fresh := make([]*relEntry, 0, len(entries))
	if !sameEpoch {
		r.epoch = nextRelEpoch()
		r.acked = 0
	}
	for i, e := range entries {
		seq, frame := e.seq, e.frame
		if !sameEpoch {
			seq = uint64(i + 1)
			_, _, inner, err := decodeRelData(e.frame)
			if err != nil {
				continue // unreachable: this layer encoded the frame
			}
			frame = encodeRelData(r.epoch, seq, inner)
		}
		fresh = append(fresh, &relEntry{
			seq:      seq,
			data:     e.data,
			frame:    frame,
			sentAt:   now,
			deadline: now.Add(rto),
			backoff:  rto,
			attempts: 1,
		})
	}
	if !sameEpoch {
		r.nextSeq = uint64(len(fresh)) + 1
	}
	r.inflight = make(map[uint64]*relEntry, len(fresh))
	r.inflightData = 0
	for _, e := range fresh {
		r.inflight[e.seq] = e
		if e.data {
			r.inflightData++
		}
	}
	r.detached = false
	r.lastSendErr = nil
	// Reattached with a rebuilt in-flight set and (possibly) queued
	// frames: respawn whichever loops the work needs and restore the
	// busy contribution the detach dropped.
	r.ensureSenderLocked()
	r.ensureRetransLocked()
	r.updateRunnableLocked()
	r.cond.Broadcast()
	r.wireBusy(1)
	defer r.wireBusy(-1)
	r.mu.Unlock()
	r.kickLoop()

	replayed := 0
	for _, e := range fresh {
		if err := raw.Send(&Message{Type: MsgReliableData, Body: e.frame}); err != nil {
			r.failSend(err)
			break
		}
		replayed++
		if r.stats != nil {
			r.stats.relFramesReplayed.Add(1)
		}
	}
	return replayed
}

// stop halts the reliable machinery without closing the underlying
// link (the connection teardown paths own that). A managed link
// detaches instead: its Remote decides when the session truly dies.
func (r *ReliableLink) stop() {
	r.mu.Lock()
	if r.managed && !r.closed {
		r.detachLocked()
		r.mu.Unlock()
		r.kickLoop()
		return
	}
	r.closeLocked(ErrClosed)
	r.mu.Unlock()
}

// Close stops the reliable machinery and closes the underlying link.
func (r *ReliableLink) Close() error {
	r.shutdown(ErrClosed)
	r.mu.Lock()
	raw := r.raw
	r.mu.Unlock()
	return raw.Close()
}

// ReliableLinkStats is a point-in-time snapshot of a sender's state.
type ReliableLinkStats struct {
	Epoch           uint64
	NextSeq         uint64
	Acked           uint64
	InFlight        int // all unacked frames
	InFlightData    int // unacked object frames (window occupancy)
	QueueDepth      int // frames waiting in the send pipeline
	QueuePeak       int // high-water mark of the send queue
	QueueDropped    uint64
	QueueAbandoned  uint64
	SRTT            time.Duration // smoothed RTT (zero until sampled)
	RTTVar          time.Duration
	RTO             time.Duration // retransmit timeout new frames start from
	RTTSamples      uint64
	Retransmits     uint64
	FastRetransmits uint64
	AcksReceived    uint64
	// Detached reports a managed link parked across an outage,
	// awaiting a redial's resume replay.
	Detached bool
}

// Snapshot returns the sender's current counters.
func (r *ReliableLink) Snapshot() ReliableLinkStats {
	r.mu.Lock()
	s := ReliableLinkStats{
		Epoch:          r.epoch,
		NextSeq:        r.nextSeq,
		Acked:          r.acked,
		InFlight:       len(r.inflight),
		InFlightData:   r.inflightData,
		QueueDepth:     len(r.queue),
		QueuePeak:      r.queuePeak,
		QueueDropped:   r.queueDropped,
		QueueAbandoned: r.queueAbandoned,
		SRTT:           r.est.srtt,
		RTTVar:         r.est.rttvar,
		RTO:            r.rto,
		RTTSamples:     r.est.samples,
		Detached:       r.detached,
	}
	r.mu.Unlock()
	s.Retransmits = r.retransmits.Load()
	s.FastRetransmits = r.fastRetransmits.Load()
	s.AcksReceived = r.acksReceived.Load()
	return s
}

var _ Link = (*ReliableLink)(nil)

// --- receiver ---------------------------------------------------------

// relRecvBuffer bounds out-of-order frames held per connection; a
// frame further ahead than this is dropped (the sender's retransmit
// recovers it once the window advances).
const relRecvBuffer = 1024

// relPending is one in-order frame awaiting dispatch. The (epoch,
// seq) ride along so the drain goroutine can advance the delivered
// watermark — and ack it — only after the handler returns. A nil m is
// a correlated reply already routed at receive time; its seq still
// counts toward the watermark when its turn comes.
type relPending struct {
	epoch, seq uint64
	m          *Message
}

// relGap is one gap report awaiting transmission.
type relGap struct {
	epoch uint64
	seqs  []uint64
}

// relReceiver is the receive half of the reliable layer: dedup,
// cumulative acks, gap-driven NACKs, and strictly in-order dispatch.
// One is armed on every Conn, so receiving needs no opt-in.
//
// handleData runs on the connection's read loop, so every dedup,
// buffering and gap decision sees frames in wire order. It neither
// sends an ack or NACK nor runs a handler: handlers go to the drain,
// gap reports and re-acks to the signaller, each one goroutine at a
// time per receiver, started when a burst leaves work and gone when it
// is done. The signaller never waits for a handler, so a blocked
// handler does not hold up repair of frames that arrive meanwhile; and
// the read loop does not block on its own conn for them (two read
// loops writing to each other over an unbuffered pipe would deadlock).
//
// The cumulative ack certifies delivery to the application, not
// arrival in the reorder buffer: deliv advances only after a frame's
// handler returns, and that is the watermark every ack carries. A
// freshly accepted frame is acked exactly once, by the drain after its
// handler; only duplicates and frames beyond the buffer are re-acked,
// which is what repairs a lost ack. A receiver that crashes between
// receiving a frame and dispatching it has therefore never
// acknowledged it, so the sender's resume replay redelivers instead of
// losing it.
type relReceiver struct {
	stats *Stats // optional peer counters

	mu          sync.Mutex
	epoch       uint64
	next        uint64 // next in-sequence seq to accept
	deliv       uint64 // contiguous prefix whose handlers have returned
	resumeCum   uint64 // adopted session's committed prefix, for replay dedup
	buf         map[uint64]*Message
	nacked      map[uint64]struct{} // gaps already reported this epoch
	pending     []relPending
	gaps        []relGap // gap reports for the signaller to send
	reack       bool     // a duplicate asked for the watermark to be re-sent
	dispatching bool
	signalling  bool
	closed      bool       // sealed at conn teardown: no accepts, no dispatch
	idle        *sync.Cond // signalled when dispatching goes false

	dispatch func(*Message)                    // in-order request dispatch
	reply    func(*Message)                    // immediate correlated-reply routing
	ack      func(epoch, cum uint64)           // ack transmission
	nack     func(epoch uint64, seqs []uint64) // gap-report transmission (nil: disabled)
	drop     func(reason string)               // typed drop-reason reporting (nil: disabled)
	// spawn runs the drain and the signaller on goroutines of their
	// own (nil: inline, on the caller's goroutine — the unit tests'
	// synchronous form).
	spawn func(func())
}

func newRelReceiver(stats *Stats, dispatch, reply func(*Message), ack func(epoch, cum uint64), nack func(epoch uint64, seqs []uint64)) *relReceiver {
	rr := &relReceiver{
		stats:    stats,
		next:     1,
		buf:      make(map[uint64]*Message),
		nacked:   make(map[uint64]struct{}),
		dispatch: dispatch,
		reply:    reply,
		ack:      ack,
		nack:     nack,
	}
	rr.idle = sync.NewCond(&rr.mu)
	return rr
}

// isRelReply reports whether an inner message is a correlated reply,
// which bypasses the in-order queue (see the package comment's
// deadlock argument).
func isRelReply(t MsgType) bool {
	switch t {
	case MsgTypeInfoReply, MsgCodeReply, MsgInvokeReply, MsgLookupReply, MsgError:
		return true
	}
	return false
}

// handleData processes one MsgReliableData body in wire order: dedup,
// buffer, gap detection, and routing of correlated replies. Handler
// dispatch and acks are left to the drain, gap reports and re-acks to
// the signaller; this starts either when it has work and none is
// running.
func (rr *relReceiver) handleData(body []byte) error {
	epoch, seq, inner, err := decodeRelData(body)
	if err != nil {
		return err
	}
	var replyNow *Message
	var dropReason string
	rr.mu.Lock()
	if rr.closed {
		// Sealed at teardown: the frame is neither accepted nor
		// acked, so the sender's replay redelivers it to whichever
		// conn succeeds this one.
		rr.mu.Unlock()
		return nil
	}
	if epoch < rr.epoch {
		// Ghost of a pre-restart sender: never redelivered, never
		// acked (the old sender is gone; acking would be noise).
		rr.mu.Unlock()
		rr.countDeduped()
		if rr.stats != nil {
			rr.stats.relStaleEpoch.Add(1)
		}
		if rr.drop != nil {
			rr.drop("stale epoch frame")
		}
		return nil
	}
	if epoch > rr.epoch {
		// A restarted (or seq-wrapped) sender: fresh sequence space.
		// Pending frames from the old epoch still dispatch (they were
		// contiguous when accepted); they carry their own epoch so
		// the drain never acks them under the new one.
		rr.epoch = epoch
		rr.next = 1
		rr.deliv = 0
		rr.resumeCum = 0
		rr.buf = make(map[uint64]*Message)
		rr.nacked = make(map[uint64]struct{})
	}
	_, buffered := rr.buf[seq]
	switch {
	case seq < rr.next || buffered:
		rr.countDeduped() // duplicate: suppressed, but re-acked
		rr.reack = true
		if seq <= rr.resumeCum {
			// A resume replay re-offering what the pre-outage session
			// already committed: its own accounting bucket, so churn
			// tests can tell replay dedup from wire-level duplicates.
			if rr.stats != nil {
				rr.stats.relResumeDeduped.Add(1)
			}
			dropReason = "resume replay duplicate"
		}
	case seq-rr.next >= relRecvBuffer: // subtraction: safe near seq wrap
		// Too far ahead to hold; the re-ack still reports where the
		// contiguous prefix ends, and retransmit recovers this.
		rr.reack = true
	default:
		if isRelReply(inner.Type) {
			// Replies route immediately; a nil sentinel keeps the
			// seq accounted for dedup and contiguity.
			replyNow = inner
			rr.buf[seq] = nil
		} else {
			rr.buf[seq] = inner
		}
		for {
			m, ok := rr.buf[rr.next]
			if !ok {
				break
			}
			delete(rr.buf, rr.next)
			delete(rr.nacked, rr.next)
			rr.pending = append(rr.pending, relPending{epoch: rr.epoch, seq: rr.next, m: m})
			rr.next++
		}
		// Gap report: every seq below the newly buffered frame that
		// is still missing after the drain is NACKed, once per
		// epoch — the sender repairs immediately and its backoff
		// timer stays armed as the backstop for a lost report.
		if rr.nack != nil && seq > rr.next {
			var missing []uint64
			for s := rr.next; s < seq && len(missing) < maxNackSeqs; s++ {
				if _, held := rr.buf[s]; held {
					continue
				}
				if _, reported := rr.nacked[s]; reported {
					continue
				}
				rr.nacked[s] = struct{}{}
				missing = append(missing, s)
			}
			if len(missing) > 0 {
				rr.gaps = append(rr.gaps, relGap{epoch: rr.epoch, seqs: missing})
			}
		}
	}
	start := !rr.dispatching && len(rr.pending) > 0
	if start {
		rr.dispatching = true
	}
	signal := !rr.signalling && (len(rr.gaps) > 0 || rr.reack)
	if signal {
		rr.signalling = true
	}
	rr.mu.Unlock()

	if replyNow != nil {
		rr.reply(replyNow)
	}
	if dropReason != "" && rr.drop != nil {
		rr.drop(dropReason) // outside rr.mu: drop callbacks reach the observer
	}
	if start {
		rr.run(rr.drain)
	}
	if signal {
		rr.run(rr.signal)
	}
	return nil
}

func (rr *relReceiver) run(f func()) {
	if rr.spawn != nil {
		rr.spawn(f)
	} else {
		f()
	}
}

// signal sends the queued gap reports and re-ack until none are left.
// Only one signaller runs at a time, and it never waits for a handler.
// A re-ack carries the delivered watermark as of its sending.
func (rr *relReceiver) signal() {
	for {
		rr.mu.Lock()
		gaps, reack := rr.gaps, rr.reack
		rr.gaps, rr.reack = nil, false
		if rr.closed || (len(gaps) == 0 && !reack) {
			rr.signalling = false
			rr.mu.Unlock()
			return
		}
		epoch, watermark := rr.epoch, rr.deliv
		rr.mu.Unlock()
		for _, g := range gaps {
			rr.nack(g.epoch, g.seqs)
			if rr.stats != nil {
				rr.stats.relNacksSent.Add(1)
			}
		}
		if reack {
			rr.ack(epoch, watermark)
		}
	}
}

// drain dispatches pending in-order messages until none remain. Only
// one drain runs at a time; the read loop appends under the lock, so
// dispatch order is exactly sequence order. After each handler
// returns, the delivered watermark advances and an ack carries it to
// the sender — so an ack never certifies a frame whose handler has
// not run. A seal mid-drain stops the loop after the in-flight
// dispatch; the remaining pending frames stay unacked and the
// sender's replay redelivers them.
func (rr *relReceiver) drain() {
	for {
		rr.mu.Lock()
		if rr.closed || len(rr.pending) == 0 {
			rr.pending = nil
			rr.dispatching = false
			rr.idle.Broadcast()
			rr.mu.Unlock()
			return
		}
		e := rr.pending[0]
		rr.pending[0] = relPending{}
		rr.pending = rr.pending[1:]
		rr.mu.Unlock()
		if e.m != nil {
			rr.dispatch(e.m)
		}
		rr.mu.Lock()
		ackNow := e.epoch == rr.epoch
		if ackNow && e.seq > rr.deliv {
			rr.deliv = e.seq
		}
		cum := rr.deliv
		rr.mu.Unlock()
		if ackNow {
			rr.ack(e.epoch, cum)
		}
	}
}

func (rr *relReceiver) countDeduped() {
	if rr.stats != nil {
		rr.stats.relDeduped.Add(1)
	}
}

// session reports the receiver's current (epoch, next-to-deliver):
// the delivered prefix plus one, never the reorder buffer's high
// mark, so a session advertised to a resuming sender can never skip
// a frame whose handler did not run.
func (rr *relReceiver) session() (epoch, next uint64) {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	return rr.epoch, rr.deliv + 1
}

// seal freezes the receiver at conn teardown and returns the session
// the owning peer should save. It waits out an in-flight dispatch —
// its frame counts as delivered once the handler returns — and drops
// the rest of the pending queue unacked, so the saved (epoch, next)
// names exactly the delivered prefix: a resumed replay neither skips
// an undelivered frame nor redelivers a delivered one.
func (rr *relReceiver) seal() (epoch, next uint64) {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	rr.closed = true
	for rr.dispatching {
		rr.idle.Wait()
	}
	rr.pending = nil
	return rr.epoch, rr.deliv + 1
}

// sealIfWithin seals the receiver only when it holds the named
// epoch's session, returning its next-to-deliver. A resume handshake
// that adopts a session from a conn still live or tearing down must
// stop that conn's dispatch first — otherwise the predecessor would
// keep delivering past the point the handshake advertised, and the
// replay would duplicate into the same peer. The wait for an
// in-flight dispatch is bounded: the handler being waited out can
// itself be blocked on an exchange whose reply must arrive over the
// resuming conn, so on timeout the seal is rolled back — the
// receiver keeps its session, and frames refused while briefly
// sealed ride the sender's retransmit — and timedOut tells the
// handshake to answer found=false instead of deadlocking the peer.
func (rr *relReceiver) sealIfWithin(epoch uint64, clock Clock, timeout time.Duration) (next uint64, ok, timedOut bool) {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	if rr.epoch != epoch {
		return 0, false, false
	}
	wasClosed := rr.closed
	rr.closed = true
	if rr.dispatching {
		var expired atomic.Bool
		timer := clock.NewTimer(timeout)
		watcherDone := make(chan struct{})
		go func() {
			select {
			case <-timer.C():
				expired.Store(true)
				rr.mu.Lock()
				rr.idle.Broadcast()
				rr.mu.Unlock()
			case <-watcherDone:
			}
		}()
		for rr.dispatching && !expired.Load() {
			rr.idle.Wait()
		}
		timer.Stop()
		close(watcherDone)
		if rr.dispatching {
			rr.closed = wasClosed
			return 0, false, true
		}
	}
	rr.pending = nil
	return rr.deliv + 1, true, false
}

// adopt installs a saved session's (epoch, next) on a fresh receiver
// so a resumed sender's replay continues where the pre-outage conn
// left off: frames at or below next-1 are suppressed into the
// resume-dedup bucket instead of being redelivered. Stale adoptions
// (the receiver has since seen a newer epoch, or is already further
// along) are ignored.
func (rr *relReceiver) adopt(epoch, next uint64) {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	if rr.closed || epoch < rr.epoch || (epoch == rr.epoch && next <= rr.next) {
		return
	}
	rr.epoch = epoch
	rr.next = next
	rr.deliv = next - 1
	rr.resumeCum = next - 1
	rr.buf = make(map[uint64]*Message)
	rr.nacked = make(map[uint64]struct{})
}
