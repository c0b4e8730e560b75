package transport

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pti/internal/registry"
)

// Fabric errors.
var (
	ErrFabricClosed  = errors.New("transport: fabric closed")
	ErrUnknownNode   = errors.New("transport: unknown fabric node")
	ErrNodeCrashed   = errors.New("transport: fabric node crashed")
	ErrNodeAlive     = errors.New("transport: fabric node is alive")
	ErrDuplicateNode = errors.New("transport: duplicate fabric node")
	ErrNoRegistry    = errors.New("transport: fabric has no default registry")
)

// FaultProfile describes the behaviour of one link direction on the
// fabric. The zero value is a perfect link: no delay, unlimited
// bandwidth, no faults.
type FaultProfile struct {
	// Latency is the base one-way frame delay.
	Latency time.Duration
	// Jitter adds a uniformly distributed extra delay in [0, Jitter).
	Jitter time.Duration
	// Bandwidth shapes delivery to bytes/second (0 = unlimited):
	// frames queue behind each other's transmission time.
	Bandwidth int
	// DropRate is the probability a frame is silently discarded.
	DropRate float64
	// DupRate is the probability a frame is delivered twice.
	DupRate float64
	// ReorderRate is the probability a frame is held back so that
	// frames sent after it overtake it.
	ReorderRate float64
}

// perfect reports whether the profile can neither lose nor duplicate
// nor reorder frames — the at-most-once (in fact exactly-once)
// delivery regime.
func (p FaultProfile) perfect() bool {
	return p.DropRate == 0 && p.DupRate == 0 && p.ReorderRate == 0
}

// FaultDecision is one recorded scheduling decision of a link
// direction: what the fabric decided to do with frame number Frame.
// The full sequence of decisions is the fault schedule; for a given
// seed and frame sequence it replays byte-identically (see
// Fabric.ScheduleDump).
type FaultDecision struct {
	Link    string // "a->b"
	Frame   uint64 // per-direction frame counter, from 0
	Size    int    // frame bytes
	Cut     bool   // dropped by a partition
	Drop    bool   // dropped by the random schedule
	Dup     bool   // delivered twice
	Reorder bool   // held back so later frames overtake
	Delay   time.Duration
}

// FabricStats aggregates frame counters over every link direction.
type FabricStats struct {
	FramesSent       uint64
	FramesDelivered  uint64
	FramesDropped    uint64 // random drops
	FramesDuplicated uint64
	FramesReordered  uint64
	PartitionDrops   uint64
}

// Fabric is a deterministic in-memory multi-peer simulation network:
// it owns N named peers and the virtual links between them. Links
// inject latency, bandwidth shaping, drops, duplication, reordering
// and partitions, and peers can crash and restart mid-stream — all
// driven by PRNGs derived from one seed, so a failing run replays
// from its printed seed. Peers on the fabric are ordinary *Peer
// values connected through ordinary *Conn values: the protocol code
// cannot tell the fabric from a real network.
type Fabric struct {
	seed        int64
	defaultReg  *registry.Registry
	defaultOpts []PeerOption
	clock       Clock
	vclock      *VirtualClock // owned; stopped on Close

	// fb holds the O(1) busy-probe counters every fabric peer, link
	// buffer and reliable pipeline maintains event-driven; fsched is
	// the sharded frame scheduler all link directions deliver through
	// (see sched.go). Both are fixed-size regardless of peer count.
	fb     *fabricBusy
	fsched *frameSched

	mu      sync.Mutex
	nodes   map[string]*Node
	links   map[string]*fabricLink // key: unordered pair "a|b"
	retired FabricStats            // counters of links torn down by crash/reconnect
	sched   []FaultDecision        // decisions of retired links
	closed  bool
}

// FabricOption customizes a Fabric.
type FabricOption func(*Fabric)

// WithFabricRegistry sets the registry AddPeer uses when the caller
// does not supply one — the "every peer ships the same assemblies"
// configuration. Divergent-registry scenarios use AddPeerWithRegistry.
func WithFabricRegistry(reg *registry.Registry) FabricOption {
	return func(f *Fabric) { f.defaultReg = reg }
}

// WithFabricPeerOptions prepends options to every peer the fabric
// builds (AddPeer and Restart).
func WithFabricPeerOptions(opts ...PeerOption) FabricOption {
	return func(f *Fabric) { f.defaultOpts = append(f.defaultOpts, opts...) }
}

// WithVirtualClock switches the fabric to a discrete event clock:
// link latency, bandwidth shaping, request timeouts and retransmit
// timers all run in virtual time that jumps to the next scheduled
// deadline instead of sleeping through it. Fault schedules are
// unchanged — decisions remain a pure function of (seed, direction,
// frame index) — so seed replay still reproduces the identical
// schedule, just compressed to real seconds.
func WithVirtualClock() FabricOption {
	return func(f *Fabric) {
		f.vclock = NewVirtualClock()
		f.clock = f.vclock
		// The busy probe is installed by NewFabric once the frame
		// scheduler exists: the probe reads f.fsched, and the clock's
		// auto-advancer starts probing the instant SetBusyFunc lands.
	}
}

// busy reports whether the fabric still has runnable work in flight:
// delivered frames waiting in a receive buffer, a peer handler
// actually executing (as opposed to parked on a clock-backed wait),
// or a reliable send pipeline with a transmittable head frame. The
// virtual clock's advancer holds time still while busy, so a
// goroutine-scheduled round trip on a zero-latency link can never
// lose a race against its own timeout deadline.
//
// The answer is three atomic loads plus an O(shards) scheduler check:
// every contributor maintains its counter at its own state
// transitions (frameBuffer when bytes arrive and when its reader comes
// back to an empty buffer, Peer on handler enter/park/unpark/exit,
// ReliableLink on every admission-state change and around each raw
// send), and the scheduler reports due-but-undelivered frames whose
// timers have already consumed themselves. The 20kHz probe therefore
// costs O(1) in peers and links.
func (f *Fabric) busy() bool {
	if !f.fb.idle() {
		return true
	}
	return f.fsched.busy(f.clock.Now())
}

// NamedProfile returns one of the canonical fault profiles the soak
// matrix, the nightly CI run and the benchmarks share, keyed by name:
//
//	perfect  zero-fault, zero-delay baseline
//	lan      sub-millisecond latency, no faults
//	wan      ~100ms one-way latency with loss, duplication, reordering
//	chaos    aggressive loss/dup/reorder on a jittery link
//	slow     a slow consumer: modest latency, tight bandwidth shaping
func NamedProfile(name string) (FaultProfile, bool) {
	switch name {
	case "perfect":
		return FaultProfile{}, true
	case "lan":
		return FaultProfile{
			Latency: 500 * time.Microsecond,
			Jitter:  200 * time.Microsecond,
		}, true
	case "wan":
		return FaultProfile{
			Latency:     100 * time.Millisecond,
			Jitter:      50 * time.Millisecond,
			DropRate:    0.05,
			DupRate:     0.05,
			ReorderRate: 0.1,
		}, true
	case "chaos":
		return FaultProfile{
			Latency:     20 * time.Millisecond,
			Jitter:      20 * time.Millisecond,
			DropRate:    0.2,
			DupRate:     0.1,
			ReorderRate: 0.25,
		}, true
	case "slow":
		return FaultProfile{
			Latency:   2 * time.Millisecond,
			Jitter:    time.Millisecond,
			Bandwidth: 64 * 1024,
		}, true
	}
	return FaultProfile{}, false
}

// Clock returns the clock the fabric schedules on (the wall clock
// unless WithVirtualClock was given).
func (f *Fabric) Clock() Clock { return f.clock }

// maxScheduleLen bounds fault-schedule recording per link direction
// so soak runs cannot grow memory without bound. Decisions past the
// cap are dropped.
const maxScheduleLen = 1 << 16

// NewFabric builds an empty fabric. Every random choice the fabric
// makes derives from seed; the same seed with the same frame
// sequences yields the same fault schedule.
func NewFabric(seed int64, opts ...FabricOption) *Fabric {
	f := &Fabric{
		seed:  seed,
		clock: realClock{},
		nodes: make(map[string]*Node),
		links: make(map[string]*fabricLink),
		fb:    &fabricBusy{},
	}
	for _, opt := range opts {
		opt(f)
	}
	// After the options: WithVirtualClock may have swapped f.clock,
	// and the scheduler's shard timers must run on the final clock.
	// The busy probe is installed last — it reads f.fsched, so the
	// auto-advancer must not see the fabric half-built.
	f.fsched = newFrameSched(f.clock)
	if f.vclock != nil {
		f.vclock.SetBusyFunc(f.busy)
	}
	return f
}

// SchedulerStats reports the sharded frame scheduler's cumulative
// counters: frames accepted for delivery, heap operations performed,
// and the (fixed) shard count — the observability hook behind the
// scale benchmark's ops-per-frame row.
func (f *Fabric) SchedulerStats() (frames, heapOps uint64, shards int) {
	return f.fsched.frames.Load(), f.fsched.heapOps.Load(), len(f.fsched.shards)
}

// Seed returns the fabric's seed — print it when a scenario fails so
// the run can be replayed.
func (f *Fabric) Seed() int64 { return f.seed }

// Node is one simulated peer of the fabric, addressable by name. It
// remembers how the peer was built so a crash can be followed by a
// restart (same registry, same options, fresh caches).
type Node struct {
	fab  *Fabric
	name string
	reg  *registry.Registry
	opts []PeerOption

	// guarded by fab.mu
	peer     *Peer
	gen      int                     // restart generation, salts the link PRNGs
	conns    map[string]*Conn        // live conns by remote node
	profiles map[string]FaultProfile // last profile per remote, for restart
	remotes  map[string]*Remote      // managed links (ConnectManaged), by remote node
	crashed  bool
}

// Name returns the node's fabric name.
func (n *Node) Name() string { return n.name }

// Peer returns the node's current peer (nil while crashed).
func (n *Node) Peer() *Peer {
	n.fab.mu.Lock()
	defer n.fab.mu.Unlock()
	return n.peer
}

// ConnTo returns the node's live connection to a remote node. For a
// managed link (ConnectManaged) the conn is owned by the Remote and
// changes identity across redials; during an outage there is none.
func (n *Node) ConnTo(remote string) (*Conn, bool) {
	n.fab.mu.Lock()
	c, ok := n.conns[remote]
	rm := n.remotes[remote]
	n.fab.mu.Unlock()
	if ok && c != nil {
		return c, true
	}
	if rm != nil {
		if c := rm.Conn(); c != nil {
			return c, true
		}
	}
	return nil, false
}

// ManagedTo returns the node's managed remote toward a neighbour
// (see ConnectManaged), or nil.
func (n *Node) ManagedTo(remote string) *Remote {
	n.fab.mu.Lock()
	defer n.fab.mu.Unlock()
	return n.remotes[remote]
}

// AddPeer creates a named peer over the fabric's default registry.
func (f *Fabric) AddPeer(name string, opts ...PeerOption) (*Node, error) {
	if f.defaultReg == nil {
		return nil, ErrNoRegistry
	}
	return f.AddPeerWithRegistry(name, f.defaultReg, opts...)
}

// AddPeerWithRegistry creates a named peer over its own registry —
// the divergent-registries scenario axis.
func (f *Fabric) AddPeerWithRegistry(name string, reg *registry.Registry, opts ...PeerOption) (*Node, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, ErrFabricClosed
	}
	if _, ok := f.nodes[name]; ok {
		return nil, fmt.Errorf("%w: %s", ErrDuplicateNode, name)
	}
	all := append(append([]PeerOption{WithName(name), WithClock(f.clock), withFabricBusy(f.fb)}, f.defaultOpts...), opts...)
	n := &Node{
		fab:      f,
		name:     name,
		reg:      reg,
		opts:     all,
		peer:     NewPeer(reg, all...),
		conns:    make(map[string]*Conn),
		profiles: make(map[string]FaultProfile),
		remotes:  make(map[string]*Remote),
	}
	f.nodes[name] = n
	return n, nil
}

// Node returns the named node, or nil.
func (f *Fabric) Node(name string) *Node {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.nodes[name]
}

func pairKeyOf(a, b string) string {
	if a > b {
		a, b = b, a
	}
	return a + "|" + b
}

// Connect links two nodes with one profile for both directions,
// returning the two ends as *Conns (which satisfy Link). An existing
// link between the pair is torn down first.
func (f *Fabric) Connect(a, b string, prof FaultProfile) (*Conn, *Conn, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.connectLocked(a, b, prof, prof)
}

// ConnectAsymmetric links two nodes with independent per-direction
// profiles — ab shapes frames a→b, ba shapes frames b→a. This is the
// asymmetric-latency regime real networks produce and TCP hides: a
// path whose data direction crawls while its ack direction is fast
// (or the reverse, where acks trickle back late and inflate the
// sender's RTT estimate).
func (f *Fabric) ConnectAsymmetric(a, b string, ab, ba FaultProfile) (*Conn, *Conn, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.connectLocked(a, b, ab, ba)
}

// connectLocked builds the link a—b with outbound profile profAB for
// the a→b direction and profBA for b→a.
func (f *Fabric) connectLocked(a, b string, profAB, profBA FaultProfile) (*Conn, *Conn, error) {
	if f.closed {
		return nil, nil, ErrFabricClosed
	}
	na, nb := f.nodes[a], f.nodes[b]
	if na == nil {
		return nil, nil, fmt.Errorf("%w: %s", ErrUnknownNode, a)
	}
	if nb == nil {
		return nil, nil, fmt.Errorf("%w: %s", ErrUnknownNode, b)
	}
	if na.crashed {
		return nil, nil, fmt.Errorf("%w: %s", ErrNodeCrashed, a)
	}
	if nb.crashed {
		return nil, nil, fmt.Errorf("%w: %s", ErrNodeCrashed, b)
	}
	if old := f.links[pairKeyOf(a, b)]; old != nil {
		old.closeAll()
		f.retireLinkLocked(old)
	}

	l := &fabricLink{a: a, b: b}
	// Each direction owns a PRNG derived from (seed, direction name,
	// restart generations): deterministic per direction, fresh — but
	// reproducibly so — after a crash/restart.
	salt := fmt.Sprintf("%s#%d->%s#%d", a, na.gen, b, nb.gen)
	l.ab = newLinkDir(a+"->"+b, rngFor(f.seed, "ab|"+salt), profAB, f.clock, f.fsched)
	l.ba = newLinkDir(b+"->"+a, rngFor(f.seed, "ba|"+salt), profBA, f.clock, f.fsched)
	l.aEnd = &fabricEnd{link: l, out: l.ab, in: newFrameBuffer(f.fb), local: a, remote: b}
	l.bEnd = &fabricEnd{link: l, out: l.ba, in: newFrameBuffer(f.fb), local: b, remote: a}
	l.ab.dst = l.bEnd.in
	l.ba.dst = l.aEnd.in

	ca := newConn(na.peer, l.aEnd)
	cb := newConn(nb.peer, l.bEnd)
	f.links[pairKeyOf(a, b)] = l
	na.conns[b] = ca
	nb.conns[a] = cb
	// Each node remembers its *outbound* profile toward the remote,
	// so an asymmetric link survives crash/restart direction-exact.
	na.profiles[b] = profAB
	nb.profiles[a] = profBA
	return ca, cb, nil
}

// ConnectManaged links from→to under lifecycle management (one
// profile, both directions): the from side owns a Remote that
// heartbeats the link, detects its failure, redials with backoff and
// resumes the reliable session. Unlike Connect, the pair is excluded
// from Restart's automatic re-linking — when either side comes back,
// the Remote's redial re-establishes the link (a restarted manager
// lost its Remotes with its peer and calls ConnectManaged again, as a
// real process would).
func (f *Fabric) ConnectManaged(from, to string, prof FaultProfile) (*Remote, error) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil, ErrFabricClosed
	}
	na, nb := f.nodes[from], f.nodes[to]
	if na == nil {
		f.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrUnknownNode, from)
	}
	if nb == nil {
		f.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrUnknownNode, to)
	}
	if na.crashed {
		f.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrNodeCrashed, from)
	}
	peer := na.peer
	// A managed pair must not also be an auto-relinked one: forget any
	// profile memory a prior Connect left, so Restart keeps its hands
	// off the pair.
	delete(na.profiles, to)
	delete(nb.profiles, from)
	f.mu.Unlock()

	rm, err := peer.ManageConn(to, f.managedDial(from, to, prof))
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	if !na.crashed && na.peer == peer {
		na.remotes[to] = rm
	}
	f.mu.Unlock()
	return rm, nil
}

// managedDial builds the DialFunc behind a managed pair: each call
// replaces the pair's link with a fresh generation-salted one and
// returns the from side's raw endpoint. Only the target side's *Conn*
// is built here — the dialing side's is owned by its Remote.
func (f *Fabric) managedDial(from, to string, prof FaultProfile) DialFunc {
	return func() (net.Conn, error) {
		f.mu.Lock()
		defer f.mu.Unlock()
		if f.closed {
			return nil, ErrFabricClosed
		}
		na, nb := f.nodes[from], f.nodes[to]
		if na == nil || na.crashed || na.peer == nil {
			return nil, fmt.Errorf("%w: %s", ErrNodeCrashed, from)
		}
		if nb == nil || nb.crashed || nb.peer == nil {
			return nil, fmt.Errorf("%w: %s", ErrNodeCrashed, to)
		}
		key := pairKeyOf(from, to)
		if old := f.links[key]; old != nil {
			old.closeAll()
			f.retireLinkLocked(old)
			delete(f.links, key)
		}
		l := &fabricLink{a: from, b: to}
		salt := fmt.Sprintf("%s#%d->%s#%d", from, na.gen, to, nb.gen)
		l.ab = newLinkDir(from+"->"+to, rngFor(f.seed, "ab|"+salt), prof, f.clock, f.fsched)
		l.ba = newLinkDir(to+"->"+from, rngFor(f.seed, "ba|"+salt), prof, f.clock, f.fsched)
		l.aEnd = &fabricEnd{link: l, out: l.ab, in: newFrameBuffer(f.fb), local: from, remote: to}
		l.bEnd = &fabricEnd{link: l, out: l.ba, in: newFrameBuffer(f.fb), local: to, remote: from}
		l.ab.dst = l.bEnd.in
		l.ba.dst = l.aEnd.in
		cb := newConn(nb.peer, l.bEnd)
		f.links[key] = l
		nb.conns[from] = cb
		return l.aEnd, nil
	}
}

func rngFor(seed int64, salt string) *rand.Rand {
	h := uint64(1469598103934665603) // FNV-1a 64
	for i := 0; i < len(salt); i++ {
		h = (h ^ uint64(salt[i])) * 1099511628211
	}
	return rand.New(rand.NewSource(seed ^ int64(h)))
}

// SetProfile swaps the fault profile of both directions of an
// existing link, mid-stream.
func (f *Fabric) SetProfile(a, b string, prof FaultProfile) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	l := f.links[pairKeyOf(a, b)]
	if l == nil {
		return fmt.Errorf("%w: no link %s—%s", ErrUnknownNode, a, b)
	}
	l.ab.setProfile(prof)
	l.ba.setProfile(prof)
	if na := f.nodes[a]; na != nil {
		na.profiles[b] = prof
	}
	if nb := f.nodes[b]; nb != nil {
		nb.profiles[a] = prof
	}
	return nil
}

// PartitionOneWay cuts (or restores) the from→to direction only:
// frames from→to vanish while replies to→from still flow — the
// asymmetric failure TCP cannot express but real networks produce.
func (f *Fabric) PartitionOneWay(from, to string, cut bool) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	l := f.links[pairKeyOf(from, to)]
	if l == nil {
		return fmt.Errorf("%w: no link %s—%s", ErrUnknownNode, from, to)
	}
	if l.a == from {
		l.ab.setCut(cut)
	} else {
		l.ba.setCut(cut)
	}
	return nil
}

// Partition cuts every link crossing between the given sides, both
// directions. Nodes not named in any side keep all their links.
func (f *Fabric) Partition(sides ...[]string) {
	side := make(map[string]int)
	for i, s := range sides {
		for _, name := range s {
			side[name] = i + 1
		}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, l := range f.links {
		sa, sb := side[l.a], side[l.b]
		if sa != 0 && sb != 0 && sa != sb {
			l.ab.setCut(true)
			l.ba.setCut(true)
		}
	}
}

// Heal restores every partitioned link direction.
func (f *Fabric) Heal() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, l := range f.links {
		l.ab.setCut(false)
		l.ba.setCut(false)
	}
}

// Crash kills a node mid-stream: its links are severed abruptly (the
// remote side observes EOF, exactly as a dead TCP peer) and the peer
// is shut down. In-flight requests on the crashed peer fail fast with
// ErrPeerClosed; its caches die with it.
func (f *Fabric) Crash(name string) error {
	f.mu.Lock()
	n := f.nodes[name]
	if n == nil {
		f.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownNode, name)
	}
	if n.crashed {
		f.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNodeCrashed, name)
	}
	n.crashed = true
	peer := n.peer
	n.peer = nil
	// Sweep by link, not by conn table: a managed pair's link exists
	// without an entry in the manager's conn map (its conn lives on the
	// Remote), and must be severed all the same so the surviving side's
	// failure detector fires.
	for key, l := range f.links {
		if l.a != name && l.b != name {
			continue
		}
		other := l.a
		if other == name {
			other = l.b
		}
		l.closeAll()
		f.retireLinkLocked(l)
		delete(f.links, key)
		if rn := f.nodes[other]; rn != nil {
			delete(rn.conns, name)
		}
	}
	n.conns = make(map[string]*Conn)
	// The node's managed remotes die with its peer (Close shuts them
	// down); a restarted node re-manages its links like a real process.
	n.remotes = make(map[string]*Remote)
	f.mu.Unlock()
	// Close outside the fabric lock: Close waits for handler
	// goroutines, which may be calling back into the fabric's conns.
	return peer.Close()
}

// Restart revives a crashed node: a fresh peer over the same registry
// and options (registry re-registration — the types come back, the
// learned descriptions and conformance cache do not) and fresh links,
// with the last known profiles, to every former neighbour still
// alive. Interests are per-peer state: the caller re-registers them,
// as a real restarted process would.
func (f *Fabric) Restart(name string) (*Node, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, ErrFabricClosed
	}
	n := f.nodes[name]
	if n == nil {
		return nil, fmt.Errorf("%w: %s", ErrUnknownNode, name)
	}
	if !n.crashed {
		return nil, fmt.Errorf("%w: %s", ErrNodeAlive, name)
	}
	n.crashed = false
	n.gen++
	n.peer = NewPeer(n.reg, n.opts...)
	for remote, prof := range n.profiles {
		rn := f.nodes[remote]
		if rn == nil || rn.crashed {
			continue
		}
		// prof is this node's outbound direction; the neighbour's map
		// holds the return direction, so asymmetric links restart
		// with the same shape they had.
		if _, _, err := f.connectLocked(name, remote, prof, rn.profiles[name]); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// Close tears the whole fabric down: every link, every peer.
func (f *Fabric) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	var peers []*Peer
	for _, l := range f.links {
		l.closeAll()
	}
	for _, n := range f.nodes {
		if n.peer != nil {
			peers = append(peers, n.peer)
		}
		n.peer = nil
		n.crashed = true
	}
	f.mu.Unlock()
	var firstErr error
	for _, p := range peers {
		if err := p.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	// Scheduler shards stop after the peers (their teardown may still
	// be draining frames) and before the clock (a shard parked on a
	// stopped clock's timer would never wake).
	f.fsched.stop()
	if f.vclock != nil {
		f.vclock.Stop()
	}
	return firstErr
}

// Schedule returns the recorded fault decisions in canonical order
// (by link direction, then frame number) — the order is independent
// of goroutine interleaving across links. Decisions live on their
// link direction until the link retires, so recording costs the send
// path no extra locking.
func (f *Fabric) Schedule() []FaultDecision {
	f.mu.Lock()
	out := append([]FaultDecision(nil), f.sched...)
	for _, l := range f.links {
		out = append(out, l.ab.copySchedule()...)
		out = append(out, l.ba.copySchedule()...)
	}
	f.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Link != out[j].Link {
			return out[i].Link < out[j].Link
		}
		return out[i].Frame < out[j].Frame
	})
	return out
}

// ScheduleDump renders the fault schedule as canonical text: two runs
// with the same seed and the same per-direction frame sequences
// produce byte-identical dumps, which is what makes a failing seed
// replayable.
func (f *Fabric) ScheduleDump() []byte {
	var b bytes.Buffer
	for _, d := range f.Schedule() {
		fmt.Fprintf(&b, "%s#%d size=%d cut=%t drop=%t dup=%t reorder=%t delay=%s\n",
			d.Link, d.Frame, d.Size, d.Cut, d.Drop, d.Dup, d.Reorder, d.Delay)
	}
	return b.Bytes()
}

// retireLinkLocked folds a torn-down link's counters and recorded
// decisions into the fabric's retired accumulators so crash/reconnect
// cycles never lose frame accounting or schedule history.
func (f *Fabric) retireLinkLocked(l *fabricLink) {
	for _, d := range [2]*linkDir{l.ab, l.ba} {
		f.retired.FramesSent += d.sent.Load()
		f.retired.FramesDelivered += d.delivered.Load()
		f.retired.FramesDropped += d.dropped.Load()
		f.retired.FramesDuplicated += d.duped.Load()
		f.retired.FramesReordered += d.reordered.Load()
		f.retired.PartitionDrops += d.cutDrops.Load()
		f.sched = append(f.sched, d.takeSchedule()...)
	}
}

// Stats aggregates the frame counters of every link direction, past
// and present: links retired by crash or reconnect keep counting.
func (f *Fabric) Stats() FabricStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.retired
	for _, l := range f.links {
		for _, d := range [2]*linkDir{l.ab, l.ba} {
			s.FramesSent += d.sent.Load()
			s.FramesDelivered += d.delivered.Load()
			s.FramesDropped += d.dropped.Load()
			s.FramesDuplicated += d.duped.Load()
			s.FramesReordered += d.reordered.Load()
			s.PartitionDrops += d.cutDrops.Load()
		}
	}
	return s
}

// --- virtual link machinery -------------------------------------------

// fabricLink is one node pair: two directions, two endpoints.
type fabricLink struct {
	a, b       string
	ab, ba     *linkDir
	aEnd, bEnd *fabricEnd
	closed     atomic.Bool
}

func (l *fabricLink) closeAll() {
	if l.closed.Swap(true) {
		return
	}
	l.ab.close()
	l.ba.close()
	l.aEnd.in.close()
	l.bEnd.in.close()
}

// linkDir carries frames one way across a link, applying the fault
// schedule. Each Write call on a fabric endpoint is exactly one
// protocol frame (WriteMessage emits a frame in a single Write), so
// faults operate on whole frames and never corrupt the framing.
// In-flight frames live in the fabric's sharded scheduler (see
// sched.go) rather than a per-direction queue, so a direction costs
// no goroutine of its own.
type linkDir struct {
	name  string // "a->b"
	dst   *frameBuffer
	clock Clock
	fs    *frameSched
	shard *schedShard // fixed stripe of fs, by name hash

	mu        sync.Mutex
	rng       *rand.Rand
	prof      FaultProfile
	cut       bool
	frames    uint64 // frames offered (decision counter)
	lastDue   time.Time
	busyUntil time.Time
	sched     []FaultDecision
	closed    bool

	sent, delivered, dropped, duped, reordered, cutDrops atomic.Uint64
}

func newLinkDir(name string, rng *rand.Rand, prof FaultProfile, clock Clock, fs *frameSched) *linkDir {
	return &linkDir{
		name:  name,
		rng:   rng,
		prof:  prof,
		clock: clock,
		fs:    fs,
		shard: fs.shardFor(name),
	}
}

func (d *linkDir) setProfile(p FaultProfile) {
	d.mu.Lock()
	d.prof = p
	d.mu.Unlock()
}

func (d *linkDir) setCut(cut bool) {
	d.mu.Lock()
	d.cut = cut
	d.mu.Unlock()
}

func (d *linkDir) close() {
	d.mu.Lock()
	d.closed = true
	d.mu.Unlock()
	// Frames still queued in the scheduler deliver into closed state
	// and are discarded by deliver()'s closed check — the counters are
	// exact the moment close returns, because deliver serializes on
	// d.mu.
}

// send schedules one frame. The four random draws happen
// unconditionally and in a fixed order, so the decision for frame i
// is a pure function of (seed, direction, i) — profile changes alter
// how draws are interpreted, never how many are made.
func (d *linkDir) send(b []byte) (int, error) {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return 0, io.ErrClosedPipe
	}
	dec := FaultDecision{Link: d.name, Frame: d.frames, Size: len(b)}
	d.frames++
	d.sent.Add(1)

	pDrop := d.rng.Float64()
	pDup := d.rng.Float64()
	pReorder := d.rng.Float64()
	jitterFrac := d.rng.Float64()

	p := d.prof
	dec.Cut = d.cut
	dec.Drop = pDrop < p.DropRate
	dec.Dup = pDup < p.DupRate
	dec.Reorder = pReorder < p.ReorderRate

	// The recorded Delay is the deterministic part of the schedule:
	// base latency plus jitter. Bandwidth queueing delay depends on
	// wall-clock arrival spacing, so it shapes delivery but is not
	// part of the replayable schedule.
	dec.Delay = p.Latency + time.Duration(jitterFrac*float64(p.Jitter))
	delay := dec.Delay
	now := d.clock.Now()
	if p.Bandwidth > 0 {
		tx := time.Duration(len(b)) * time.Second / time.Duration(p.Bandwidth)
		if d.busyUntil.Before(now) {
			d.busyUntil = now
		}
		d.busyUntil = d.busyUntil.Add(tx)
		delay += d.busyUntil.Sub(now)
	}

	switch {
	case dec.Cut:
		d.cutDrops.Add(1)
	case dec.Drop:
		d.dropped.Add(1)
	default:
		due := now.Add(delay)
		if dec.Reorder {
			// Hold the frame back far enough that frames sent after
			// it (at base latency) overtake it.
			hold := 2*(p.Latency+p.Jitter) + 2*time.Millisecond
			due = due.Add(hold)
			d.reordered.Add(1)
		} else if due.Before(d.lastDue) {
			// FIFO floor: without an explicit reorder decision,
			// delivery order is send order.
			due = d.lastDue
		}
		if !dec.Reorder {
			d.lastDue = due
		}
		data := append([]byte(nil), b...)
		// Enqueued under d.mu: the shard's arrival tiebreaker then
		// preserves this direction's send order across equal deadlines.
		d.fs.frames.Add(1)
		d.shard.enqueue(d, data, due)
		if dec.Dup {
			d.duped.Add(1)
			d.fs.frames.Add(1)
			d.shard.enqueue(d, data, due.Add(time.Millisecond))
		}
	}
	if len(d.sched) < maxScheduleLen {
		d.sched = append(d.sched, dec)
	}
	d.mu.Unlock()
	return len(b), nil
}

// copySchedule snapshots the direction's recorded decisions.
func (d *linkDir) copySchedule() []FaultDecision {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]FaultDecision(nil), d.sched...)
}

// takeSchedule drains the recorded decisions into the caller (used
// when the link retires).
func (d *linkDir) takeSchedule() []FaultDecision {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := d.sched
	d.sched = nil
	return out
}

// deliver hands one due frame to the destination buffer, called by
// the scheduler shard with no shard lock held. Delivery happens under
// d.mu: close() serializes on the same lock, so once closeAll returns
// no delivery is mid-flight and a retirement snapshot of the counters
// is exact. (push takes only the buffer's own lock; no cycle.)
func (d *linkDir) deliver(data []byte) {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	if d.dst.push(data) {
		d.delivered.Add(1)
	}
	d.mu.Unlock()
}

// --- endpoint: a net.Conn over the fabric -----------------------------

// fabricEnd is one endpoint of a fabric link, implementing net.Conn
// so the ordinary Conn framing machinery runs over it unmodified.
type fabricEnd struct {
	link          *fabricLink
	out           *linkDir
	in            *frameBuffer
	local, remote string
}

func (e *fabricEnd) Write(b []byte) (int, error) { return e.out.send(b) }
func (e *fabricEnd) Read(p []byte) (int, error)  { return e.in.Read(p) }

// Close severs the whole link, both directions — like a TCP close,
// the remote side observes EOF.
func (e *fabricEnd) Close() error { e.link.closeAll(); return nil }

func (e *fabricEnd) LocalAddr() net.Addr                { return fabricAddr(e.local) }
func (e *fabricEnd) RemoteAddr() net.Addr               { return fabricAddr(e.remote) }
func (e *fabricEnd) SetDeadline(t time.Time) error      { return nil }
func (e *fabricEnd) SetReadDeadline(t time.Time) error  { return nil }
func (e *fabricEnd) SetWriteDeadline(t time.Time) error { return nil }

type fabricAddr string

func (a fabricAddr) Network() string { return "fabric" }
func (a fabricAddr) String() string  { return string(a) }

// frameBuffer is the receive side of a fabric endpoint: delivered
// frame bytes accumulate and Read drains them, blocking while empty.
// After close, buffered bytes still drain before EOF. The buffer
// maintains the fabric's pending-frames busy counter (the `counted`
// flag tracks its contribution), so the virtual clock's probe never
// scans buffers. The claim covers the bytes and what the reader does
// with them: it is taken when bytes arrive and dropped only when the
// reader comes back to an empty buffer, so a frame the connection's
// read loop is still sequencing or handing to a handler never reads as
// idle.
type frameBuffer struct {
	busy *fabricBusy

	mu      sync.Mutex
	cond    *sync.Cond
	data    []byte
	counted bool
	closed  bool
}

func newFrameBuffer(busy *fabricBusy) *frameBuffer {
	b := &frameBuffer{busy: busy}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// claimLocked sets the buffer's busy-counter contribution. A closed
// buffer withdraws its claim — its remaining bytes drain on a dying
// conn's read loop and must not hold virtual time still if that
// reader never comes.
func (b *frameBuffer) claimLocked(want bool) {
	want = want && !b.closed
	if want == b.counted {
		return
	}
	b.counted = want
	if want {
		b.busy.frames.Add(1)
	} else {
		b.busy.frames.Add(-1)
	}
}

// push appends delivered frame bytes, reporting whether the buffer
// accepted them (a closed endpoint discards, and the frame must not
// count as delivered).
func (b *frameBuffer) push(p []byte) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return false
	}
	b.data = append(b.data, p...)
	b.claimLocked(true)
	b.cond.Broadcast()
	return true
}

func (b *frameBuffer) Read(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for len(b.data) == 0 && !b.closed {
		b.claimLocked(false) // the reader is done with what it took
		b.cond.Wait()
	}
	if len(b.data) == 0 {
		return 0, io.EOF
	}
	n := copy(p, b.data)
	b.data = b.data[n:]
	return n, nil
}

func (b *frameBuffer) close() {
	b.mu.Lock()
	b.closed = true
	b.claimLocked(false)
	b.cond.Broadcast()
	b.mu.Unlock()
}
