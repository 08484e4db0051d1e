// Package sim is a deterministic discrete-event simulator for asynchronous
// message-passing networks with FIFO links — the communication model of
// the paper (Section 3.1). It supports:
//
//   - synchronous execution, where every message on an edge of weight w is
//     delivered exactly w time units after it is sent (the paper's unit
//     latency model when w = 1);
//   - asynchronous execution, where each message's delay hashes (seed,
//     message sequence number), normalized so the slowest message over an
//     edge of weight w takes w·scale units (Section 3.8's "slowest message
//     is 1" scaling), while link FIFO order is preserved;
//   - configurable arbitration of simultaneously arriving messages (FIFO /
//     LIFO / seeded random), matching the paper's claim that the analysis
//     holds for any local processing order.
//
// The simulator is single-threaded and fully deterministic for a fixed
// seed, which makes protocol costs exactly reproducible. Every random
// draw — a latency or a random-arbitration priority — is a pure function
// of the seed and the event's sequence number; no RNG stream is kept.
package sim

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
)

// Time is a simulated timestamp. The synchronous model of the paper uses
// integral times; asynchronous runs use scaled integral times.
type Time = int64

// Message is an opaque protocol payload.
type Message any

// Handler processes a message arriving at node `at` from node `from` at
// the simulator's current time. Handlers run atomically (the simulator is
// single-threaded), matching the paper's atomic path-reversal step.
type Handler func(ctx *Context, at, from graph.NodeID, msg Message)

// TimerFunc is a scheduled local action at a node.
type TimerFunc func(ctx *Context)

// TimerHandler processes per-node timers scheduled with Context.AfterNode
// or Simulator.ScheduleNodeAt. One handler serves the whole simulator
// (like SetAllHandlers for messages): protocols that key state by node —
// every closed-loop driver — dispatch on v instead of capturing it, so a
// timer costs zero allocations where a TimerFunc closure costs one.
type TimerHandler func(ctx *Context, v graph.NodeID)

// Arbitration selects the processing order of events that carry identical
// timestamps.
type Arbitration int

const (
	// ArbFIFO processes same-time events in the order they were scheduled.
	ArbFIFO Arbitration = iota
	// ArbLIFO processes same-time events in reverse scheduling order.
	ArbLIFO
	// ArbRandom processes same-time events in seeded random order.
	ArbRandom
)

func (a Arbitration) String() string {
	switch a {
	case ArbFIFO:
		return "fifo"
	case ArbLIFO:
		return "lifo"
	case ArbRandom:
		return "random"
	default:
		return fmt.Sprintf("arbitration(%d)", int(a))
	}
}

// Topology tells the simulator which point-to-point sends are legal and
// how expensive they are.
type Topology interface {
	// Latency returns the nominal latency of a message from u to v and
	// whether the pair may communicate directly.
	Latency(u, v graph.NodeID) (graph.Weight, bool)
	// Hops returns the number of physical link traversals a message from
	// u to v represents (1 for a direct link, path length for routed
	// metric topologies). Used for message-count accounting.
	Hops(u, v graph.NodeID) int
	// NumNodes returns the node count.
	NumNodes() int
}

// LinkIndexer is an optional Topology extension: a topology that can
// enumerate its directed links as a dense index range lets the simulator
// keep per-link state in a flat slice — when that range is linear in the
// node count or small (see linkClock) — on the hot path of every send.
type LinkIndexer interface {
	// NumLinks returns the number of directed-link slots; LinkIndex
	// results are in [0, NumLinks).
	NumLinks() int
	// LinkIndex returns the dense index of the directed link u -> v. It is
	// only called for pairs Latency reported as connected.
	LinkIndex(u, v graph.NodeID) int
}

// Config configures a Simulator.
type Config struct {
	Topology Topology
	// Latency is the delay model; defaults to Synchronous() when nil.
	Latency LatencyModel
	// Arbitration of simultaneous events; defaults to ArbFIFO.
	Arbitration Arbitration
	// Seed keys every random latency and arbitration draw, each hashed
	// with the event's sequence number; ignored otherwise.
	Seed int64
	// MaxEvents aborts the run (with a panic describing a likely protocol
	// bug) after this many events; 0 means no limit.
	MaxEvents int64
	// Faults is the deterministic liveness schedule; nil (or an empty
	// plan) leaves the run bit-identical to a fault-free simulator. The
	// plan is read-only and may be shared across simulators; it is
	// validated against the topology at New (panic on a malformed plan —
	// drivers that accept plans from callers run FaultPlan.Validate first
	// and return the error).
	Faults *FaultPlan
	// LinkTxTime, when positive, gives every directed link a finite
	// serialization capacity: consecutive messages on one link depart at
	// least LinkTxTime apart, so a burst of b messages sent into a link at
	// the same instant arrives spread over b·LinkTxTime — cross-traffic
	// queues instead of superposing for free. The arrival of a message is
	// its departure instant plus the usual latency-model delay. Zero (the
	// default) models infinite capacity and is bit-identical to the
	// simulator before the knob existed.
	LinkTxTime Time
}

// ConfigError reports a Config combination the simulator cannot run.
// Field names the offending knob; Reason explains the constraint.
type ConfigError struct {
	Field  string
	Reason string
}

func (e *ConfigError) Error() string {
	return "sim: invalid config: " + e.Field + ": " + e.Reason
}

// Validate reports whether the configuration is runnable, returning a
// *ConfigError describing the first violated constraint. It is the
// typed front door for the checks New enforces: drivers and the engine
// run-spec layer call Validate and surface the error to their callers,
// leaving the panic in New as a last-resort guard against configs that
// bypassed validation.
func (c Config) Validate() error {
	if c.Topology == nil {
		return &ConfigError{Field: "Topology", Reason: "must be non-nil"}
	}
	if c.LinkTxTime < 0 {
		return &ConfigError{Field: "LinkTxTime", Reason: fmt.Sprintf("must be >= 0, got %d", c.LinkTxTime)}
	}
	return nil
}

// Simulator is a deterministic discrete-event engine.
type Simulator struct {
	cfg    Config
	now    Time
	seq    uint64
	allH   Handler // the one message handler, shared by every node
	timerH TimerHandler

	// f is the compiled fault state (nil without a plan — the hot paths
	// gate every fault check on that nil). ctx is the one Context handed
	// to every handler; faultH and blockedH are the observer hooks.
	f        *faultState
	ctx      *Context
	faultH   FaultObserver
	blockedH BlockedHandler

	// lq is the pending-event queue (see ladderQueue).
	lq ladderQueue

	// Per-directed-link timestamp state (see linkClock). fifo holds each
	// link's last arrival for the FIFO no-overtake clamp; it is nil when
	// fifoFree proves the clamp can never bind (synchronous latency, no
	// faults — per-link arrivals are then monotone by construction). busy
	// holds each link's earliest next departure under the LinkTxTime
	// capacity model; nil when capacity is infinite.
	//
	// send resolves a message's link once. On a TreeTopology the slot, the
	// weight and the legality check all come from the flat
	// treeParent/treeWeight arrays resolved at New (treeWeight nil = unit
	// weights) — two array reads instead of five interface calls per
	// message; other topologies answer through Latency/Hops, and through
	// LinkIndex only when perLink says a dense clock wants the slot (the
	// expiring representation and the fault state key by the endpoints).
	linkIdx    LinkIndexer
	perLink    bool
	treeParent []graph.NodeID
	treeWeight []graph.Weight
	fifoFree   bool
	txTime     Time
	fifo       *linkClock
	busy       *linkClock

	// syncScale caches the synchronous latency model's scale, letting
	// send compute the (deterministic) delay without an interface call;
	// 0 means the model is not synchronous.
	syncScale int64

	processed int64 // number of events processed
	messages  int64
	hops      int64
}

// DrainStats is the telemetry out-value of a closed-loop run. Only Sched
// is live. WindowWidth, Windows, BatchEvents and MeanBatch described the
// lookahead-windowed parallel drain, which was deleted (DESIGN.md,
// "Scale tier (million nodes)"; ROADMAP, "Settled"); every run is the
// serial loop, so they are always zero. They stay because bench/ —
// frozen between benchmark PRs — reads them for its sim.drain.* rows,
// and leave with the benchmark PR of ROADMAP item 1 that retires the
// drain-parallel workload.
type DrainStats struct {
	WindowWidth Time
	Windows     int64
	BatchEvents int64
	// Sched is the scheduler's far-tier work (see SchedStats), carried
	// here so the one telemetry out-pointer the closed-loop drivers
	// already fill delivers it too.
	Sched SchedStats
}

// MeanBatch returns BatchEvents / Windows: always 0 (see DrainStats).
func (d DrainStats) MeanBatch() float64 {
	if d.Windows == 0 {
		return 0
	}
	return float64(d.BatchEvents) / float64(d.Windows)
}

// DrainStats returns the run's telemetry (see DrainStats).
func (s *Simulator) DrainStats() DrainStats {
	return DrainStats{Sched: s.SchedStats()}
}

// SchedStats returns the ladder queue's counters so far (see
// SchedStats). The ring push count is every push not counted on a far
// branch: each event is stamped with the next seq, so seq is the
// number of pushes.
func (s *Simulator) SchedStats() SchedStats {
	st := s.lq.stats
	st.RingPushes = int64(s.seq) - st.Far() - st.HeapPushes
	return st
}

// linkEntry is one directed link's clock in the table representation:
// the endpoints packed as u<<32|v, and the time.
type linkEntry struct {
	key uint64
	val Time
}

const (
	// linkLine is the number of 16-byte entries in a 64-byte cache line.
	// A key's probe window is its home line plus that line's buddy (the
	// other half of the 128-byte-aligned pair) and never extends further.
	linkLine = 4
	// linkTableBits sizes the initial table: 2^4 lines, 1 KB.
	linkTableBits = 4
	// linkWays is the number of links a sending node's outbox holds.
	linkWays = 4
)

// outbox is one sending node's record in front of the table: four ways,
// each a destination and its link's time, and spill, the latest time any
// of the node's links was given in the table. 56 bytes.
type outbox struct {
	to    [linkWays]graph.NodeID
	at    [linkWays]Time
	spill Time
}

// linkClock keeps one monotone Time per directed link. The simulator
// instantiates it twice: once for the FIFO no-overtake clamp (last
// arrival per link) and once for the LinkTxTime capacity model (earliest
// next departure per link). It has two representations, chosen once in
// newLinkClock from the shape of the topology:
//
//   - dense, a flat slice indexed by the slot send resolved, when the
//     link space is linear in the node count — at most 4n slots and not
//     every ordered pair: every TreeTopology (2n slots) from n = 3 on;
//   - expiring, for an n² link space at any n or a topology that is no
//     LinkIndexer: one outbox per sending node in front of an
//     open-addressed table keyed by the endpoints. It is sized by the
//     messages in flight, not by the links that exist, because an entry
//     expires: a value <= now is indistinguishable from an absent one.
//     advance is asked with t = depart + delay >= now + 1 > val by the
//     clamp and t = depart >= now >= val by the reservation (depart is
//     now, or a later healAt under FaultQueue), so max(t, val) = t
//     either way.
//
// A lookup of u -> v in the expiring representation takes a live way of
// out[u] whose destination is v; failing that, the table when u may have
// a live link there (spill > now) or every way is live; failing that,
// the first expired way. A way is only claimed while u holds no live
// table entry and a table entry only while no live way matches, so a
// link has at most one live entry. A table lookup that misses claims any
// expired entry of its window; a window of live entries doubles the
// table, which re-inserts the live entries only. Nothing is deleted or
// shrunk.
//
// Both uses store values >= 1 and the clock starts at 0, so a zeroed
// entry is free (and a zero dense slot means "never touched").
type linkClock struct {
	dense []Time
	out   []outbox    // one per sending node
	tab   []linkEntry // power-of-two length
	shift uint        // 64 - log2(lines in tab)

	// binds counts the times advance raised t; spills the lookups sent
	// to the table; grows the table's doublings (see LinkStats).
	binds, spills, grows int64
}

// newLinkClock picks the representation for the given topology. A dense
// clock of n² slots pays for every ordered pair up front — 46 KB at the
// paper's n = 76 — while the expiring clock is sized by the messages in
// flight. An n² space with n <= 4 also fits in 4n slots, hence the
// second test.
func newLinkClock(topo Topology) *linkClock {
	if li, ok := topo.(LinkIndexer); ok {
		n := topo.NumNodes()
		if nl := li.NumLinks(); nl <= 4*n && nl < n*n {
			return &linkClock{dense: make([]Time, nl)}
		}
	}
	return &linkClock{
		out: make([]outbox, topo.NumNodes()),
		tab: make([]linkEntry, linkLine<<linkTableBits), shift: 64 - linkTableBits,
	}
}

// advance moves the clock of the link u -> v past t and returns t raised
// to the link's time; the link's time becomes that result plus hold. The
// FIFO clamp passes the arrival and hold 0 (the link's last arrival); the
// capacity reservation passes the departure and hold LinkTxTime (the
// link's earliest next departure). link is the slot send resolved for a
// dense clock.
//
//arrow:hotpath one call per send on runs with a FIFO clamp or finite link capacity
func (c *linkClock) advance(link int, u, v graph.NodeID, now, t, hold Time) Time {
	if c.dense != nil {
		return c.bump(&c.dense[link], t, hold)
	}
	o := &c.out[u]
	free := -1
	for i := range o.to {
		if o.at[i] > now {
			if o.to[i] == v {
				return c.bump(&o.at[i], t, hold)
			}
		} else if free < 0 {
			free = i
		}
	}
	if free >= 0 && o.spill <= now {
		// An expired way's value is <= now <= t: nothing to raise.
		o.to[free], o.at[free] = v, t+hold
		return t
	}
	c.spills++
	t = c.bump(c.slot(u, v, now), t, hold)
	o.spill = max(o.spill, t+hold)
	return t
}

// bump raises t to the cell's value, stores t+hold and returns t.
func (c *linkClock) bump(s *Time, t, hold Time) Time {
	if t < *s {
		t = *s
		c.binds++
	}
	*s = t + hold
	return t
}

// slot returns the table entry holding the link u -> v, claimed from an
// expired one — and the table grown when the whole window is live — if
// the table holds none.
//
//arrow:hotpath the lookups advance spills past the outbox resolve their entry here
func (c *linkClock) slot(u, v graph.NodeID, now Time) *Time {
	key := uint64(uint32(u))<<32 | uint64(uint32(v))
	for {
		line := c.home(key) // line^1 is its buddy
		w := (*[2 * linkLine]linkEntry)(c.tab[line&^1*linkLine:])
		var free *linkEntry
		for i := range w {
			e := &w[line&1*linkLine^i]
			if e.key == key {
				return &e.val
			}
			if free == nil && e.val <= now {
				free = e
			}
		}
		if free != nil {
			free.key = key
			return &free.val
		}
		c.grow(now)
	}
}

// home is key's home line in the table: a Fibonacci hash of the endpoints
// folded together.
func (c *linkClock) home(key uint64) int {
	return int((key ^ key>>32) * 0x9E3779B97F4A7C15 >> c.shift)
}

// grow doubles the table and re-inserts the live entries. An insertion
// that finds its new window full grows again, carrying the entries moved
// so far with it.
func (c *linkClock) grow(now Time) {
	c.grows++
	old := c.tab
	c.tab, c.shift = make([]linkEntry, 2*len(old)), c.shift-1
	for _, e := range old {
		if e.val > now {
			*c.slot(graph.NodeID(e.key>>32), graph.NodeID(e.key), now) = e.val
		}
	}
}

// LinkStats counts what the per-link clocks did in one run. Every count
// is a pure function of the run's configuration.
type LinkStats struct {
	// FIFOBinds is the number of arrivals the FIFO clamp raised to an
	// earlier message's arrival on the same link.
	FIFOBinds int64
	// CapacityBinds is the number of departures a LinkTxTime reservation
	// delayed behind an earlier transmission on the same link.
	CapacityBinds int64
	// Spills is the number of lookups the expiring clocks sent past the
	// sender's outbox to the table.
	Spills int64
	// Grows is the number of times an expiring clock's table doubled.
	Grows int64
}

// LinkStats returns the link clocks' counters so far (see LinkStats).
func (s *Simulator) LinkStats() LinkStats {
	var st LinkStats
	if c := s.fifo; c != nil {
		st.FIFOBinds, st.Spills, st.Grows = c.binds, c.spills, c.grows
	}
	if c := s.busy; c != nil {
		st.CapacityBinds, st.Spills, st.Grows = c.binds, st.Spills+c.spills, st.Grows+c.grows
	}
	return st
}

// DeriveSeed derives an independent stream seed from a base seed via a
// splitmix64 step, so streams are decorrelated even for adjacent base
// seeds or stream indices. The simulator hashes every latency and
// arbitration draw with it, the event's sequence number as the stream;
// the engine layer reuses it for per-cell experiment seeds.
func DeriveSeed(seed int64, stream int) int64 {
	z := uint64(seed) + (uint64(stream)+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// New creates a simulator from cfg. The message handler is installed
// with SetAllHandlers (delivering a message without one panics).
// Malformed configs panic with the Validate error — callers that want a
// recoverable failure run cfg.Validate() first (the drivers and the
// engine do).
func New(cfg Config) *Simulator {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	if cfg.Latency == nil {
		cfg.Latency = Synchronous()
	}
	s := &Simulator{cfg: cfg}
	s.txTime = cfg.LinkTxTime
	if m, ok := cfg.Latency.(syncModel); ok {
		s.syncScale = m.scale
	}
	// Random arbitration hashes seq under its own stream of the config
	// seed. Handlers get no draws: a protocol that needs randomness keys
	// its own (workload.Zipf does).
	s.lq.init(cfg.Arbitration, DeriveSeed(cfg.Seed, 2))
	if li, ok := cfg.Topology.(LinkIndexer); ok {
		s.linkIdx = li
	}
	if tt, ok := cfg.Topology.(TreeTopology); ok {
		s.treeParent, s.treeWeight = tt.linkTable()
	}
	// Synchronous latency without faults makes per-link arrivals monotone
	// by construction (send times never decrease and the per-link delay
	// is a constant; a capacity reservation only ever pushes departures
	// forward), so the FIFO clamp can never bind and no clamp state is
	// kept at all.
	s.fifoFree = s.syncScale != 0 && cfg.Faults == nil
	if !s.fifoFree {
		s.fifo = newLinkClock(cfg.Topology)
	}
	if s.txTime > 0 {
		s.busy = newLinkClock(cfg.Topology)
	}
	s.ctx = &Context{s: s}
	s.f = compileFaults(cfg.Faults, cfg.Topology)
	s.perLink = s.fifo != nil && s.fifo.dense != nil || s.busy != nil && s.busy.dense != nil
	s.scheduleFaults()
	return s
}

// SetAllHandlers installs the message handler, one for every node:
// protocols keep their state in arrays indexed by node and dispatch on
// the destination, so the simulator stores one Handler, not n.
func (s *Simulator) SetAllHandlers(h Handler) { s.allH = h }

// SetTimerHandler installs the handler for per-node timers (AfterNode /
// ScheduleNodeAt). Scheduling a node timer without a handler installed
// panics at dispatch.
func (s *Simulator) SetTimerHandler(h TimerHandler) { s.timerH = h }

// SetFaultObserver installs the hook told each fault transition as it
// applies (after the liveness state changed).
func (s *Simulator) SetFaultObserver(h FaultObserver) { s.faultH = h }

// SetBlockedHandler installs the hook told each message a fault dropped
// or stalled.
func (s *Simulator) SetBlockedHandler(h BlockedHandler) { s.blockedH = h }

// Now returns the current simulated time.
func (s *Simulator) Now() Time { return s.now }

// Messages returns the number of logical sends performed so far.
func (s *Simulator) Messages() int64 { return s.messages }

// Hops returns the number of physical link traversals so far (equals
// Messages on direct topologies).
func (s *Simulator) Hops() int64 { return s.hops }

// EventsProcessed returns the number of events the run has consumed.
func (s *Simulator) EventsProcessed() int64 { return s.processed }

// Context is handed to handlers and timers; it exposes the simulator
// operations that are legal during event processing. A simulator has
// exactly one, and it carries no state of its own.
type Context struct {
	s *Simulator
}

// Now returns the current simulated time: the tick of the event being
// handled.
func (c *Context) Now() Time { return c.s.now }

// Send transmits msg from u to v. The pair must be connected in the
// topology. Delivery preserves per-link FIFO order.
//
//arrow:hotpath every protocol message crosses here (BenchmarkSimSendDispatch)
func (c *Context) Send(u, v graph.NodeID, msg Message) { c.s.send(u, v, msg) }

// After schedules fn to run at node-local time Now()+d.
func (c *Context) After(d Time, fn TimerFunc) { c.s.scheduleTimer(c.s.now+d, fn) }

// AfterNode schedules a timer for node v at time Now()+d, dispatched to
// the simulator's registered TimerHandler. Unlike After it captures no
// closure: the hot-path timer of a closed-loop run costs zero
// allocations.
//
//arrow:hotpath the closed loop's per-completion timer
func (c *Context) AfterNode(d Time, v graph.NodeID) {
	c.s.push(c.s.now+d, evNodeTimer, v, 0, nil)
}

// send delivers one message: link resolution, fault gating, the latency
// draw, and the event push.
//
//arrow:hotpath one call per message
func (s *Simulator) send(u, v graph.NodeID, msg Message) {
	// Resolve the link once: legality, nominal weight, hop count and the
	// slot a dense link clock below is indexed by (-1: unused).
	var (
		w    graph.Weight
		hops = 1
		link = -1
	)
	if p := s.treeParent; p != nil {
		// A legal tree link joins a child with its parent; the child owns
		// slots 2·child (up) and 2·child+1 (down), as TreeTopology.LinkIndex
		// lays them out. The root is its own parent, so u == v must fail
		// before the parent test.
		child := u
		switch {
		case u == v:
			s.illegalSend(u, v)
		case p[u] == v:
			link = 2 * int(u)
		case p[v] == u:
			child, link = v, 2*int(v)+1
		default:
			s.illegalSend(u, v)
		}
		w = 1
		if s.treeWeight != nil {
			w = s.treeWeight[child]
		}
	} else {
		var ok bool
		if w, ok = s.cfg.Topology.Latency(u, v); !ok {
			s.illegalSend(u, v)
		}
		hops = s.cfg.Topology.Hops(u, v)
		if s.perLink {
			link = s.linkIdx.LinkIndex(u, v)
		}
	}
	// Faults are enforced at send time: a down endpoint or link drops or
	// stalls the message per the plan's policy. healAt stays 0 on the
	// fault-free fast path (and whenever nothing blocks the send).
	var healAt Time
	if s.f != nil {
		if healAt = s.f.blockedUntil(u, v); healAt != 0 {
			if s.f.policy == FaultDrop || healAt == FaultNever {
				s.f.dropped++
				if s.blockedH != nil {
					s.blockedH(s.ctx, u, v, msg, healAt, true)
				}
				return
			}
			s.f.deferred++
			if s.blockedH != nil {
				s.blockedH(s.ctx, u, v, msg, healAt, false)
			}
		}
	}
	delay := w * s.syncScale
	if s.syncScale == 0 {
		// Seq-keyed delay: the event pushed below will be stamped s.seq+1.
		delay = s.cfg.Latency.Delay(w, s.cfg.Seed, s.seq+1)
	}
	if delay < 1 {
		delay = 1
	}
	// The earliest the message can enter the link: now, or — under
	// FaultQueue — the blocking entity's recovery instant, from which its
	// normal latency is charged.
	depart := s.now
	if healAt != 0 {
		depart = healAt
	}
	// Finite link capacity: the departure waits for the link's pending
	// transmissions and reserves LinkTxTime of the link for itself, so
	// same-instant senders into one link serialize.
	if s.busy != nil {
		depart = s.busy.advance(link, u, v, s.now, depart, s.txTime)
	}
	arrive := depart + delay
	// FIFO: never overtake an earlier message on this link. Arrivals are
	// always >= 1, so a zero slot means "no prior message". fifoFree runs
	// (synchronous latency, no faults) skip the bookkeeping outright —
	// arrivals are monotone per link by construction, so the clamp is
	// provably a no-op there.
	if !s.fifoFree {
		arrive = s.fifo.advance(link, u, v, s.now, arrive, 0)
	}
	s.messages++
	s.hops += int64(hops)
	s.push(arrive, evMessage, v, u, msg)
}

// illegalSend is send's failure for a pair the topology does not connect.
func (s *Simulator) illegalSend(u, v graph.NodeID) {
	panic(fmt.Sprintf("sim: illegal send %d -> %d (not connected in topology)", u, v))
}

// ScheduleAt schedules fn at absolute time t (>= current time). It is the
// entry point for injecting external queuing requests before Run.
func (s *Simulator) ScheduleAt(t Time, fn TimerFunc) {
	if t < s.now {
		panic(fmt.Sprintf("sim: schedule in the past (t=%d now=%d)", t, s.now))
	}
	s.scheduleTimer(t, fn)
}

// ScheduleNodeAt schedules a per-node timer at absolute time t (>=
// current time) for the registered TimerHandler — the closure-free
// counterpart of ScheduleAt, used to inject a closed loop's initial
// requests.
func (s *Simulator) ScheduleNodeAt(t Time, v graph.NodeID) {
	if t < s.now {
		panic(fmt.Sprintf("sim: schedule in the past (t=%d now=%d)", t, s.now))
	}
	s.push(t, evNodeTimer, v, 0, nil)
}

//arrow:hotpath timer scheduling rides the same event push as sends
func (s *Simulator) scheduleTimer(t Time, fn TimerFunc) {
	s.push(t, evTimer, 0, 0, fn)
}

// push stamps the next event's seq — which fixes its arbitration order
// (see ladderQueue.pri) — and has the queue store the event. Everything
// arrives in registers and is stored once, where the event will be
// dispatched from: no event value exists outside the queue.
//
//arrow:hotpath every event enqueue lands here
func (s *Simulator) push(at Time, kind evKind, to, from graph.NodeID, msg Message) {
	s.seq++
	s.lq.push(at, s.seq, kind, to, from, msg)
}

// Reserve sizes the event queue's storage for a pending set of the given
// size in one step — the arena of 32-byte cells, and under ArbRandom
// the 8-byte seq column beside it — so a driver that injects one
// initial event per node does not ramp the arena up through append's
// growth steps (which costs several times the final size in cumulative
// allocation). It changes nothing else: a run is bit-identical with or
// without it.
func (s *Simulator) Reserve(pending int) {
	s.lq.arena = slices.Grow(s.lq.arena, pending)
	if s.lq.arb == ArbRandom {
		s.lq.seqs = slices.Grow(s.lq.seqs, pending)
	}
}

// Run processes events until the queue is empty and returns the final
// simulated time (the makespan). An event is dispatched from its arena
// cell and the cell released once the handler returned; nothing reads
// through the cell pointer after a handler is entered (handlers may grow
// the arena). The clock is the queue's position, which popCell moves to
// the popped event's tick. Time never runs backwards: the queue pops in
// ascending time and refuses a push before its position.
func (s *Simulator) Run() Time {
	ctx := s.ctx
	for {
		c, slot := s.lq.popCell()
		if c == nil {
			return s.now
		}
		s.now = s.lq.base
		s.processed++
		if s.cfg.MaxEvents > 0 && s.processed > s.cfg.MaxEvents {
			panic(fmt.Sprintf("sim: exceeded MaxEvents=%d — protocol likely diverged", s.cfg.MaxEvents))
		}
		s.dispatch(ctx, c)
		s.lq.release(slot)
	}
}

// dispatch routes one already-clocked event to its handler, reading it
// where it lies: every field a branch needs is loaded before a handler
// or hook is entered and e is not touched afterwards.
//
//arrow:hotpath every event dequeue lands here
func (s *Simulator) dispatch(ctx *Context, e *cell) {
	to := e.to
	switch e.kind() {
	case evTimer:
		e.msg.(TimerFunc)(ctx)
	case evNodeTimer:
		// Per-node liveness gating: a down node does not process
		// local timers; they are deferred to its recovery instant
		// (and lost with the node on a permanent failure).
		if s.f != nil {
			if upAt := s.f.nodeUpAt[to]; upAt != 0 {
				if upAt == FaultNever {
					s.f.timerDropped++
					return
				}
				s.f.timerDeferred++
				s.push(upAt, evNodeTimer, to, 0, nil)
				return
			}
		}
		h := s.timerH
		if h == nil {
			panic(fmt.Sprintf("sim: node timer for node %d with no TimerHandler", to))
		}
		h(ctx, to)
	case evMessage:
		from, msg := e.from, e.msg
		// A destination that died while the message was in flight
		// blocks delivery: dropped, or redelivered at recovery under
		// FaultQueue (send-time checks cover everything else).
		if s.f != nil {
			if upAt := s.f.nodeUpAt[to]; upAt != 0 {
				if s.f.policy == FaultDrop || upAt == FaultNever {
					s.f.dropped++
					if s.blockedH != nil {
						s.blockedH(ctx, from, to, msg, upAt, true)
					}
					return
				}
				s.f.deferred++
				if s.blockedH != nil {
					s.blockedH(ctx, from, to, msg, upAt, false)
				}
				s.push(upAt, evMessage, to, from, msg)
				return
			}
		}
		h := s.allH
		if h == nil {
			panic(fmt.Sprintf("sim: message for node %d with no handler", to))
		}
		h(ctx, to, from, msg)
	case evFault:
		s.applyFault(ctx, e.msg.(*compiledFault))
	}
}

// SatMul returns a*b for non-negative operands, saturating at
// math.MaxInt64 instead of wrapping. Divergence-guard event budgets are
// products of request counts and per-request bounds, which overflow
// int64 at large node × per-node scales; a saturated guard is simply "no
// effective limit", while a wrapped one either disables the guard
// (negative) or panics a healthy run (small positive).
func SatMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > math.MaxInt64/b {
		return math.MaxInt64
	}
	return a * b
}

// SatAdd returns a+b for non-negative operands, saturating at
// math.MaxInt64.
func SatAdd(a, b int64) int64 {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}
