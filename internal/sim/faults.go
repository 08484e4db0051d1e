package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/graph"
	"repro/internal/tree"
)

// FaultKind discriminates fault-plan transitions.
type FaultKind uint8

const (
	// LinkDown takes the undirected link {U, V} out of service.
	LinkDown FaultKind = iota
	// LinkUp restores the undirected link {U, V}.
	LinkUp
	// NodeDown takes node U out of service: it receives no messages, and
	// its node timers are deferred until it returns.
	NodeDown
	// NodeUp restores node U.
	NodeUp
)

func (k FaultKind) String() string {
	switch k {
	case LinkDown:
		return "link-down"
	case LinkUp:
		return "link-up"
	case NodeDown:
		return "node-down"
	case NodeUp:
		return "node-up"
	default:
		return fmt.Sprintf("fault(%d)", int(k))
	}
}

// FaultEvent is one scheduled liveness transition. Link events name the
// undirected pair {U, V} (both directions fail together); node events
// name U and ignore V.
type FaultEvent struct {
	At   Time
	Kind FaultKind
	U, V graph.NodeID
}

// FaultPolicy selects what happens to a message whose source, destination
// or link is down.
type FaultPolicy uint8

const (
	// FaultDrop loses the message (the default): the sender gets no
	// signal in-protocol, but the registered BlockedHandler is told, so
	// drivers can model loss detection without hidden global knowledge.
	FaultDrop FaultPolicy = iota
	// FaultQueue stalls the message: it is delivered after the blocking
	// entity recovers (its normal latency is charged after the recovery
	// instant). Per-link FIFO order is preserved.
	FaultQueue
)

func (p FaultPolicy) String() string {
	if p == FaultQueue {
		return "queue"
	}
	return "drop"
}

// FaultNever is the recovery time reported for an entity whose plan never
// brings it back up. BlockedHandler receives it for drops caused by a
// permanent failure; closed-loop drivers treat it as "unserviceable".
const FaultNever Time = math.MaxInt64

// FaultPlan is a deterministic schedule of liveness transitions enforced
// by the simulator. The plan is immutable once handed to a simulator and
// may be shared read-only across concurrently swept experiment cells;
// each simulator compiles its own mutable liveness state from it. A nil
// plan (or one with no events) leaves every run bit-identical to a
// fault-free simulator.
type FaultPlan struct {
	// Policy selects drop vs queue semantics for blocked messages.
	Policy FaultPolicy
	// Events is the transition schedule; it need not be sorted.
	Events []FaultEvent
}

// Validate checks the plan against a topology: event bounds, link events
// naming connected pairs, and per-entity alternation (a Down may only be
// followed by a matching Up, and an Up requires a preceding Down). A
// trailing Down with no Up is legal — a permanent failure.
func (p *FaultPlan) Validate(topo Topology) error {
	if p == nil {
		return nil
	}
	n := topo.NumNodes()
	order := sortedEventIndex(p.Events)
	nodeDown := make(map[graph.NodeID]bool)
	linkDown := make(map[linkKey]bool)
	for _, i := range order {
		ev := p.Events[i]
		if ev.At < 0 {
			return fmt.Errorf("sim: fault event %d at negative time %d", i, ev.At)
		}
		switch ev.Kind {
		case LinkDown, LinkUp:
			if int(ev.U) < 0 || int(ev.U) >= n || int(ev.V) < 0 || int(ev.V) >= n {
				return fmt.Errorf("sim: fault event %d link {%d,%d} out of range", i, ev.U, ev.V)
			}
			if _, ok := topo.Latency(ev.U, ev.V); !ok {
				return fmt.Errorf("sim: fault event %d link {%d,%d} is not a topology link", i, ev.U, ev.V)
			}
			key := canonicalLink(ev.U, ev.V)
			if ev.Kind == LinkDown {
				if linkDown[key] {
					return fmt.Errorf("sim: link {%d,%d} taken down twice without an up", ev.U, ev.V)
				}
				linkDown[key] = true
			} else {
				if !linkDown[key] {
					return fmt.Errorf("sim: link {%d,%d} brought up while already up", ev.U, ev.V)
				}
				delete(linkDown, key)
			}
		case NodeDown, NodeUp:
			if int(ev.U) < 0 || int(ev.U) >= n {
				return fmt.Errorf("sim: fault event %d node %d out of range", i, ev.U)
			}
			if ev.Kind == NodeDown {
				if nodeDown[ev.U] {
					return fmt.Errorf("sim: node %d taken down twice without an up", ev.U)
				}
				nodeDown[ev.U] = true
			} else {
				if !nodeDown[ev.U] {
					return fmt.Errorf("sim: node %d brought up while already up", ev.U)
				}
				delete(nodeDown, ev.U)
			}
		default:
			return fmt.Errorf("sim: fault event %d has unknown kind %d", i, ev.Kind)
		}
	}
	return nil
}

// Healing reports whether every Down event has a matching Up — the
// precondition of closed-loop workloads, which cannot drain requests
// issued at (or routed through) a permanently dead entity.
func (p *FaultPlan) Healing() bool {
	if p == nil {
		return true
	}
	down := 0
	for _, ev := range p.Events {
		switch ev.Kind {
		case LinkDown, NodeDown:
			down++
		case LinkUp, NodeUp:
			down--
		}
	}
	return down == 0
}

// linkKey names an undirected link by its endpoints, smaller first.
type linkKey struct{ u, v graph.NodeID }

func canonicalLink(u, v graph.NodeID) linkKey {
	if u > v {
		u, v = v, u
	}
	return linkKey{u, v}
}

// sortedEventIndex returns event indices in (At, index) order — the order
// transitions apply in, stable so equal-time events keep slice order.
func sortedEventIndex(events []FaultEvent) []int {
	order := make([]int, len(events))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return events[order[a]].At < events[order[b]].At
	})
	return order
}

// compiledFault is one scheduled transition with its precomputed recovery
// time (the matching Up's time; FaultNever for a permanent Down).
type compiledFault struct {
	ev   FaultEvent
	upAt Time
}

// FaultObserver is told each fault transition as it applies. It runs
// inside event processing and may inspect liveness and schedule work via
// ctx, like any handler.
type FaultObserver func(ctx *Context, ev FaultEvent)

// BlockedHandler is told each message blocked by a fault: dropped
// (policy FaultDrop, or a permanent failure under FaultQueue) or stalled
// until upAt (policy FaultQueue). It fires at the enforcement point —
// send time, or delivery time when the destination died while the
// message was in flight.
type BlockedHandler func(ctx *Context, from, to graph.NodeID, msg Message, upAt Time, dropped bool)

// faultState is a simulator's compiled, mutable view of its FaultPlan.
type faultState struct {
	policy FaultPolicy
	// compiled transitions, in (At, plan index) order.
	events []compiledFault
	// nodeUpAt[v] != 0 means v is down until that time (FaultNever for a
	// permanent failure). Transition times are >= 0 and Ups strictly
	// follow Downs, so 0 is never a legal recovery time.
	nodeUpAt []Time
	// downLinks holds the recovery time of every link currently down: it
	// is sized by the outages in progress, not by the links that exist.
	downLinks map[linkKey]Time
	// active counts entities currently down.
	active int

	dropped       int64
	deferred      int64
	timerDeferred int64
	timerDropped  int64
}

// compileFaults validates and compiles a plan for one simulator. It never
// mutates the plan, so a plan can back many concurrent simulators.
func compileFaults(p *FaultPlan, topo Topology) *faultState {
	if p == nil || len(p.Events) == 0 {
		return nil
	}
	if err := p.Validate(topo); err != nil {
		panic(err)
	}
	order := sortedEventIndex(p.Events)
	f := &faultState{
		policy:    p.Policy,
		events:    make([]compiledFault, 0, len(order)),
		nodeUpAt:  make([]Time, topo.NumNodes()),
		downLinks: make(map[linkKey]Time),
	}
	// Match each Down with its Up to precompute recovery times.
	for pos, i := range order {
		ev := p.Events[i]
		cf := compiledFault{ev: ev, upAt: FaultNever}
		if ev.Kind == LinkDown || ev.Kind == NodeDown {
			for _, j := range order[pos+1:] {
				up := p.Events[j]
				if ev.Kind == LinkDown && up.Kind == LinkUp &&
					canonicalLink(up.U, up.V) == canonicalLink(ev.U, ev.V) {
					cf.upAt = up.At
					break
				}
				if ev.Kind == NodeDown && up.Kind == NodeUp && up.U == ev.U {
					cf.upAt = up.At
					break
				}
			}
		}
		f.events = append(f.events, cf)
	}
	return f
}

// scheduleFaults pushes every compiled transition into the event queue,
// in compile order so equal-time transitions keep plan order under FIFO
// arbitration. Fault transitions ride the same ladder queue as protocol
// events, preserving the scheduler's total order and zero-alloc path.
func (s *Simulator) scheduleFaults() {
	if s.f == nil {
		return
	}
	for i := range s.f.events {
		cf := &s.f.events[i]
		s.push(cf.ev.At, evFault, 0, 0, cf)
	}
}

// applyFault realizes one transition and tells the observer.
func (s *Simulator) applyFault(ctx *Context, cf *compiledFault) {
	f := s.f
	ev := cf.ev
	switch ev.Kind {
	case LinkDown:
		f.downLinks[canonicalLink(ev.U, ev.V)] = cf.upAt
		f.active++
	case LinkUp:
		delete(f.downLinks, canonicalLink(ev.U, ev.V))
		f.active--
	case NodeDown:
		f.nodeUpAt[ev.U] = cf.upAt
		f.active++
	case NodeUp:
		f.nodeUpAt[ev.U] = 0
		f.active--
	}
	if s.faultH != nil {
		s.faultH(ctx, ev)
	}
}

// blockedUntil returns the recovery time of whatever blocks a u -> v
// message, or 0 if nothing does. With several blockers it returns the
// latest recovery.
func (f *faultState) blockedUntil(u, v graph.NodeID) Time {
	up := f.nodeUpAt[u]
	if t := f.nodeUpAt[v]; t > up {
		up = t
	}
	if len(f.downLinks) != 0 {
		if t := f.downLinks[canonicalLink(u, v)]; t > up {
			up = t
		}
	}
	return up
}

// ActiveFaults returns the number of entities (links and nodes) currently
// down; 0 means the network is fully healed.
func (s *Simulator) ActiveFaults() int {
	if s.f == nil {
		return 0
	}
	return s.f.active
}

// MessagesDropped returns the number of messages lost to faults.
func (s *Simulator) MessagesDropped() int64 {
	if s.f == nil {
		return 0
	}
	return s.f.dropped
}

// MessagesDeferred returns the number of messages stalled by faults
// (policy FaultQueue).
func (s *Simulator) MessagesDeferred() int64 {
	if s.f == nil {
		return 0
	}
	return s.f.deferred
}

// ActiveFaults re-exposes Simulator.ActiveFaults to handlers.
func (c *Context) ActiveFaults() int { return c.s.ActiveFaults() }

// NodeDownUntil returns the time at which v recovers (FaultNever for a
// permanent failure), or 0 if v is up.
func (c *Context) NodeDownUntil(v graph.NodeID) Time {
	if c.s.f == nil {
		return 0
	}
	return c.s.f.nodeUpAt[v]
}

// TreeLinks enumerates a spanning tree's undirected edges as {child,
// parent} pairs — the candidate set for LinkChurn on a tree topology.
func TreeLinks(t *tree.Tree) [][2]graph.NodeID {
	links := make([][2]graph.NodeID, 0, t.NumNodes()-1)
	for v := 0; v < t.NumNodes(); v++ {
		node := graph.NodeID(v)
		if t.Parent(node) == node {
			continue
		}
		links = append(links, [2]graph.NodeID{node, t.Parent(node)})
	}
	return links
}

// LinkChurn deterministically generates matched down/up episodes for the
// given undirected links: each link independently suffers on average
// failuresPerLink outages, uniformly placed in [start, horizon), each
// lasting 1 + U[0, 2*meanDown) ticks (overlapping draws for one link are
// discarded). Every Down is matched by an Up, so the plan is Healing.
func LinkChurn(links [][2]graph.NodeID, failuresPerLink float64, meanDown, start, horizon Time, seed int64) []FaultEvent {
	var events []FaultEvent
	for i, l := range links {
		churnEpisodes(failuresPerLink, meanDown, start, horizon, DeriveSeed(seed, i),
			func(down, up Time) {
				events = append(events,
					FaultEvent{At: down, Kind: LinkDown, U: l[0], V: l[1]},
					FaultEvent{At: up, Kind: LinkUp, U: l[0], V: l[1]})
			})
	}
	return events
}

// NodeChurn deterministically generates matched down/up episodes for
// nodes [0, n), with the same placement law as LinkChurn. keep, when
// non-nil, excludes nodes it reports false for (e.g. a node that must
// stay up).
func NodeChurn(n int, keep func(graph.NodeID) bool, failuresPerNode float64, meanDown, start, horizon Time, seed int64) []FaultEvent {
	var events []FaultEvent
	for v := 0; v < n; v++ {
		node := graph.NodeID(v)
		if keep != nil && !keep(node) {
			continue
		}
		churnEpisodes(failuresPerNode, meanDown, start, horizon, DeriveSeed(seed, v),
			func(down, up Time) {
				events = append(events,
					FaultEvent{At: down, Kind: NodeDown, U: node},
					FaultEvent{At: up, Kind: NodeUp, U: node})
			})
	}
	return events
}

// churnEpisodes draws one entity's outage episodes. The count is the
// integer part of rate plus a Bernoulli draw on the fraction; placements
// are sorted and overlapping episodes discarded, so emissions alternate
// down/up per entity.
func churnEpisodes(rate float64, meanDown, start, horizon Time, seed int64, emit func(down, up Time)) {
	if rate <= 0 || horizon <= start {
		return
	}
	rng := rand.New(rand.NewSource(seed))
	count := int(rate)
	if rng.Float64() < rate-float64(count) {
		count++
	}
	if count == 0 {
		return
	}
	span := int64(horizon - start)
	downs := make([]Time, count)
	for i := range downs {
		downs[i] = start + Time(rng.Int63n(span))
	}
	durs := make([]Time, count)
	for i := range durs {
		d := Time(1)
		if meanDown > 0 {
			d = 1 + Time(rng.Int63n(int64(2*meanDown)))
		}
		durs[i] = d
	}
	sort.Slice(downs, func(i, j int) bool { return downs[i] < downs[j] })
	var lastUp Time = -1
	for i, d := range downs {
		if d <= lastUp {
			continue
		}
		up := d + durs[i]
		emit(d, up)
		lastUp = up
	}
}
