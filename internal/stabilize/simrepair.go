package stabilize

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/tree"
)

// This file re-expresses Repair's synchronous-round algorithm as a
// message-passing protocol on the discrete-event simulator, so repair
// cost is measured in the same hops/latency currency as the queuing
// protocols. One episode exchanges real messages over the tree metric:
//
//  1. probe: every node tells each tree neighbour its link value. A node
//     that sees a facing arrow de-cycles (the higher ID becomes a sink);
//     receivers also learn which neighbours point at them (their wave
//     children).
//  2. wave: each sink floods its ID along reversed pointer chains; every
//     node that learns its region tells all neighbours, so boundary
//     nodes discover adjacent regions with smaller sink IDs.
//  3. merge: boundary candidates send claims along their pointer chain
//     to their sink, which elects the smallest-ID candidate and grants
//     it; the winner redirects across the boundary and launches a
//     path-reversal token toward its old sink — the arrow protocol's
//     queue-message mechanics — consuming exactly one sink per region.
//
// Episodes repeat until the configuration is legal. Phase transitions
// are driven by exact message counts (the "synchronous daemon" the
// round model abstracts), so the protocol is correct under any latency
// model; the pointer mutations themselves are all local to a message
// arrival. The round-based Repair remains the reference oracle:
// TestSimRepairMatchesOracle pins convergence, final sink, and a
// message-count bound against it.

// RepairEventKind discriminates observable repair-protocol steps.
type RepairEventKind uint8

const (
	// RepEpisode marks the start of a repair episode.
	RepEpisode RepairEventKind = iota
	// RepDecycle marks a facing-arrow correction (Node resets to self).
	RepDecycle
	// RepRegion marks a node adopting a region (Peer is the region sink).
	RepRegion
	// RepGrant marks a sink (Peer) granting the boundary merge to a
	// candidate (Node).
	RepGrant
	// RepToken marks one hop of a path-reversal merge token (Node -> Peer).
	RepToken
	// RepMerge marks a region merge completing (Node is the consumed sink).
	RepMerge
	// RepDone marks convergence (Node is the surviving sink).
	RepDone
)

func (k RepairEventKind) String() string {
	switch k {
	case RepEpisode:
		return "episode"
	case RepDecycle:
		return "decycle"
	case RepRegion:
		return "region"
	case RepGrant:
		return "grant"
	case RepToken:
		return "token"
	case RepMerge:
		return "merge"
	case RepDone:
		return "done"
	default:
		return fmt.Sprintf("repair(%d)", int(k))
	}
}

// RepairEvent is one observable repair-protocol step, for tracing.
type RepairEvent struct {
	At      sim.Time
	Kind    RepairEventKind
	Node    graph.NodeID
	Peer    graph.NodeID
	Episode int
}

// EngineConfig configures a message-driven repair engine.
type EngineConfig struct {
	// Observer, when non-nil, is told each observable protocol step.
	Observer func(RepairEvent)
	// OnDone, when non-nil, runs once when repair finishes (converged
	// reports whether the final state is legal; false only on an
	// episode-budget blowout).
	OnDone func(ctx *sim.Context, converged bool)
}

// Engine is the message-driven repair protocol, embeddable into a live
// simulation: the host installs it next to its own handlers, routes the
// messages Owns recognizes to Handle, and calls Begin when the network
// has healed and drained. Engine mutates the host's links slice in
// place — repair and the queuing protocol share the pointer state by
// design.
type Engine struct {
	t     *tree.Tree
	links []graph.NodeID
	cfg   EngineConfig
	n     int

	episode int
	running bool
	done    bool
	// runEpisodes counts episodes of the current run (a run is one
	// Begin..OnDone cycle; a long-lived host repairs repeatedly, each
	// run with a fresh episode budget).
	runEpisodes int

	totalDeg       int
	probesLeft     int
	regionMsgsLeft int
	children       [][]graph.NodeID
	region         []graph.NodeID
	minNbr         []graph.NodeID
	minNbrVia      []graph.NodeID
	pendingClaims  []int
	bestCand       []graph.NodeID
	bestPath       [][]graph.NodeID
	mergesLeft     int

	startAt   sim.Time
	started   bool
	messages  int64
	decycled  int
	merged    int
	converged bool
	doneAt    sim.Time
}

// Repair protocol messages. Every message carries its episode: an
// aborted episode's in-flight messages are recognized stale and dropped.
type (
	probeMsg struct {
		ep   int
		link graph.NodeID
	}
	waveMsg struct {
		ep   int
		sink graph.NodeID
	}
	regionMsg struct {
		ep   int
		sink graph.NodeID
	}
	claimMsg struct {
		ep        int
		candidate graph.NodeID
		path      []graph.NodeID
	}
	grantMsg struct {
		ep   int
		path []graph.NodeID
		idx  int
	}
	tokenMsg struct {
		ep int
	}
)

// repairMsg is the repair protocol's message family; the marker method
// lets arrowlint's msgswitch analyzer check switch exhaustiveness
// (Owns and Handle below must each list every member).
type repairMsg interface{ isRepairMsg() }

func (*probeMsg) isRepairMsg()  {}
func (*waveMsg) isRepairMsg()   {}
func (*regionMsg) isRepairMsg() {}
func (*claimMsg) isRepairMsg()  {}
func (*grantMsg) isRepairMsg()  {}
func (*tokenMsg) isRepairMsg()  {}

// NewEngine builds an engine repairing links (in place) over tree t.
func NewEngine(t *tree.Tree, links []graph.NodeID, cfg EngineConfig) *Engine {
	n := t.NumNodes()
	if len(links) != n {
		panic(fmt.Sprintf("stabilize: %d links for %d nodes", len(links), n))
	}
	e := &Engine{
		t:             t,
		links:         links,
		cfg:           cfg,
		n:             n,
		totalDeg:      2 * (n - 1),
		children:      make([][]graph.NodeID, n),
		region:        make([]graph.NodeID, n),
		minNbr:        make([]graph.NodeID, n),
		minNbrVia:     make([]graph.NodeID, n),
		pendingClaims: make([]int, n),
		bestCand:      make([]graph.NodeID, n),
		bestPath:      make([][]graph.NodeID, n),
	}
	return e
}

// Owns reports whether msg is a repair-protocol message.
func (e *Engine) Owns(msg sim.Message) bool {
	switch msg.(type) {
	case *probeMsg, *waveMsg, *regionMsg, *claimMsg, *grantMsg, *tokenMsg:
		return true
	}
	return false
}

// Running reports whether an episode is in flight.
func (e *Engine) Running() bool { return e.running }

// Done reports whether repair finished (see Converged for the verdict).
func (e *Engine) Done() bool { return e.done }

// Converged reports whether repair reached a legal configuration.
func (e *Engine) Converged() bool { return e.converged }

// Messages returns the cumulative repair messages sent. Every repair
// message crosses exactly one tree edge, so this is also the repair hop
// count.
func (e *Engine) Messages() int64 { return e.messages }

// Episodes returns the number of episodes begun.
func (e *Engine) Episodes() int { return e.episode }

// Decycled returns the cumulative facing-arrow corrections.
func (e *Engine) Decycled() int { return e.decycled }

// Merged returns the cumulative region merges granted.
func (e *Engine) Merged() int { return e.merged }

// Begin starts a repair run (or, after an Abort, restarts the current
// one). It is a no-op while an episode is running. A host that corrupts
// and heals repeatedly calls Begin once per outage: each completed run
// re-arms the engine with a fresh episode budget.
func (e *Engine) Begin(ctx *sim.Context) {
	if e.running {
		return
	}
	if e.done {
		// Previous run finished; start a new one.
		e.done = false
		e.converged = false
		e.runEpisodes = 0
	}
	if !e.started {
		e.started = true
		e.startAt = ctx.Now()
	}
	e.beginEpisode(ctx)
}

// Abort cancels the running episode: its in-flight messages become
// stale (their episode tag no longer matches) and a later Begin restarts
// from the current pointer state. The host calls it when a fault drops a
// repair message mid-episode.
func (e *Engine) Abort() { e.running = false }

// Handle processes one repair message. The host must only pass messages
// Owns recognizes.
func (e *Engine) Handle(ctx *sim.Context, at, from graph.NodeID, msg sim.Message) {
	switch m := msg.(type) {
	case *probeMsg:
		if e.stale(m.ep) {
			return
		}
		e.onProbe(ctx, at, from, m)
	case *waveMsg:
		if e.stale(m.ep) {
			return
		}
		e.onWave(ctx, at, from, m)
	case *regionMsg:
		if e.stale(m.ep) {
			return
		}
		e.onRegion(ctx, at, from, m)
	case *claimMsg:
		if e.stale(m.ep) {
			return
		}
		e.onClaim(ctx, at, m)
	case *grantMsg:
		if e.stale(m.ep) {
			return
		}
		e.onGrant(ctx, at, m)
	case *tokenMsg:
		if e.stale(m.ep) {
			return
		}
		e.onToken(ctx, at, from)
	default:
		panic(fmt.Sprintf("stabilize: engine handed foreign message %T", msg))
	}
}

func (e *Engine) stale(ep int) bool { return !e.running || ep != e.episode }

func (e *Engine) send(ctx *sim.Context, u, v graph.NodeID, msg sim.Message) {
	e.messages++
	ctx.Send(u, v, msg)
}

func (e *Engine) emit(ctx *sim.Context, kind RepairEventKind, node, peer graph.NodeID) {
	if e.cfg.Observer != nil {
		e.cfg.Observer(RepairEvent{At: ctx.Now(), Kind: kind, Node: node, Peer: peer, Episode: e.episode})
	}
}

func (e *Engine) finish(ctx *sim.Context, converged bool) {
	e.running = false
	e.done = true
	e.converged = converged
	e.doneAt = ctx.Now()
	if converged {
		sink, _ := IsLegal(e.t, e.links)
		e.emit(ctx, RepDone, sink, sink)
	}
	if e.cfg.OnDone != nil {
		e.cfg.OnDone(ctx, converged)
	}
}

func (e *Engine) beginEpisode(ctx *sim.Context) {
	// Purely local correction: a pointer to a non-neighbour is
	// detectable garbage; the node resets itself to a sink. Legal states
	// have only tree pointers, so this never modifies one.
	for v := 0; v < e.n; v++ {
		node := graph.NodeID(v)
		if e.links[node] == node {
			continue
		}
		if !e.isNeighbor(node, e.links[node]) {
			e.links[node] = node
		}
	}
	if _, ok := IsLegal(e.t, e.links); ok {
		e.finish(ctx, true)
		return
	}
	// Each episode strictly reduces the sink count, so n + 8 episodes
	// is a generous budget.
	if e.runEpisodes >= len(e.links)+8 {
		e.finish(ctx, false)
		return
	}
	e.episode++
	e.runEpisodes++
	e.running = true
	e.emit(ctx, RepEpisode, -1, -1)
	for v := range e.children {
		e.children[v] = e.children[v][:0]
		e.region[v] = -1
		e.minNbr[v] = -1
		e.minNbrVia[v] = -1
		e.pendingClaims[v] = 0
		e.bestCand[v] = -1
		e.bestPath[v] = nil
	}
	e.probesLeft = e.totalDeg
	e.regionMsgsLeft = e.totalDeg
	e.mergesLeft = 0
	// Probe phase: every node tells each neighbour its link value — a
	// consistent snapshot, since all probes are sent before any arrives.
	for v := 0; v < e.n; v++ {
		node := graph.NodeID(v)
		for _, nb := range e.t.Neighbors(node) {
			e.send(ctx, node, nb.To, &probeMsg{ep: e.episode, link: e.links[node]})
		}
	}
}

func (e *Engine) isNeighbor(u, v graph.NodeID) bool {
	return e.t.Parent(u) == v || e.t.Parent(v) == u
}

func (e *Engine) onProbe(ctx *sim.Context, at, from graph.NodeID, m *probeMsg) {
	e.probesLeft--
	if m.link == at {
		e.children[at] = append(e.children[at], from)
		// Facing arrow: both endpoints detect it; the higher ID breaks
		// it by becoming a sink (the oracle's de-cycling rule).
		if e.links[at] == from && at > from {
			e.links[at] = at
			e.decycled++
			e.emit(ctx, RepDecycle, at, from)
		}
	}
	if e.probesLeft == 0 {
		e.startWave(ctx)
	}
}

func (e *Engine) startWave(ctx *sim.Context) {
	// After de-cycling no facing arrows remain and every pointer names a
	// neighbour or self, so every chain terminates at a sink: the wave
	// reaches all nodes.
	for v := 0; v < e.n; v++ {
		node := graph.NodeID(v)
		if e.links[node] == node {
			e.assignRegion(ctx, node, node)
		}
	}
}

// assignRegion records node's region sink, pushes the wave to the nodes
// pointing at it, and announces the region to every neighbour (boundary
// discovery).
func (e *Engine) assignRegion(ctx *sim.Context, node, sink graph.NodeID) {
	e.region[node] = sink
	e.emit(ctx, RepRegion, node, sink)
	for _, c := range e.children[node] {
		e.send(ctx, node, c, &waveMsg{ep: e.episode, sink: sink})
	}
	for _, nb := range e.t.Neighbors(node) {
		e.send(ctx, node, nb.To, &regionMsg{ep: e.episode, sink: sink})
	}
}

func (e *Engine) onWave(ctx *sim.Context, at, from graph.NodeID, m *waveMsg) {
	// A node adopts only its own link target's region; a wave from a
	// stale child record (the sender de-cycled after probing) is ignored
	// because the receiver is itself a sink with its region set.
	if e.region[at] != -1 || e.links[at] != from {
		return
	}
	e.assignRegion(ctx, at, m.sink)
}

func (e *Engine) onRegion(ctx *sim.Context, at, from graph.NodeID, m *regionMsg) {
	e.regionMsgsLeft--
	// Track the smallest neighbouring region (ties broken by neighbour
	// ID) — arrival-order independent, so the run is deterministic under
	// any latency model.
	if e.minNbr[at] == -1 || m.sink < e.minNbr[at] ||
		(m.sink == e.minNbr[at] && from < e.minNbrVia[at]) {
		e.minNbr[at] = m.sink
		e.minNbrVia[at] = from
	}
	if e.regionMsgsLeft == 0 {
		// All regions assigned (the last region message's sender was
		// assigned when it sent) and all boundaries discovered.
		e.startMerge(ctx)
	}
}

func (e *Engine) startMerge(ctx *sim.Context) {
	// Every node seeing a smaller neighbouring region claims the merge
	// for its region; claims convergecast along the pointer chain to the
	// sink, which elects the smallest-ID candidate (the oracle's
	// boundary-issuer election, distributed). mergesLeft is fixed up
	// front — every non-locally-minimal region merges this episode — so
	// a fast region's finished merge cannot end the episode while a slow
	// region's claims are still in flight.
	for v := 0; v < e.n; v++ {
		node := graph.NodeID(v)
		if e.minNbr[node] == -1 || e.minNbr[node] >= e.region[node] {
			continue
		}
		r := e.region[node]
		if e.pendingClaims[r] == 0 && e.bestCand[r] == -1 {
			e.mergesLeft++
		}
		if node == r {
			// The sink is its own boundary candidate: a local claim.
			e.noteClaim(r, node, nil)
			continue
		}
		e.pendingClaims[r]++
		e.send(ctx, node, e.links[node], &claimMsg{
			ep: e.episode, candidate: node, path: []graph.NodeID{node},
		})
	}
	if e.mergesLeft == 0 {
		// Impossible on a connected tree with >1 region (some boundary
		// always has a higher side), but never spin: end the episode and
		// let the episode budget decide.
		e.endEpisode(ctx)
		return
	}
	// Regions whose only candidate was the sink itself grant at once.
	for v := 0; v < e.n; v++ {
		r := graph.NodeID(v)
		if e.bestCand[r] != -1 && e.pendingClaims[r] == 0 {
			e.grant(ctx, r)
		}
	}
}

func (e *Engine) noteClaim(sink, candidate graph.NodeID, path []graph.NodeID) {
	if e.bestCand[sink] == -1 || candidate < e.bestCand[sink] {
		e.bestCand[sink] = candidate
		e.bestPath[sink] = path
	}
}

func (e *Engine) onClaim(ctx *sim.Context, at graph.NodeID, m *claimMsg) {
	if e.links[at] == at {
		// The region's sink: collect, and grant once every claim of this
		// region arrived.
		e.pendingClaims[at]--
		e.noteClaim(at, m.candidate, m.path)
		if e.pendingClaims[at] == 0 {
			e.grant(ctx, at)
		}
		return
	}
	m.path = append(m.path, at)
	e.send(ctx, at, e.links[at], m)
}

// grant elects sink r's best candidate. Pointers in r change only after
// this point, so every claim routed correctly.
func (e *Engine) grant(ctx *sim.Context, r graph.NodeID) {
	e.merged++
	c := e.bestCand[r]
	e.emit(ctx, RepGrant, c, r)
	if c == r {
		// The sink redirects itself across the boundary: the whole
		// region is already oriented toward it, so the merge completes
		// with no token.
		e.links[r] = e.minNbrVia[r]
		e.emit(ctx, RepMerge, r, e.minNbrVia[r])
		e.mergeDone(ctx)
		return
	}
	path := e.bestPath[r]
	e.send(ctx, r, path[len(path)-1], &grantMsg{ep: e.episode, path: path, idx: len(path) - 1})
}

func (e *Engine) onGrant(ctx *sim.Context, at graph.NodeID, m *grantMsg) {
	if m.idx > 0 {
		m.idx--
		e.send(ctx, at, m.path[m.idx], m)
		return
	}
	// The winning candidate: redirect across the boundary and launch the
	// path-reversal token toward the old sink.
	old := e.links[at]
	e.links[at] = e.minNbrVia[at]
	e.emit(ctx, RepToken, at, old)
	e.send(ctx, at, old, &tokenMsg{ep: e.episode})
}

func (e *Engine) onToken(ctx *sim.Context, at, from graph.NodeID) {
	old := e.links[at]
	e.links[at] = from
	if old == at {
		// Consumed the region's sink: the merge is complete.
		e.emit(ctx, RepMerge, at, from)
		e.mergeDone(ctx)
		return
	}
	e.emit(ctx, RepToken, at, old)
	e.send(ctx, at, old, &tokenMsg{ep: e.episode})
}

func (e *Engine) mergeDone(ctx *sim.Context) {
	e.mergesLeft--
	if e.mergesLeft == 0 {
		e.endEpisode(ctx)
	}
}

func (e *Engine) endEpisode(ctx *sim.Context) {
	e.running = false
	e.beginEpisode(ctx)
}

// SimOptions configures a standalone message-driven repair run.
type SimOptions struct {
	// Latency is the delay model (nil = synchronous unit latency).
	Latency sim.LatencyModel
	// Arbitration orders simultaneous messages.
	Arbitration sim.Arbitration
	// Seed keys the random latency and arbitration draws: each hashes
	// (Seed, event seq).
	Seed int64
	// Observer, when non-nil, is told each observable protocol step.
	Observer func(RepairEvent)
}

// SimResult reports what a message-driven repair run did, in the same
// cost currency as the queuing protocols.
type SimResult struct {
	// Sink is the unique sink of the repaired state.
	Sink graph.NodeID
	// Episodes is the number of repair episodes run.
	Episodes int
	// Messages counts repair messages; every one crosses one tree edge,
	// so it is also the hop count.
	Messages int64
	// ConvergenceTime is the simulated time from start to a legal state.
	ConvergenceTime sim.Time
	// DecycledEdges counts facing-arrow corrections, MergedRegions the
	// region merges granted (both comparable to the oracle's Result).
	DecycledEdges int
	MergedRegions int
}

// RunSim restores links (in place) to a legal configuration by running
// the message-driven repair protocol on its own simulator over the tree
// metric. Like Repair it never modifies an already-legal configuration —
// a legal state converges instantly with zero messages.
func RunSim(t *tree.Tree, links []graph.NodeID, opts SimOptions) (SimResult, error) {
	var res SimResult
	if len(links) != t.NumNodes() {
		return res, fmt.Errorf("stabilize: %d links for %d nodes", len(links), t.NumNodes())
	}
	eng := NewEngine(t, links, EngineConfig{Observer: opts.Observer})
	s := sim.New(sim.Config{
		Topology:    sim.TreeTopology{T: t},
		Latency:     opts.Latency,
		Arbitration: opts.Arbitration,
		Seed:        opts.Seed,
		// Each episode is O(n) messages over O(diameter) time, and the
		// episode count is bounded by n + 8.
		MaxEvents: sim.SatAdd(sim.SatMul(int64(t.NumNodes()+8), int64(8*t.NumNodes()+64)), 4096),
	})
	s.SetAllHandlers(eng.Handle)
	s.ScheduleAt(0, eng.Begin)
	s.Run()
	if !eng.Done() || !eng.Converged() {
		return res, fmt.Errorf("stabilize: message-driven repair did not converge in %d episodes", eng.Episodes())
	}
	sink, ok := IsLegal(t, links)
	if !ok {
		return res, fmt.Errorf("stabilize: message-driven repair left an illegal state")
	}
	res = SimResult{
		Sink:            sink,
		Episodes:        eng.Episodes(),
		Messages:        eng.Messages(),
		ConvergenceTime: eng.doneAt - eng.startAt,
		DecycledEdges:   eng.Decycled(),
		MergedRegions:   eng.Merged(),
	}
	return res, nil
}
