package arrow

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/loop"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/stabilize"
	"repro/internal/tree"
)

// LoopConfig drives the closed-loop workload of the paper's experiments
// (Section 5): every processor issues PerNode queuing requests, each
// issued immediately (after ThinkTime units of local processing) once the
// previous one is known to be complete. Completion is signalled to the
// requester by a reply message routed over the tree, except when the
// request finds its predecessor locally.
//
// The shared run knobs (PerNode, ThinkTime, Latency, Arbitration, Seed,
// Recorder, Faults, Workers, LinkTxTime) live in the embedded loop.Spec;
// only arrow-specific extensions are declared here.
//
// Arrow's fault semantics refine loop.Spec.Faults: a queue message
// dropped by a fault corrupts the pointer state (the loser's region
// splits off); once the network heals, the run freezes new issues,
// drains in-flight requests, runs the message-driven self-stabilizing
// repair (stabilize.Engine) over the same simulator, and re-issues every
// lost request. The plan must be Healing: a permanently dead entity
// leaves requests unservable and the run errors at drain.
type LoopConfig struct {
	loop.Spec
	// Root is the initial sink.
	Root graph.NodeID
	// FaultObserver, when non-nil, is told each fault transition (for
	// tracing).
	FaultObserver func(sim.FaultEvent)
	// RepairObserver, when non-nil, is told each repair-protocol step
	// (for tracing).
	RepairObserver func(stabilize.RepairEvent)
}

// LoopResult aggregates a closed-loop run — the shared closed-loop
// counter shape (see loop.Result).
type LoopResult = loop.Result

// RunClosedLoop executes the closed-loop experiment on tree t — any
// tree.Nav: the explicit *tree.Tree, or an implicit navigator
// (tree.Walker, tree.GridNav) for million-node runs. Fault plans
// require the explicit tree (the stabilize repair engine traverses
// adjacency the implicit navigators do not materialize).
func RunClosedLoop(t tree.Nav, cfg LoopConfig) (*LoopResult, error) {
	step, err := NewTreeStepper(t, cfg.Root)
	if err != nil {
		return nil, err
	}
	var explicit *tree.Tree
	if cfg.Faults != nil {
		var ok bool
		if explicit, ok = t.(*tree.Tree); !ok {
			return nil, fmt.Errorf("arrow: fault plans require an explicit *tree.Tree (got %T)", t)
		}
	}
	d, err := shard.New(sim.TreeTopology{T: t}, step, "arrow", shard.Spec{Spec: cfg.Spec, Objects: 1})
	if err != nil {
		return nil, err
	}
	var rec *recovery
	if explicit != nil {
		rec = newRecovery(d, explicit, step.link, cfg)
	}
	res, err := d.Run()
	if err != nil {
		if rec != nil {
			err = fmt.Errorf("%w (inFlight=%d frozen=%v repairing=%v corrupted=%v)",
				err, rec.inFlight, rec.frozen, rec.repairing, rec.corrupted)
		}
		return nil, err
	}
	if rec != nil {
		res.Agg.RepairEpisodes = int64(rec.eng.Episodes())
		res.Agg.RepairMessages = rec.eng.Messages()
		res.Agg.RepairTime = rec.repairTime
	}
	if _, err := followLinks(step.link); err != nil {
		return nil, err
	}
	return &res.Agg, nil
}

// recovery is arrow's degraded-mode machinery, composed over the
// closed-loop driver: it gates the driver's timer, message and
// blocked-message handlers to run a freeze → drain → repair → re-issue
// cycle around the embedded stabilize engine. The driver still owns
// loss marking, the re-issue itself and the availability accounting;
// what differs from its own recovery is when a lost request may
// re-issue — not at heal, but after repair has restored a legal pointer
// state.
type recovery struct {
	d        *shard.Driver
	eng      *stabilize.Engine
	observer func(sim.FaultEvent)
	// wake marks nodes to resume once repair finishes: their find was
	// lost, or their issue timer fired during a freeze.
	wake []bool
	// inFlight counts issued-but-not-completed-or-lost requests — the
	// drain condition before repair may run.
	inFlight int
	// frozen gates new issues while a repair is pending or running;
	// corrupted records that a queue-message drop corrupted the pointer
	// state since the last repair.
	frozen    bool
	corrupted bool
	// repairing marks an engine episode in flight; repairStart stamps
	// the accounting that repairTime sums.
	repairing   bool
	repairStart sim.Time
	repairTime  sim.Time
}

func newRecovery(d *shard.Driver, t *tree.Tree, link []graph.NodeID, cfg LoopConfig) *recovery {
	r := &recovery{d: d, observer: cfg.FaultObserver, wake: make([]bool, t.NumNodes())}
	r.eng = stabilize.NewEngine(t, link, stabilize.EngineConfig{
		Observer: cfg.RepairObserver,
		OnDone:   r.repairDone,
	})
	s := d.Sim()
	s.SetAllHandlers(r.handle)
	s.SetTimerHandler(r.timer)
	s.SetBlockedHandler(r.onBlocked)
	s.SetFaultObserver(r.onFault)
	d.OnComplete(r.completed)
	return r
}

// timer gates the driver's issue step: while a repair is pending or
// running the issue parks and repairDone resumes it.
func (r *recovery) timer(ctx *sim.Context, v graph.NodeID) {
	if r.frozen {
		r.wake[v] = true
		return
	}
	r.wake[v] = false
	if r.d.Issue(ctx, v) {
		r.inFlight++
	}
}

// handle routes repair-protocol messages to the engine and everything
// else to the driver.
func (r *recovery) handle(ctx *sim.Context, at, from graph.NodeID, msg sim.Message) {
	if r.eng.Owns(msg) {
		r.eng.Handle(ctx, at, from, msg)
		return
	}
	r.d.Handle(ctx, at, from, msg)
}

// completed runs at every completion: one fewer request to drain.
func (r *recovery) completed(ctx *sim.Context) {
	r.inFlight--
	if r.frozen {
		r.tryRepair(ctx)
	}
}

// onFault watches liveness transitions: once the network fully heals
// after a corrupting drop, the loop freezes new issues, drains, and
// repairs.
func (r *recovery) onFault(ctx *sim.Context, ev sim.FaultEvent) {
	if r.observer != nil {
		r.observer(ev)
	}
	if r.corrupted && ctx.ActiveFaults() == 0 {
		r.frozen = true
		r.tryRepair(ctx)
	}
}

// onBlocked is told each message a fault dropped or stalled. A dropped
// queue message corrupts the pointer state — its requester's region
// split off when it initiated — so repair is armed and the request
// waits for it; a dropped reply only delays the requester (the driver
// resumes it at the heal instant).
func (r *recovery) onBlocked(ctx *sim.Context, from, to graph.NodeID, msg sim.Message, upAt sim.Time, dropped bool) {
	if r.eng.Owns(msg) {
		// A fault caught the repair itself: abort the episode (its time
		// still counts as repair downtime); the next heal re-runs it from
		// the current pointer state.
		if dropped && r.eng.Running() {
			r.eng.Abort()
			r.repairTime += ctx.Now() - r.repairStart
			r.repairing = false
		}
		return
	}
	if v, lost := r.d.Blocked(ctx, msg, upAt, dropped); lost {
		r.wake[v] = true
		r.corrupted = true
		r.inFlight--
		r.tryRepair(ctx)
	}
}

// tryRepair starts a repair episode once the loop is frozen, the network
// healed, and every in-flight request drained (completed or lost).
func (r *recovery) tryRepair(ctx *sim.Context) {
	if !r.frozen || r.repairing || r.inFlight > 0 || ctx.ActiveFaults() != 0 {
		return
	}
	r.repairing = true
	r.repairStart = ctx.Now()
	r.eng.Begin(ctx)
}

// repairDone unfreezes the loop: lost requests re-issue against the
// repaired pointer state and parked nodes resume.
func (r *recovery) repairDone(ctx *sim.Context, converged bool) {
	r.repairTime += ctx.Now() - r.repairStart
	r.repairing = false
	r.frozen = false
	r.corrupted = false
	for v, w := range r.wake {
		if w {
			r.wake[v] = false
			ctx.AfterNode(1, graph.NodeID(v))
		}
	}
}
