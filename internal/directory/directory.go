// Package directory implements the arrow distributed directory of Demmer
// and Herlihy [4] — the mobile-object application that motivates the
// paper's Section 1 — together with the home-based directory baseline it
// was measured against by Herlihy and Warres [12] ("a tale of two
// directories").
//
// In the arrow directory, a node acquiring the shared object queues a
// find request with the arrow protocol; the object then travels down the
// distributed queue from each holder directly to its successor. In the
// home-based directory, a fixed home node serializes all accesses and the
// object shuttles between the home and each requester.
//
// Both run on the deterministic simulator so their costs are directly
// comparable: acquisition latency, object travel, and makespan.
package directory

import (
	"fmt"

	"repro/internal/arrow"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/tree"
)

// Config drives a closed-loop directory experiment: every node acquires
// the object PerNode times, holding it for HoldTime per access, issuing
// its next acquire ThinkTime after releasing.
type Config struct {
	PerNode   int
	HoldTime  sim.Time
	ThinkTime sim.Time
	// Latency is the delay model (nil = synchronous).
	Latency sim.LatencyModel
	// Arbitration orders simultaneous messages.
	Arbitration sim.Arbitration
	Seed        int64
}

func (c *Config) normalize() {
	if c.HoldTime <= 0 {
		c.HoldTime = 1
	}
	if c.ThinkTime <= 0 {
		c.ThinkTime = 1
	}
}

// Result aggregates a directory run.
type Result struct {
	N        int
	Acquires int64
	// Makespan is the simulated time until the last release.
	Makespan sim.Time
	// AcquireLatency sums issue-to-object-arrival times.
	AcquireLatency int64
	// FindHops counts queue-message link traversals (arrow) or
	// request-message hops (home).
	FindHops int64
	// ObjectHops counts link traversals of the object itself.
	ObjectHops int64
}

// AvgAcquireLatency returns mean time from request to object arrival.
func (r *Result) AvgAcquireLatency() float64 {
	if r.Acquires == 0 {
		return 0
	}
	return float64(r.AcquireLatency) / float64(r.Acquires)
}

// AvgObjectHops returns mean object travel per acquisition.
func (r *Result) AvgObjectHops() float64 {
	if r.Acquires == 0 {
		return 0
	}
	return float64(r.ObjectHops) / float64(r.Acquires)
}

// Messages used by the arrow directory. The dirMsg marker method lets
// arrowlint's msgswitch analyzer check switch exhaustiveness.
type dirMsg interface{ isDirMsg() }

type (
	findMsg struct{ reqID int }
	objMsg  struct {
		target graph.NodeID // requester the object is travelling to
		reqID  int          // request being satisfied
	}
)

func (findMsg) isDirMsg() {}
func (objMsg) isDirMsg()  {}

type arrowDirState struct {
	t   *tree.Tree
	cfg Config

	// step is arrow's pointer state: the find phase is the protocol step
	// every simulated arrow run executes.
	step    *arrow.TreeStepper
	lastReq []int

	origin    []graph.NodeID
	issueTime []sim.Time
	hops      []int

	succ      map[int]int // predecessor reqID -> successor reqID
	remaining []int
	res       *Result

	// Object location: objAt/objAfter are meaningful while objFree (the
	// object is parked awaiting the successor of request objAfter);
	// while travelling or held it is tracked by messages and timers.
	objAt    graph.NodeID
	objFree  bool
	objAfter int
}

// RunArrow executes the closed-loop arrow directory on tree t. The object
// starts at root.
func RunArrow(t *tree.Tree, root graph.NodeID, cfg Config) (*Result, error) {
	n := t.NumNodes()
	if cfg.PerNode < 1 {
		return nil, fmt.Errorf("directory: PerNode must be >= 1")
	}
	step, err := arrow.NewTreeStepper(t, root)
	if err != nil {
		return nil, fmt.Errorf("directory: %w", err)
	}
	cfg.normalize()
	total := int64(cfg.PerNode) * int64(n)
	st := &arrowDirState{
		t:         t,
		cfg:       cfg,
		step:      step,
		lastReq:   make([]int, n),
		succ:      make(map[int]int),
		remaining: make([]int, n),
		res:       &Result{N: n},
	}
	for v := 0; v < n; v++ {
		st.lastReq[v] = -1
		st.remaining[v] = cfg.PerNode
	}
	s := sim.New(sim.Config{
		Topology:    sim.TreeTopology{T: t},
		Latency:     cfg.Latency,
		Arbitration: cfg.Arbitration,
		Seed:        cfg.Seed,
		MaxEvents:   total*int64(8*n+16) + 4096,
	})
	s.SetAllHandlers(st.handle)
	// The object sits at root, already released by the virtual request
	// (-1); its first transfer triggers when -1's successor is queued.
	st.objAt = root
	st.objFree = true
	st.objAfter = -1
	s.Reserve(n)
	for v := 0; v < n; v++ {
		node := graph.NodeID(v)
		s.ScheduleAt(0, func(ctx *sim.Context) { st.issue(ctx, node) })
	}
	st.res.Makespan = s.Run()
	if st.res.Acquires != total {
		return nil, fmt.Errorf("directory: %d of %d acquisitions completed", st.res.Acquires, total)
	}
	return st.res, nil
}

func (st *arrowDirState) issue(ctx *sim.Context, v graph.NodeID) {
	if st.remaining[v] == 0 {
		return
	}
	st.remaining[v]--
	reqID := len(st.origin)
	st.origin = append(st.origin, v)
	st.issueTime = append(st.issueTime, ctx.Now())
	st.hops = append(st.hops, 0)

	target, local := st.step.StartFind(0, v)
	pred := st.lastReq[v]
	st.lastReq[v] = reqID
	if local {
		st.queued(ctx, reqID, pred)
		return
	}
	st.hops[reqID]++
	ctx.Send(v, target, findMsg{reqID: reqID})
}

func (st *arrowDirState) handle(ctx *sim.Context, at, from graph.NodeID, msg sim.Message) {
	switch m := msg.(type) {
	case findMsg:
		next, done := st.step.ForwardFind(0, at, from, st.origin[m.reqID])
		if !done {
			st.hops[m.reqID]++
			ctx.Send(at, next, m)
			return
		}
		st.queued(ctx, m.reqID, st.lastReq[at])
	case objMsg:
		st.res.ObjectHops++
		if at == m.target {
			st.objectArrived(ctx, m.reqID)
			return
		}
		ctx.Send(at, st.t.NextHop(at, m.target), m)
	default:
		panic(fmt.Sprintf("directory: unexpected message %T", msg))
	}
}

// queued records that reqID is ordered directly behind predID. If the
// predecessor has already released the object, the transfer starts now.
func (st *arrowDirState) queued(ctx *sim.Context, reqID, predID int) {
	st.res.FindHops += int64(st.hops[reqID])
	st.succ[predID] = reqID
	if st.objFree && st.objAfter == predID {
		st.objFree = false
		st.sendObject(ctx, st.objAt, reqID)
	}
}

// sendObject dispatches the object from its current location toward the
// origin of reqID (zero hops if already there).
func (st *arrowDirState) sendObject(ctx *sim.Context, fromNode graph.NodeID, reqID int) {
	target := st.origin[reqID]
	if fromNode == target {
		st.objectArrived(ctx, reqID)
		return
	}
	ctx.Send(fromNode, st.t.NextHop(fromNode, target), objMsg{target: target, reqID: reqID})
}

// objectArrived grants the object for reqID: the acquire completes, the
// holder works for HoldTime, then releases.
func (st *arrowDirState) objectArrived(ctx *sim.Context, reqID int) {
	v := st.origin[reqID]
	st.res.Acquires++
	st.res.AcquireLatency += int64(ctx.Now() - st.issueTime[reqID])
	ctx.After(st.cfg.HoldTime, func(ctx *sim.Context) {
		st.release(ctx, reqID)
		// The node issues its next acquire after thinking.
		ctx.After(st.cfg.ThinkTime, func(ctx *sim.Context) { st.issue(ctx, v) })
	})
}

// release hands the object to the successor if known, or parks it.
func (st *arrowDirState) release(ctx *sim.Context, reqID int) {
	v := st.origin[reqID]
	if next, ok := st.succ[reqID]; ok {
		st.sendObject(ctx, v, next)
		return
	}
	st.objAt = v
	st.objFree = true
	st.objAfter = reqID
}
