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
// object shuttles between the home and each requester: every access pays
// two object trips through the home plus the request message.
//
// Both are one closed loop over a shard.Stepper — arrow.TreeStepper on
// the tree, centralized.ShardCenters coordinating the object at the home
// over shortest paths — on the deterministic simulator, so their costs
// are directly comparable: acquisition latency, object travel, and
// makespan.
package directory

import (
	"fmt"
	"math"

	"repro/internal/arrow"
	"repro/internal/centralized"
	"repro/internal/graph"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/tree"
)

// Config drives a closed-loop directory experiment: every node acquires
// the object PerNode times, holding it for holdTime per access, issuing
// its next acquire ThinkTime after releasing.
type Config struct {
	PerNode   int
	ThinkTime sim.Time
	// Latency is the delay model (nil = synchronous).
	Latency sim.LatencyModel
	// Arbitration orders simultaneous messages.
	Arbitration sim.Arbitration
	Seed        int64
}

// holdTime is how long a node keeps the object per access.
const holdTime sim.Time = 1

// Result aggregates a directory run.
type Result struct {
	N        int
	Acquires int64
	// Makespan is the simulated time until the last release.
	Makespan sim.Time
	// AcquireLatency sums issue-to-object-arrival times, kept as Σ
	// arrival − Σ issue with no issue time per node: exact once the run
	// is done; mid-run it carries −issue for each acquire in flight.
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

// RunArrow executes the closed-loop arrow directory on tree t. The object
// starts at root.
func RunArrow(t *tree.Tree, root graph.NodeID, cfg Config) (*Result, error) {
	step, err := arrow.NewTreeStepper(t, root)
	if err != nil {
		return nil, fmt.Errorf("directory: %w", err)
	}
	return run(sim.TreeTopology{T: t}, step, root, false, cfg)
}

// RunHome executes the closed-loop home-based directory over graph g with
// the given home node. Messages travel over shortest paths.
func RunHome(g *graph.Graph, home graph.NodeID, cfg Config) (*Result, error) {
	n := g.NumNodes()
	if int(home) < 0 || int(home) >= n {
		return nil, fmt.Errorf("directory: home %d out of range", home)
	}
	// Object home's coordinator is home mod n = home: every find is one
	// message to the home, where it is queued.
	step, err := centralized.NewShardCenters(n, n)
	if err != nil {
		return nil, fmt.Errorf("directory: %w", err)
	}
	return run(sim.NewMetricTopology(g), step, home, true, cfg)
}

// Messages: a node's pre-boxed find, and the object itself. The dirMsg
// marker method lets internal/lint's msgswitch analyzer check switch
// exhaustiveness.
type dirMsg interface{ isDirMsg() }

type (
	findMsg struct{ origin graph.NodeID }
	objMsg  struct{}
)

func (*findMsg) isDirMsg() {}
func (*objMsg) isDirMsg()  {}

// node is a node's closed-loop state, 16 bytes. A node has at most one
// request in flight — it issues the next only after releasing the
// object — so a request is named by its issuing node, and succ and tail
// hold nodes. No issue time is kept: see Result.AcquireLatency.
type node struct {
	find      findMsg
	succ      graph.NodeID // whose request follows this node's; none if not queued yet
	tail      graph.NodeID // whose request a find ending here queues behind
	remaining int32
}

const none graph.NodeID = -1

// dir is one run of either directory. Request rest (= n, one record past
// the nodes) stands for the released object while nobody has queued
// behind the request that released it: the tail that request left
// becomes rest, and the object waits at its resting place — where it
// was released, or the home — for rest's successor. The object's
// initial position is that state at home.
type dir struct {
	cfg     Config
	topo    sim.Topology
	step    shard.Stepper
	route   shard.ReplyRouter // nil: the object crosses one topology link per send
	home    graph.NodeID
	viaHome bool  // the object returns to home after every hold
	obj     int32 // the object's number for step: home (arrow's stepper ignores it)
	nodes   []node
	rest    graph.NodeID

	to     graph.NodeID // request the object travels to or is held by; rest between requests
	parked graph.NodeID // where the object waits for rest's successor; none otherwise
	object objMsg
	res    Result
}

// run is both directories' closed loop. Finds chase step's pointers from
// the requester and queue behind the tail where they end; a released
// object goes straight to its successor along route (arrow), or by way of
// home when viaHome. Each push takes the next event seq, which keys the
// asynchronous latency and random arbitration draws, so the order of
// pushes within a handler is part of every result (the directory golden
// and TestDirectoryAsyncPins hold it).
func run(topo sim.Topology, step shard.Stepper, home graph.NodeID, viaHome bool, cfg Config) (*Result, error) {
	d, s, err := newDir(topo, step, home, viaHome, cfg)
	if err != nil {
		return nil, err
	}
	d.res.Makespan = s.Run()
	if total := int64(cfg.PerNode) * int64(d.res.N); d.res.Acquires != total {
		return nil, fmt.Errorf("directory: %d of %d acquisitions completed", d.res.Acquires, total)
	}
	return &d.res, nil
}

// newDir validates cfg and builds the run's state and its simulator
// with every node's first timer scheduled at 0.
func newDir(topo sim.Topology, step shard.Stepper, home graph.NodeID, viaHome bool, cfg Config) (*dir, *sim.Simulator, error) {
	if cfg.PerNode < 1 {
		return nil, nil, fmt.Errorf("directory: PerNode must be >= 1")
	}
	if cfg.PerNode > math.MaxInt32 {
		// node.remaining is an int32: a larger count would truncate.
		return nil, nil, fmt.Errorf("directory: PerNode must be <= %d, got %d", math.MaxInt32, cfg.PerNode)
	}
	cfg.ThinkTime = max(cfg.ThinkTime, 1)
	n := topo.NumNodes()
	d := &dir{
		cfg: cfg, topo: topo, step: step, obj: int32(home), home: home, viaHome: viaHome,
		nodes: make([]node, n+1), rest: graph.NodeID(n), to: graph.NodeID(n), parked: home,
		res: Result{N: n},
	}
	d.route, _ = step.(shard.ReplyRouter)
	for v := range d.nodes {
		d.nodes[v] = node{find: findMsg{origin: graph.NodeID(v)}, succ: none, remaining: int32(cfg.PerNode)}
	}
	d.nodes[home].tail = d.rest
	s := sim.New(sim.Config{
		Topology:    topo,
		Latency:     cfg.Latency,
		Arbitration: cfg.Arbitration,
		Seed:        cfg.Seed,
		MaxEvents:   eventBudget(int64(cfg.PerNode)*int64(n), n),
	})
	s.SetAllHandlers(d.handle)
	s.SetTimerHandler(d.timer)
	s.Reserve(n)
	for v := 0; v < n; v++ {
		s.ScheduleNodeAt(0, graph.NodeID(v))
	}
	return d, s, nil
}

// eventBudget is the divergence guard: each acquire costs at most ~8n
// find and object events plus its hold and think timers. Saturating
// arithmetic keeps the guard meaningful where the product overflows
// int64 (a wrapped value would either disable the guard or panic a
// healthy run).
func eventBudget(total int64, n int) int64 {
	return sim.SatAdd(sim.SatMul(total, int64(8*n+16)), 4096)
}

// timer is v's one timer: the end of its hold while it has the object,
// else the end of its think time (or the start of the run).
func (d *dir) timer(ctx *sim.Context, v graph.NodeID) {
	if d.to == v {
		d.release(ctx, v)
		ctx.AfterNode(d.cfg.ThinkTime, v)
		return
	}
	nd := &d.nodes[v]
	if nd.remaining == 0 {
		return
	}
	nd.remaining--
	d.res.AcquireLatency -= ctx.Now()
	target, local := d.step.StartFind(d.obj, v)
	if local {
		d.queued(ctx, v, v)
		return
	}
	nd.tail = v // arrow's StartFind made v a sink; the home stepper never ends a find here
	d.sendFind(ctx, v, target, &nd.find)
}

func (d *dir) handle(ctx *sim.Context, at, from graph.NodeID, msg sim.Message) {
	switch m := msg.(type) {
	case *findMsg:
		if next, done := d.step.ForwardFind(d.obj, at, from, m.origin); !done {
			d.sendFind(ctx, at, next, m)
		} else {
			d.queued(ctx, m.origin, at)
		}
	case *objMsg:
		d.carry(ctx, at)
	default:
		panic(fmt.Sprintf("directory: unexpected message %T", msg))
	}
}

func (d *dir) sendFind(ctx *sim.Context, u, v graph.NodeID, m *findMsg) {
	d.res.FindHops += int64(d.topo.Hops(u, v))
	ctx.Send(u, v, m)
}

// queued orders v's request behind the tail at at, the node its find
// ended at. If that is the waiting object, it leaves for v now.
func (d *dir) queued(ctx *sim.Context, v, at graph.NodeID) {
	pred := d.nodes[at].tail
	d.nodes[at].tail = v
	if pred == d.rest && d.parked != none {
		from := d.parked
		d.parked, d.to = none, v
		d.carry(ctx, from)
		return
	}
	d.nodes[pred].succ = v
}

// release hands the object v held to v's successor, or — with none
// queued yet — sends it to rest, and rest takes v's place as the tail.
func (d *dir) release(ctx *sim.Context, v graph.NodeID) {
	d.to, d.nodes[v].succ = d.nodes[v].succ, none
	if d.to == none {
		keeper := v // the node whose tail is v
		if d.viaHome {
			keeper = d.home
		}
		d.to, d.nodes[keeper].tail = d.rest, d.rest
	}
	d.carry(ctx, v)
}

// carry moves the object on from at, where it was released or has just
// arrived: at rest's place it takes rest's successor or waits for one;
// it is granted at the request's node and otherwise takes one hop, via
// home for the home-based directory.
func (d *dir) carry(ctx *sim.Context, at graph.NodeID) {
	if d.to == d.rest && (!d.viaHome || at == d.home) {
		s := &d.nodes[d.rest].succ
		if *s == none {
			d.parked = at
			return
		}
		d.to, *s = *s, none
	}
	next := d.to
	switch {
	case at == next:
		d.res.Acquires++
		d.res.AcquireLatency += ctx.Now()
		ctx.AfterNode(holdTime, at)
		return
	case d.viaHome && at != d.home:
		next = d.home
	case d.route != nil:
		next = d.route.ReplyHop(at, next)
	}
	d.res.ObjectHops += int64(d.topo.Hops(at, next))
	ctx.Send(at, next, &d.object)
}
