package directory

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/sim"
)

// Home-based directory baseline (Herlihy–Warres [12]): a fixed home node
// owns the object's directory entry. To acquire, a node sends a request
// to the home; the home serializes requests and ships the object to each
// requester in turn; after HoldTime the holder returns the object to the
// home, which then serves the next queued request. Every access therefore
// pays two object trips through the home plus the request message —
// compared with arrow's single direct predecessor-to-successor transfer.

// homeMsg is the home-based protocol's message family; the marker
// method lets arrowlint's msgswitch analyzer check switch
// exhaustiveness.
type homeMsg interface{ isHomeMsg() }

type (
	homeReq struct {
		origin graph.NodeID
		issued sim.Time
	}
	homeObj struct {
		issued sim.Time // issue time of the request being served
		grant  bool     // true: home -> requester; false: return to home
	}
)

func (homeReq) isHomeMsg() {}
func (homeObj) isHomeMsg() {}

type homeState struct {
	cfg       Config
	home      graph.NodeID
	topo      *sim.MetricTopology
	queue     []homeReq
	objAtHome bool
	remaining []int
	res       *Result
}

// RunHome executes the closed-loop home-based directory over graph g with
// the given home node. Messages travel over shortest paths.
func RunHome(g *graph.Graph, home graph.NodeID, cfg Config) (*Result, error) {
	n := g.NumNodes()
	if cfg.PerNode < 1 {
		return nil, fmt.Errorf("directory: PerNode must be >= 1")
	}
	if int(home) < 0 || int(home) >= n {
		return nil, fmt.Errorf("directory: home %d out of range", home)
	}
	cfg.normalize()
	total := int64(cfg.PerNode) * int64(n)
	st := &homeState{
		cfg:       cfg,
		home:      home,
		topo:      sim.NewMetricTopology(g),
		objAtHome: true,
		remaining: make([]int, n),
		res:       &Result{N: n},
	}
	for i := range st.remaining {
		st.remaining[i] = cfg.PerNode
	}
	s := sim.New(sim.Config{
		Topology:    st.topo,
		Latency:     cfg.Latency,
		Arbitration: cfg.Arbitration,
		Seed:        cfg.Seed,
		MaxEvents:   total*32 + 4096,
	})
	s.SetAllHandlers(st.handle)
	s.Reserve(n)
	for v := 0; v < n; v++ {
		node := graph.NodeID(v)
		s.ScheduleAt(0, func(ctx *sim.Context) { st.issue(ctx, node) })
	}
	st.res.Makespan = s.Run()
	if st.res.Acquires != total {
		return nil, fmt.Errorf("directory: home served %d of %d acquisitions", st.res.Acquires, total)
	}
	return st.res, nil
}

func (st *homeState) handle(ctx *sim.Context, at, from graph.NodeID, msg sim.Message) {
	switch m := msg.(type) {
	case homeReq:
		if at != st.home {
			panic("directory: request at non-home node")
		}
		st.res.FindHops += int64(st.topo.Hops(m.origin, st.home))
		st.queue = append(st.queue, m)
		st.serveNext(ctx)
	case homeObj:
		if m.grant {
			st.granted(ctx, at, m.issued)
			return
		}
		if at != st.home {
			panic("directory: returned object at non-home node")
		}
		st.objAtHome = true
		st.serveNext(ctx)
	default:
		panic(fmt.Sprintf("directory: unexpected message %T", msg))
	}
}

func (st *homeState) issue(ctx *sim.Context, v graph.NodeID) {
	if st.remaining[v] == 0 {
		return
	}
	st.remaining[v]--
	req := homeReq{origin: v, issued: ctx.Now()}
	if v == st.home {
		st.queue = append(st.queue, req)
		st.serveNext(ctx)
		return
	}
	ctx.Send(v, st.home, req)
}

// serveNext ships the object to the next queued requester if it is home.
func (st *homeState) serveNext(ctx *sim.Context) {
	if !st.objAtHome || len(st.queue) == 0 {
		return
	}
	req := st.queue[0]
	st.queue = st.queue[1:]
	st.objAtHome = false
	if req.origin == st.home {
		st.granted(ctx, st.home, req.issued)
		return
	}
	st.res.ObjectHops += int64(st.topo.Hops(st.home, req.origin))
	ctx.Send(st.home, req.origin, homeObj{issued: req.issued, grant: true})
}

// granted completes one acquisition at v; after the hold time the object
// returns to the home and v thinks before its next acquire.
func (st *homeState) granted(ctx *sim.Context, v graph.NodeID, issued sim.Time) {
	st.res.Acquires++
	st.res.AcquireLatency += int64(ctx.Now() - issued)
	ctx.After(st.cfg.HoldTime, func(ctx *sim.Context) {
		if v == st.home {
			st.objAtHome = true
			st.serveNext(ctx)
		} else {
			st.res.ObjectHops += int64(st.topo.Hops(v, st.home))
			ctx.Send(v, st.home, homeObj{})
		}
		ctx.After(st.cfg.ThinkTime, func(ctx *sim.Context) { st.issue(ctx, v) })
	})
}
