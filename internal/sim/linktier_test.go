package sim

import (
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/stats"
	"repro/internal/tree"
)

// tokenResult is everything a link-state tier could perturb: makespan,
// counters, the recorded distributions and the exact sequence of
// RecordRequest calls.
type tokenResult struct {
	mk                 Time
	msgs, hops, events int64
	latDist, hopDist   stats.Dist
	calls              []recCall
}

type recCall struct {
	latency int64
	hops    int
}

// seqRecorder keeps the call sequence next to the distributions.
type seqRecorder struct {
	dist  *stats.DistRecorder
	calls []recCall
}

func (r *seqRecorder) RecordRequest(latency int64, hops int) {
	r.dist.RecordRequest(latency, hops)
	r.calls = append(r.calls, recCall{latency, hops})
}

// noIdxTopo hides a topology's LinkIndexer, forcing the map link tier.
type noIdxTopo struct{ Topology }

// pagedTopo reports more links than the dense tier admits, forcing the
// paged link tier (LinkIndex itself is the tree's).
type pagedTopo struct{ TreeTopology }

func (pagedTopo) NumLinks() int { return fifoDenseMax + 1 }

type find struct {
	origin graph.NodeID
	up     bool
}

// tokenRun drives a self-contained token-bouncing protocol over topo —
// every node fires a timer, sends a token to the root, the root bounces
// it back, the origin records the round trip and re-issues after a think
// time drawn from the counter-based Context.Draw.
func tokenRun(nav *tree.Walker, topo Topology, rounds int, lat LatencyModel, tx Time) tokenResult {
	n := nav.NumNodes()
	rec := &seqRecorder{dist: stats.NewDistRecorder()}
	s := New(Config{Topology: topo, Latency: lat, Seed: 7, LinkTxTime: tx})
	issue := make([]Time, n)
	left := make([]int, n)
	for i := range left {
		left[i] = rounds
	}
	s.SetTimerHandler(func(ctx *Context, v graph.NodeID) {
		issue[v] = ctx.Now()
		ctx.Send(v, nav.Parent(v), find{origin: v, up: true})
	})
	s.SetAllHandlers(func(ctx *Context, at, from graph.NodeID, msg Message) {
		m := msg.(find)
		if m.up {
			if at == nav.Root() {
				ctx.Send(at, nav.NextHop(at, m.origin), find{origin: m.origin})
				return
			}
			ctx.Send(at, nav.Parent(at), m)
			return
		}
		if at != m.origin {
			ctx.Send(at, nav.NextHop(at, m.origin), m)
			return
		}
		ctx.RecordRequest(rec, int64(ctx.Now()-issue[at]), int(nav.Depth(at))*2)
		left[at]--
		if left[at] > 0 {
			ctx.AfterNode(1+Time(ctx.Draw(0)%3), at)
		}
	})
	for v := 1; v < n; v++ {
		s.ScheduleNodeAt(Time(1+v%3), graph.NodeID(v))
	}
	mk := s.Run()
	return tokenResult{mk, s.Messages(), s.Hops(), s.EventsProcessed(),
		rec.dist.Latency.Snapshot(), rec.dist.Hops.Snapshot(), rec.calls}
}

// TestLinkTiersAgree is the cross-tier identity: with a stream-RNG
// latency model (so the FIFO clamp binds) and finite link capacity (so
// the busy clock binds), the token protocol produces one result whether
// the per-link clocks live in the dense slice behind the flat tree link
// table, in lazily allocated pages, or in the endpoint-keyed map.
func TestLinkTiersAgree(t *testing.T) {
	nav := tree.BinaryWalker(300)
	tt := TreeTopology{T: nav}
	tiers := []struct {
		name  string
		topo  Topology
		check func(c *linkClock) bool
	}{
		{"dense", tt, func(c *linkClock) bool { return c.dense != nil }},
		{"paged", pagedTopo{tt}, func(c *linkClock) bool { return c.pages != nil }},
		{"map", noIdxTopo{tt}, func(c *linkClock) bool { return c.m != nil }},
	}
	var want tokenResult
	for i, tier := range tiers {
		probe := New(Config{Topology: tier.topo, Latency: AsyncUniform(4), LinkTxTime: 1})
		if !tier.check(probe.fifo) || !tier.check(probe.busy) {
			t.Fatalf("%s: the wrapper did not select that tier", tier.name)
		}
		got := tokenRun(nav, tier.topo, 4, AsyncUniform(4), 1)
		if len(got.calls) != 4*(nav.NumNodes()-1) {
			t.Fatalf("%s: %d requests recorded, want %d", tier.name, len(got.calls), 4*(nav.NumNodes()-1))
		}
		if i == 0 {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			got.calls, want.calls = nil, nil
			t.Fatalf("%s diverged from %s:\n got %+v\nwant %+v", tier.name, tiers[0].name, got, want)
		}
	}
}
