package main

import (
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tree"
)

// The counting decorators of the traced pass. Each wraps one interface
// the layers already accept, forwards every call unchanged, counts it,
// and times one call in sampleEvery under the span *parent points at.
// They are transparent: a run through them produces the same Result as
// a bare run (bench_test.go pins that), so the traced pass must
// reproduce the untraced digest.

// Layer names, also the names of the sampled-call spans.
const (
	layerNav      = "tree.nav"
	layerTopology = "sim.topology"
	layerStep     = "proto.step"
	layerRecord   = "stats.record"
)

// tap is what every decorator embeds: the layer it counts into and the
// span its sampled calls hang under.
type tap struct {
	l      *layer
	parent *int32
}

// navTrace decorates a tree.Nav.
type navTrace struct {
	tap
	in tree.Nav
}

func wrapNav(t *tracer, in tree.Nav, parent *int32) tree.Nav {
	if t == nil {
		return in
	}
	return &navTrace{tap{t.layer(layerNav), parent}, in}
}

func (n *navTrace) NumNodes() int      { return n.in.NumNodes() }
func (n *navTrace) Root() graph.NodeID { return n.in.Root() }

func (n *navTrace) Parent(v graph.NodeID) graph.NodeID {
	if n.l.tick(uint(v)) {
		t0 := n.l.tr.stamp()
		r := n.in.Parent(v)
		n.l.sample(t0, *n.parent)
		return r
	}
	return n.in.Parent(v)
}

func (n *navTrace) ParentWeight(v graph.NodeID) graph.Weight {
	if n.l.tick(uint(v)) {
		t0 := n.l.tr.stamp()
		r := n.in.ParentWeight(v)
		n.l.sample(t0, *n.parent)
		return r
	}
	return n.in.ParentWeight(v)
}

func (n *navTrace) NextHop(u, target graph.NodeID) graph.NodeID {
	if n.l.tick(uint(u)) {
		t0 := n.l.tr.stamp()
		r := n.in.NextHop(u, target)
		n.l.sample(t0, *n.parent)
		return r
	}
	return n.in.NextHop(u, target)
}

func (n *navTrace) Dist(u, v graph.NodeID) graph.Weight {
	if n.l.tick(uint(u)) {
		t0 := n.l.tr.stamp()
		r := n.in.Dist(u, v)
		n.l.sample(t0, *n.parent)
		return r
	}
	return n.in.Dist(u, v)
}

// topoTrace decorates a sim.Topology that is not a LinkIndexer.
type topoTrace struct {
	tap
	in sim.Topology
}

// topoIdxTrace decorates a topology that also indexes its links. The
// simulator picks its link-state tier by asserting sim.LinkIndexer, so
// the decorator must answer that assertion exactly as the bare topology
// does.
type topoIdxTrace struct {
	topoTrace
	idx sim.LinkIndexer
}

func wrapTopology(t *tracer, in sim.Topology, parent *int32) sim.Topology {
	if t == nil {
		return in
	}
	tt := topoTrace{tap{t.layer(layerTopology), parent}, in}
	if idx, ok := in.(sim.LinkIndexer); ok {
		return &topoIdxTrace{tt, idx}
	}
	return &tt
}

func (t *topoTrace) NumNodes() int { return t.in.NumNodes() }

func (t *topoTrace) Latency(u, v graph.NodeID) (graph.Weight, bool) {
	if t.l.tick(uint(v)) {
		t0 := t.l.tr.stamp()
		w, ok := t.in.Latency(u, v)
		t.l.sample(t0, *t.parent)
		return w, ok
	}
	return t.in.Latency(u, v)
}

func (t *topoTrace) Hops(u, v graph.NodeID) int {
	if t.l.tick(uint(v)) {
		t0 := t.l.tr.stamp()
		h := t.in.Hops(u, v)
		t.l.sample(t0, *t.parent)
		return h
	}
	return t.in.Hops(u, v)
}

func (t *topoIdxTrace) NumLinks() int { return t.idx.NumLinks() }

func (t *topoIdxTrace) LinkIndex(u, v graph.NodeID) int {
	if t.l.tick(uint(v)) {
		t0 := t.l.tr.stamp()
		i := t.idx.LinkIndex(u, v)
		t.l.sample(t0, *t.parent)
		return i
	}
	return t.idx.LinkIndex(u, v)
}

// stepTrace decorates a shard.Stepper.
type stepTrace struct {
	tap
	in shard.Stepper
}

// stepSafeTrace additionally carries the ShardSafe marker, so a wrapped
// shard-safe stepper keeps its right to the parallel drain.
type stepSafeTrace struct{ stepTrace }

func (stepSafeTrace) ShardSafeStepper() {}

func wrapStepper(t *tracer, in shard.Stepper, parent *int32) shard.Stepper {
	if t == nil {
		return in
	}
	st := stepTrace{tap{t.layer(layerStep), parent}, in}
	if _, ok := in.(shard.ShardSafe); ok {
		return &stepSafeTrace{st}
	}
	return &st
}

func (s *stepTrace) StartFind(obj int32, v graph.NodeID) (graph.NodeID, bool) {
	if s.l.tick(uint(v)) {
		t0 := s.l.tr.stamp()
		target, local := s.in.StartFind(obj, v)
		s.l.sample(t0, *s.parent)
		return target, local
	}
	return s.in.StartFind(obj, v)
}

func (s *stepTrace) ForwardFind(obj int32, at, from, origin graph.NodeID) (graph.NodeID, bool) {
	if s.l.tick(uint(at)) {
		t0 := s.l.tr.stamp()
		next, done := s.in.ForwardFind(obj, at, from, origin)
		s.l.sample(t0, *s.parent)
		return next, done
	}
	return s.in.ForwardFind(obj, at, from, origin)
}

// recTrace decorates a stats.Recorder. It is deliberately not a
// stats.ShardableRecorder: the workloads that record run the serial
// drain, where the distinction does not arise.
type recTrace struct {
	tap
	in stats.Recorder
}

func wrapRecorder(t *tracer, in stats.Recorder, parent *int32) stats.Recorder {
	if t == nil {
		return in
	}
	return &recTrace{tap{t.layer(layerRecord), parent}, in}
}

func (r *recTrace) RecordRequest(latency int64, hops int) {
	if r.l.tick(uint(latency)) {
		t0 := r.l.tr.stamp()
		r.in.RecordRequest(latency, hops)
		r.l.sample(t0, *r.parent)
		return
	}
	r.in.RecordRequest(latency, hops)
}

// cellTrace decorates an engine.Protocol: one "cell" span per Run with
// the protocol's own run as its child, parented to the sweep span. The
// cell's recorder wrapper samples under the same cell span.
type cellTrace struct {
	in    engine.Protocol
	tr    *tracer
	sweep *int32
	// cell is the span the cell's other decorators parent to; busyNS
	// receives the protocol run's duration.
	cell   *int32
	busyNS *int64
}

func (c cellTrace) Name() string { return c.in.Name() }

func (c cellTrace) Run(inst engine.Instance) (engine.Cost, error) {
	*c.cell = c.tr.start("cell:"+c.in.Name()+"/"+inst.Label, *c.sweep)
	run := c.tr.start("protocol.run", *c.cell)
	t0 := c.tr.now()
	cost, err := c.in.Run(inst)
	*c.busyNS = c.tr.now() - t0
	c.tr.end(run)
	c.tr.end(*c.cell)
	return cost, err
}
