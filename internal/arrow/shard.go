package arrow

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/shard"
	"repro/internal/tree"
)

// ShardForest is arrow's multi-object pointer state: k independent
// arrow instances, each running the protocol on its own balanced binary
// spanning tree over the same n nodes. Object o's tree is object 0's
// tree rotated by o's root — node v plays the role of label
// (v - root_o) mod n in a binary heap rooted at root_o = o mod n — so
// the k trees share no root and spread both the root hotspot and the
// per-link traffic across the whole network, while every tree keeps the
// O(log n) depth the protocol's competitive bound charges.
//
// The flat link table is keyed by (object, node); each entry is the
// node's arrow for that object and is touched only by events at that
// node.
type ShardForest struct {
	n    int
	link shard.Cells
}

// NewShardForest builds the k rotated trees with every arrow pointing
// toward the object's root (the initial tail holder): k·n shard.Cells,
// 2·k·n bytes up to 65 536 nodes and 4·k·n beyond.
func NewShardForest(n, k int) (*ShardForest, error) {
	if n < 1 {
		return nil, fmt.Errorf("arrow: shard forest needs n >= 1, got %d", n)
	}
	if k < 1 {
		return nil, fmt.Errorf("arrow: shard forest needs k >= 1 objects, got %d", k)
	}
	f := &ShardForest{n: n, link: shard.NewCells(n, k*n)}
	for o := 0; o < k; o++ {
		root := o % n
		base := o * n
		for v := 0; v < n; v++ {
			l := v - root
			if l < 0 {
				l += n
			}
			if l == 0 {
				// The root's arrow points to itself: it holds the tail.
				f.link.Set(base+v, graph.NodeID(v))
				continue
			}
			p := (l-1)/2 + root
			if p >= n {
				p -= n
			}
			f.link.Set(base+v, graph.NodeID(p))
		}
	}
	return f, nil
}

// Start is the protocol's first step on v's link cell for one object: the
// request follows the arrow to target and the arrow flips to v itself —
// v is where the next request will find this one. local reports that the
// arrow already pointed at v: v holds the object's tail, the request
// queues behind v's previous one and no message is sent.
//
// Start and Forward are all the arrow protocol there is. Every executor
// calls them — the simulator's through ShardForest (on a local copy of
// a two- or four-byte table cell) and TreeStepper, the live goroutine
// runtime on its own per-node link slices — so each keeps the storage
// layout that suits it and none has a pointer flip of its own.
func Start(link *graph.NodeID, v graph.NodeID) (target graph.NodeID, local bool) {
	target = *link
	*link = v
	return target, target == v
}

// Forward is the protocol's second step, the atomic path reversal at node
// at for a find arriving from from: the arrow flips back toward the
// previous hop and the find moves on to where it pointed. done reports
// that it pointed at at itself: the chase found the tail here.
func Forward(link *graph.NodeID, at, from graph.NodeID) (next graph.NodeID, done bool) {
	next = *link
	*link = from
	return next, next == at
}

// StartFind implements shard.Stepper with Start on a copy of (obj, v)'s cell.
func (f *ShardForest) StartFind(obj int32, v graph.NodeID) (graph.NodeID, bool) {
	i := int(obj)*f.n + int(v)
	link := f.link.Get(i)
	target, local := Start(&link, v)
	f.link.Set(i, link)
	return target, local
}

// ForwardFind implements shard.Stepper with Forward, likewise.
func (f *ShardForest) ForwardFind(obj int32, at, from, origin graph.NodeID) (graph.NodeID, bool) {
	i := int(obj)*f.n + int(at)
	link := f.link.Get(i)
	next, done := Forward(&link, at, from)
	f.link.Set(i, link)
	return next, done
}

// ShardSafeStepper is the unread shard.ShardSafe marker (every link
// entry is keyed by the node whose events touch it); kept for bench/,
// see there.
func (f *ShardForest) ShardSafeStepper() {}

// TreeStepper is arrow on one spanning tree — the pointer discipline of
// every single-object run, static or closed-loop: one arrow per node,
// starting out along t toward the initial sink, plus the tree route
// completion notifications take back to the requester (a tree has no
// direct sink→requester link). The arrows stay a plain slice: the
// stabilize engine repairs it in place and Result.FinalLinks returns it.
type TreeStepper struct {
	link []graph.NodeID
	t    tree.Nav
}

// NewTreeStepper points every node's arrow at its neighbour in t toward
// root; root points at itself (the unique sink).
func NewTreeStepper(t tree.Nav, root graph.NodeID) (*TreeStepper, error) {
	n := t.NumNodes()
	if int(root) < 0 || int(root) >= n {
		return nil, fmt.Errorf("arrow: root %d out of range", root)
	}
	links := make([]graph.NodeID, n)
	for v := range links {
		if node := graph.NodeID(v); node == root {
			links[v] = node
		} else {
			links[v] = t.NextHop(node, root)
		}
	}
	return &TreeStepper{links, t}, nil
}

// StartFind implements shard.Stepper with Start on v's arrow.
func (s *TreeStepper) StartFind(_ int32, v graph.NodeID) (graph.NodeID, bool) {
	return Start(&s.link[v], v)
}

// ForwardFind implements shard.Stepper with Forward on at's arrow.
func (s *TreeStepper) ForwardFind(_ int32, at, from, _ graph.NodeID) (graph.NodeID, bool) {
	return Forward(&s.link[at], at, from)
}

// ReplyHop implements shard.ReplyRouter.
func (s *TreeStepper) ReplyHop(at, origin graph.NodeID) graph.NodeID {
	return s.t.NextHop(at, origin)
}
