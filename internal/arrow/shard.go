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
// The link table is keyed by (object, node); each entry is the node's
// arrow for that object and is touched only by events at that node. An
// arrow names the node itself or one of its tree neighbours, so a cell
// is a 2-bit code read against the node's heap label (toRoot, self,
// left, right).
type ShardForest struct {
	n    int
	link shard.Cells
}

// The arrow codes. toRoot is 0, so a zeroed table is the initial forest.
const (
	toRoot uint32 = iota // the node's parent label (l-1)/2
	self                 // the node itself: it holds the object's tail
	left                 // the node's left child label 2l+1
	right                // the node's right child label 2l+2
)

// NewShardForest builds the k rotated trees with every arrow pointing
// toward the object's root (the initial tail holder): k·n 2-bit
// shard.Cells, ⌈2·k·n/8⌉ + 8 bytes, of which only the k root cells are
// written. n < 1 or k < 1 is a *sim.ConfigError naming the field.
func NewShardForest(n, k int) (*ShardForest, error) {
	if err := shard.CheckShape(n, k); err != nil {
		return nil, err
	}
	f := &ShardForest{n: n, link: shard.NewCells(2, k*n)}
	for o, root := 0, 0; o < k; o++ {
		f.link.Set(o*n+root, self)
		if root++; root == n {
			root = 0
		}
	}
	return f, nil
}

// place returns obj's root and v's heap label in obj's tree. The root is
// obj itself unless there are more objects than nodes.
func (f *ShardForest) place(obj int32, v graph.NodeID) (root, l int) {
	root = int(obj)
	if root >= f.n {
		root %= f.n
	}
	l = int(v) - root
	return root, l + f.n&(l>>63) // mod n without a branch on v < root
}

// named returns the label code names at the node with label l: l - 1,
// l, 2l + 1 or 2l + 2, halved for toRoot, so (l-1)/2, l and the two
// children. It computes rather than branches: the codes a chase reads
// are as good as random.
func named(code uint32, l int) int {
	c := int(code & 3)
	return (l + l&-(c>>1) + c - 1) >> (1 >> c)
}

// decode returns the node arrow code names at the node with label l in
// the tree rooted at root.
func (f *ShardForest) decode(code uint32, root, l int) graph.NodeID {
	t := named(code, l) + root
	if t >= f.n {
		t -= f.n
	}
	return graph.NodeID(t)
}

// encode returns the code of an arrow at the node with label l naming
// to, and whether a code names it: to must be that node or one of its
// tree neighbours. The code is picked by arithmetic and checked with one
// compare, named(code) against to's label.
func (f *ShardForest) encode(to graph.NodeID, root, l int) (uint32, bool) {
	lt := int(to) - root
	lt += f.n & (lt >> 63)
	code := uint32(lt - 2*l + 1) // left or right if to is a child; else out of range, and named says so
	if lt < l {
		code = toRoot
	}
	if lt == l {
		code = self
	}
	return code, named(code, l) == lt
}

// notNeighbour is the panic value of a find forwarded from a node that
// is not a tree neighbour of at: no previous hop of the protocol is one.
type notNeighbour struct {
	obj    int32
	at, to graph.NodeID
}

func (e notNeighbour) Error() string {
	return fmt.Sprintf("arrow: object %d's arrow at node %d cannot name node %d: not a neighbour in the object's tree", e.obj, e.at, e.to)
}

// Start is the protocol's first step on v's link cell for one object: the
// request follows the arrow to target and the arrow flips to v itself —
// v is where the next request will find this one. local reports that the
// arrow already pointed at v: v holds the object's tail, the request
// queues behind v's previous one and no message is sent.
//
// Start and Forward are all the arrow protocol there is. Every executor
// calls them — the simulator's through ShardForest (on the decoded copy
// of a 2-bit table cell) and TreeStepper, the live goroutine
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

// StartFind implements shard.Stepper with Start on (obj, v)'s decoded
// arrow.
func (f *ShardForest) StartFind(obj int32, v graph.NodeID) (graph.NodeID, bool) {
	i := int(obj)*f.n + int(v)
	root, l := f.place(obj, v)
	link := f.decode(f.link.Get(i), root, l)
	target, local := Start(&link, v)
	code, ok := f.encode(link, root, l)
	if !ok {
		panic(notNeighbour{obj, v, link})
	}
	f.link.Set(i, code)
	return target, local
}

// ForwardFind implements shard.Stepper with Forward, likewise.
func (f *ShardForest) ForwardFind(obj int32, at, from, origin graph.NodeID) (graph.NodeID, bool) {
	i := int(obj)*f.n + int(at)
	root, l := f.place(obj, at)
	link := f.decode(f.link.Get(i), root, l)
	next, done := Forward(&link, at, from)
	code, ok := f.encode(link, root, l)
	if !ok {
		panic(notNeighbour{obj, at, link})
	}
	f.link.Set(i, code)
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
