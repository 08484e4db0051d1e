// Package queuing defines the distributed-queuing problem objects of the
// paper: requests r = (v, t), request sets R, queuing orders π, and the
// four cost functions the analysis builds on —
//
//	cA(ri, rj) = dT(vi, vj)                      (arrow latency, eq. (1))
//	cT(ri, rj) = per Definition 3.5              (arrow's NN-TSP cost)
//	cM(ri, rj) = dT(vi, vj) + |ti − tj|          (Manhattan metric, Def 3.14)
//	cO(ri, rj) = max{dT(vi, vj), ti − tj}        (optimal bound on T, eq. (3))
//	cOpt(ri, rj) = max{dG(vi, vj), ti − tj}      (optimal bound on G)
//
// Orders always start with the virtual root request r0 = (root, 0).
package queuing

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/sim"
)

// Request is a queuing request (v, t): node v asks to join the total
// order at time t. ID is the request's index in its Set and doubles as
// the protocol-level unique identifier.
type Request struct {
	ID   int
	Node graph.NodeID
	Time sim.Time
}

func (r Request) String() string {
	return fmt.Sprintf("r%d=(v%d,t%d)", r.ID, r.Node, r.Time)
}

// Set is a finite request set R, indexed by non-decreasing time as in the
// paper (ties broken arbitrarily but deterministically). Use NewSet to
// normalize.
type Set []Request

// NewSet sorts requests by (time, node) and assigns IDs 0..len-1. The
// input slice is not modified.
func NewSet(reqs []Request) Set {
	s := append(Set(nil), reqs...)
	sort.SliceStable(s, func(i, j int) bool {
		if s[i].Time != s[j].Time {
			return s[i].Time < s[j].Time
		}
		return s[i].Node < s[j].Node
	})
	for i := range s {
		s[i].ID = i
	}
	return s
}

// Validate checks that the set is normalized (sorted, IDs dense, times
// non-negative, nodes within range).
func (s Set) Validate(numNodes int) error {
	for i, r := range s {
		if r.ID != i {
			return fmt.Errorf("queuing: request %d has ID %d", i, r.ID)
		}
		if r.Time < 0 {
			return fmt.Errorf("queuing: request %d has negative time %d", i, r.Time)
		}
		if int(r.Node) < 0 || int(r.Node) >= numNodes {
			return fmt.Errorf("queuing: request %d at out-of-range node %d", i, r.Node)
		}
		if i > 0 && s[i-1].Time > r.Time {
			return fmt.Errorf("queuing: set not sorted at index %d", i)
		}
	}
	return nil
}

// Nodes returns the distinct nodes issuing requests.
func (s Set) Nodes() []graph.NodeID {
	seen := map[graph.NodeID]bool{}
	var out []graph.NodeID
	for _, r := range s {
		if !seen[r.Node] {
			seen[r.Node] = true
			out = append(out, r.Node)
		}
	}
	return out
}

// DistFunc returns the tree or graph distance between two nodes.
type DistFunc func(u, v graph.NodeID) graph.Weight

// CostFunc is a pairwise ordering cost c(ri, rj): the cost contribution
// of queuing rj immediately after ri. Root is the virtual request
// r0 = (root, 0); implementations must handle it like any request.
type CostFunc func(ri, rj Request) int64

// CT returns Definition 3.5's cost under tree distance d:
//
//	d' := tj − ti + dT(vi, vj); cT = d' if d' >= 0, else ti − tj + dT(vi, vj).
//
// Both branches are non-negative (Fact 3.6). cT is asymmetric.
func CT(d DistFunc) CostFunc {
	return func(ri, rj Request) int64 {
		dt := d(ri.Node, rj.Node)
		v := rj.Time - ri.Time + dt
		if v >= 0 {
			return v
		}
		return ri.Time - rj.Time + dt
	}
}

// CM returns the Manhattan metric of Definition 3.14 under distance d:
// cM = d(vi, vj) + |ti − tj|. It is symmetric and satisfies the triangle
// inequality whenever d does.
func CM(d DistFunc) CostFunc {
	return func(ri, rj Request) int64 {
		dt := rj.Time - ri.Time
		if dt < 0 {
			dt = -dt
		}
		return d(ri.Node, rj.Node) + dt
	}
}

// CO returns eq. (3)'s lower-bound cost under distance d:
// cO(ri, rj) = max{d(vi, vj), ti − tj} — the minimum latency any queuing
// algorithm can achieve when ordering rj immediately after ri.
func CO(d DistFunc) CostFunc {
	return func(ri, rj Request) int64 {
		dt := d(ri.Node, rj.Node)
		if lag := ri.Time - rj.Time; lag > dt {
			return lag
		}
		return dt
	}
}

// CA returns eq. (1)'s arrow latency cost: cA(ri, rj) = dT(vi, vj).
func CA(d DistFunc) CostFunc {
	return func(ri, rj Request) int64 { return d(ri.Node, rj.Node) }
}

// Order is a queuing order π over a Set: a permutation of request IDs.
// Entry 0 names the request queued first (directly behind the virtual
// root request r0); the root itself is implicit.
type Order []int

// ValidOrder reports whether o is a permutation of 0..n-1.
func ValidOrder(o Order, n int) bool {
	if len(o) != n {
		return false
	}
	seen := make([]bool, n)
	for _, id := range o {
		if id < 0 || id >= n || seen[id] {
			return false
		}
		seen[id] = true
	}
	return true
}

// RootRequest returns the virtual request r0 = (root, 0) with ID −1.
func RootRequest(root graph.NodeID) Request {
	return Request{ID: -1, Node: root, Time: 0}
}

// OrderCost sums c over consecutive pairs of the order, starting from the
// virtual root request: Σ c(r_{π(i−1)}, r_{π(i)}) with r_{π(0)} := r0.
func OrderCost(s Set, root graph.NodeID, o Order, c CostFunc) int64 {
	prev := RootRequest(root)
	var total int64
	for _, id := range o {
		total += c(prev, s[id])
		prev = s[id]
	}
	return total
}

// EdgeCosts returns the |R| consecutive-pair costs of the order under c,
// starting from the root request. Useful for inspecting the longest edge
// (Lemma 3.13 checks cT edges <= 3D).
func EdgeCosts(s Set, root graph.NodeID, o Order, c CostFunc) []int64 {
	prev := RootRequest(root)
	out := make([]int64, len(o))
	for i, id := range o {
		out[i] = c(prev, s[id])
		prev = s[id]
	}
	return out
}

// OrderFromPredecessors chains a run's predecessor records into its
// queuing order: preds[i] is the ID of the request queued directly
// before request i, −1 for the virtual root request. Exactly one request
// may follow the root and every other request names a distinct
// predecessor (so the walk from −1 cannot revisit a request); a chain
// that stops short of covering every request is a protocol bug and is
// reported, as is a second successor.
func OrderFromPredecessors(preds []int) (Order, error) {
	succ := make(map[int]int, len(preds))
	for i, p := range preds {
		if _, dup := succ[p]; dup {
			return nil, fmt.Errorf("queuing: two successors recorded for request %d", p)
		}
		succ[p] = i
	}
	order := make(Order, 0, len(preds))
	cur, ok := succ[-1]
	for ok {
		order = append(order, cur)
		cur, ok = succ[cur]
	}
	if len(order) != len(preds) {
		return nil, fmt.Errorf("queuing: predecessor chain from the root covers %d of %d requests", len(order), len(preds))
	}
	return order, nil
}
