// Package ivy implements the Li–Hudak dynamic distributed-object manager
// ("Ivy") find protocol referenced in the paper's related work: each node
// keeps a probable-owner pointer; a find request follows the pointer chain
// to the current owner, and path shortening then redirects every visited
// pointer straight at the requesting node. Ginat, Sleator and Tarjan
// proved the amortized pointer-chain cost per request is Θ(log n); the
// package exposes per-request chain lengths so tests and benches can check
// that bound. Like NTA (and unlike arrow), Ivy needs a completely
// connected network.
//
// Directory is the sequential pointer-combinatorics model (Find /
// FindChain replay a whole chain atomically). For a find, Ivy's path
// shortening makes NTA's pointer update, so the simulator runs one
// path-reversal stepper for both (shard.Reversal, see package nta), and
// Directory is the oracle that stepper's chains are held against.
package ivy

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/nta"
)

// NewShardDirectory is nta.NewShardReversal. It exists only because
// bench/ calls it; ROADMAP item 1 deletes it.
func NewShardDirectory(n, k int) (*nta.ShardReversal, error) { return nta.NewShardReversal(n, k) }

// Directory is a sequential model of the Ivy ownership directory: it
// captures exactly the pointer-chain combinatorics that the amortized
// analysis is about, with requests processed one at a time (the protocol
// serializes finds at the owner in any case).
type Directory struct {
	owner    []graph.NodeID // probable-owner pointers
	trueOwn  graph.NodeID   // current actual owner
	requests int64
	chainSum int64
	chainMax int
}

// NewDirectory returns a directory over n nodes, initially owned by root;
// every probable-owner pointer starts at root.
func NewDirectory(n int, root graph.NodeID) *Directory {
	if int(root) < 0 || int(root) >= n {
		panic(fmt.Sprintf("ivy: root %d out of range", root))
	}
	d := &Directory{owner: make([]graph.NodeID, n), trueOwn: root}
	for i := range d.owner {
		d.owner[i] = root
	}
	return d
}

// Find transfers ownership to v, following the probable-owner chain from
// v and applying full path shortening: every node on the chain (including
// the previous owner) afterwards points directly at v. It returns the
// chain length (number of forwarding messages).
func (d *Directory) Find(v graph.NodeID) int {
	if d.owner[v] == v {
		// Local hit: no chain to record, and no allocation.
		d.trueOwn = v
		d.record(0)
		return 0
	}
	chain := d.FindChain(v)
	return len(chain) - 1
}

// record accounts one served find of the given chain length.
func (d *Directory) record(hops int) {
	d.requests++
	d.chainSum += int64(hops)
	if hops > d.chainMax {
		d.chainMax = hops
	}
}

// FindChain is Find exposing the visited pointer chain: the returned
// slice lists the nodes the request traversed, starting at v and ending
// at the previous owner, so callers can charge network distances per
// forwarding message (chain[i] -> chain[i+1]). Its length is the chain
// length plus one; a local hit returns just [v].
func (d *Directory) FindChain(v graph.NodeID) []graph.NodeID {
	chain := []graph.NodeID{v}
	cur := v
	for d.owner[cur] != cur {
		next := d.owner[cur]
		cur = next
		chain = append(chain, cur)
		if len(chain) > len(d.owner)+1 {
			panic("ivy: probable-owner cycle")
		}
	}
	// cur is the actual owner (owner[cur] == cur); redirect every visited
	// pointer (and the owner) straight at the requester.
	for _, x := range chain {
		d.owner[x] = v
	}
	d.owner[v] = v
	d.trueOwn = v
	d.record(len(chain) - 1)
	return chain
}

// Owner returns the current actual owner.
func (d *Directory) Owner() graph.NodeID { return d.trueOwn }

// ProbableOwner returns v's current pointer (for invariant checks).
func (d *Directory) ProbableOwner(v graph.NodeID) graph.NodeID { return d.owner[v] }

// Requests returns the number of finds served.
func (d *Directory) Requests() int64 { return d.requests }

// AmortizedChain returns total chain length divided by request count —
// the quantity Ginat et al. bound by Θ(log n).
func (d *Directory) AmortizedChain() float64 {
	if d.requests == 0 {
		return 0
	}
	return float64(d.chainSum) / float64(d.requests)
}

// MaxChain returns the worst single-request chain length observed.
func (d *Directory) MaxChain() int { return d.chainMax }
