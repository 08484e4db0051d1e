package sim

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/tree"
)

// plainNav hides everything but tree.Nav's method set — in particular
// ParentArrays — so TreeTopology.linkTable has to fill its table by
// asking Parent and ParentWeight, as it does for a decorated navigator.
type plainNav struct{ tree.Nav }

// weightedParents is a small irregular tree with distinct edge weights.
func weightedParents() (parent []graph.NodeID, pw []graph.Weight) {
	return []graph.NodeID{2, 2, 2, 2, 3, 3, 5, 0}, []graph.Weight{3, 1, 0, 7, 2, 5, 4, 6}
}

// weightedTree is the weightedParents tree, rooted at 2, as a *tree.Tree.
func weightedTree(t *testing.T) *tree.Tree {
	parent, pw := weightedParents()
	tr, err := tree.FromParents(2, parent, pw)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestTreeLinkTableMatchesInterface pins send's flat link resolution to
// the definition it replaced: for every ordered pair (u, v) of every
// navigator shape, legality, weight and the per-link slot agree with
// TreeTopology.Latency / LinkIndex, an illegal pair — u == v and the
// self-parented root included — panics with the same message, and every
// legal message counts one hop.
func TestTreeLinkTableMatchesInterface(t *testing.T) {
	parent, pw := weightedParents()
	navs := []struct {
		name string
		nav  tree.Nav
	}{
		{"binary", tree.BalancedBinary(15)},
		{"path", tree.PathTree(7)},
		{"star", tree.StarTree(9)},
		{"weighted", weightedTree(t)},
		{"binary-walker", tree.BinaryWalker(15)},
		{"path-walker", tree.PathWalker(7)},
		{"star-walker", tree.StarWalker(9)},
		{"weighted-walker", tree.MustWalkerFromParents(2, parent, pw)},
		{"grid", tree.GridWalker(4, 5)},
		{"no-accessor", plainNav{tree.MustWalkerFromParents(2, parent, pw)}},
		{"no-accessor-unit", plainNav{tree.BinaryWalker(15)}},
	}
	for _, tc := range navs {
		t.Run(tc.name, func(t *testing.T) {
			tt := TreeTopology{T: tc.nav}
			// A capacity clock and (through the non-nil plan) a FIFO clamp, so
			// both per-link tables record which slot send resolved.
			s := New(Config{Topology: tt, LinkTxTime: 1, Faults: &FaultPlan{}})
			if s.treeParent == nil || s.fifo == nil || s.busy == nil {
				t.Fatal("test premise broken: no link table or no per-link clocks")
			}
			n := graph.NodeID(tt.NumNodes())
			legal := int64(0)
			for u := graph.NodeID(0); u < n; u++ {
				for v := graph.NodeID(0); v < n; v++ {
					w, ok := tt.Latency(u, v)
					if !ok {
						want := fmt.Sprintf("sim: illegal send %d -> %d (not connected in topology)", u, v)
						if got := sendPanic(s, u, v); got != want {
							t.Fatalf("send %d -> %d: panic %q, want %q", u, v, got, want)
						}
						continue
					}
					legal++
					// Far enough past every earlier reservation and arrival
					// that this message departs at now.
					s.now += 100
					busy, fifo := append([]Time(nil), s.busy.dense...), append([]Time(nil), s.fifo.dense...)
					s.send(u, v, nil)
					c, slot := s.lq.popCell()
					if c == nil || c.to != v || c.from != u || c.kind() != evMessage {
						t.Fatalf("send %d -> %d queued %+v", u, v, c)
					}
					if got := s.lq.base - s.now; got != w {
						t.Errorf("send %d -> %d took %d ticks, Latency says %d", u, v, got, w)
					}
					link := tt.LinkIndex(u, v)
					busy[link], fifo[link] = s.now+1, s.lq.base
					s.lq.release(slot)
					for i := range busy {
						if s.busy.dense[i] != busy[i] || s.fifo.dense[i] != fifo[i] {
							t.Fatalf("send %d -> %d (LinkIndex %d): slot %d holds busy %d fifo %d, want %d and %d",
								u, v, link, i, s.busy.dense[i], s.fifo.dense[i], busy[i], fifo[i])
						}
					}
				}
			}
			if legal != 2*int64(n-1) {
				t.Errorf("%d legal ordered pairs on a %d-node tree, want %d", legal, n, 2*(n-1))
			}
		})
	}
}

// sendPanic returns the message s.send(u, v) panics with ("" if none).
func sendPanic(s *Simulator, u, v graph.NodeID) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	s.send(u, v, nil)
	return ""
}

// TestTreeLinkTableZeroCopy: the navigators that hold flat arrays lend
// them; the table of a plain Nav is filled, and drops the weight array
// when every edge is a unit edge. A unit-weight Tree lends nil weights
// as its Walker does, so the Tree case is the weighted tree.
func TestTreeLinkTableZeroCopy(t *testing.T) {
	w := tree.BinaryWalker(9)
	wantP, wantW := w.ParentArrays()
	p, pw := TreeTopology{T: w}.linkTable()
	if &p[0] != &wantP[0] || pw != nil || wantW != nil {
		t.Error("Walker's arrays were copied, or a unit Walker reported weights")
	}
	if p, pw = (TreeTopology{T: plainNav{w}}).linkTable(); &p[0] == &wantP[0] || pw != nil || len(p) != 9 {
		t.Errorf("plain Nav: table of %d entries, weights nil=%v; want a fresh 9-entry table without weights", len(p), pw == nil)
	}
	tr := weightedTree(t)
	wantP, wantW = tr.ParentArrays()
	if p, pw = (TreeTopology{T: tr}).linkTable(); &p[0] != &wantP[0] || &pw[0] != &wantW[0] {
		t.Error("Tree's arrays were copied")
	}
}
