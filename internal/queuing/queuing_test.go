package queuing

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/tree"
)

func lineDist(u, v graph.NodeID) graph.Weight {
	d := int64(u) - int64(v)
	if d < 0 {
		d = -d
	}
	return d
}

func TestNewSetSortsAndIndexes(t *testing.T) {
	set := NewSet([]Request{
		{Node: 3, Time: 10},
		{Node: 1, Time: 0},
		{Node: 2, Time: 10},
		{Node: 0, Time: 5},
	})
	wantNodes := []graph.NodeID{1, 0, 2, 3}
	for i, r := range set {
		if r.ID != i {
			t.Errorf("request %d has ID %d", i, r.ID)
		}
		if r.Node != wantNodes[i] {
			t.Errorf("position %d: node %d, want %d", i, r.Node, wantNodes[i])
		}
	}
	if err := set.Validate(4); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	good := NewSet([]Request{{Node: 0, Time: 0}, {Node: 1, Time: 2}})
	cases := []struct {
		name string
		set  Set
		n    int
	}{
		{"bad-id", Set{{ID: 5, Node: 0, Time: 0}}, 3},
		{"negative-time", Set{{ID: 0, Node: 0, Time: -1}}, 3},
		{"node-range", Set{{ID: 0, Node: 9, Time: 0}}, 3},
		{"unsorted", Set{{ID: 0, Node: 0, Time: 5}, {ID: 1, Node: 0, Time: 1}}, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.set.Validate(tc.n) == nil {
				t.Error("expected validation error")
			}
		})
	}
	if err := good.Validate(2); err != nil {
		t.Errorf("good set rejected: %v", err)
	}
}

func TestMaxTimeAndNodes(t *testing.T) {
	set := NewSet([]Request{{Node: 2, Time: 3}, {Node: 2, Time: 9}, {Node: 0, Time: 1}})
	// A set is sorted by time: its last request carries the largest.
	if last := set[len(set)-1].Time; last != 9 {
		t.Errorf("last request at %d, want the largest time 9", last)
	}
	if nodes := set.Nodes(); len(nodes) != 2 {
		t.Errorf("Nodes = %v, want 2 distinct", nodes)
	}
}

func TestCTDefinition(t *testing.T) {
	ct := CT(lineDist)
	ri := Request{Node: 2, Time: 5}
	rj := Request{Node: 6, Time: 7}
	// d' = (7-5) + 4 = 6 >= 0.
	if c := ct(ri, rj); c != 6 {
		t.Errorf("cT = %d, want 6", c)
	}
	// Reverse: d' = (5-7) + 4 = 2 >= 0.
	if c := ct(rj, ri); c != 2 {
		t.Errorf("cT reversed = %d, want 2", c)
	}
	// d' < 0 branch: ti - tj + dT.
	early := Request{Node: 0, Time: 0}
	late := Request{Node: 1, Time: 10}
	// d' = (0-10)+1 = -9 < 0 => cT = 10-0+1 = 11.
	if c := ct(late, early); c != 11 {
		t.Errorf("cT negative branch = %d, want 11", c)
	}
}

func TestCMCOCA(t *testing.T) {
	cm := CM(lineDist)
	co := CO(lineDist)
	ca := CA(lineDist)
	a := Request{Node: 1, Time: 4}
	b := Request{Node: 5, Time: 2}
	if c := cm(a, b); c != 6 {
		t.Errorf("cM = %d, want 4+2=6", c)
	}
	if c := co(a, b); c != 4 {
		t.Errorf("cO = %d, want max(4, 4-2)=4", c)
	}
	if c := co(Request{Node: 1, Time: 9}, Request{Node: 2, Time: 1}); c != 8 {
		t.Errorf("cO time-dominated = %d, want 8", c)
	}
	if c := ca(a, b); c != 4 {
		t.Errorf("cA = %d, want 4", c)
	}
}

func TestOrderCostAndEdgeCosts(t *testing.T) {
	set := NewSet([]Request{
		{Node: 2, Time: 0},
		{Node: 5, Time: 0},
	})
	order := Order{0, 1}
	cost := OrderCost(set, 0, order, CA(lineDist))
	if cost != 2+3 {
		t.Errorf("order cost = %d, want 5", cost)
	}
	edges := EdgeCosts(set, 0, order, CA(lineDist))
	if len(edges) != 2 || edges[0] != 2 || edges[1] != 3 {
		t.Errorf("edge costs = %v, want [2 3]", edges)
	}
}

func TestValidOrder(t *testing.T) {
	if !ValidOrder(Order{2, 0, 1}, 3) {
		t.Error("valid permutation rejected")
	}
	for _, bad := range []Order{{0, 0, 1}, {0, 1}, {0, 1, 5}, {-1, 0, 1}} {
		if ValidOrder(bad, 3) {
			t.Errorf("invalid order %v accepted", bad)
		}
	}
}

func TestRootRequest(t *testing.T) {
	r := RootRequest(7)
	if r.ID != -1 || r.Node != 7 || r.Time != 0 {
		t.Errorf("root request = %+v", r)
	}
}

// Property: Fact 3.6 — cT is non-negative for all request pairs.
func TestCTNonNegative(t *testing.T) {
	prop := func(n1, n2 uint8, t1, t2 uint16) bool {
		ct := CT(lineDist)
		a := Request{Node: graph.NodeID(n1), Time: int64(t1)}
		b := Request{Node: graph.NodeID(n2), Time: int64(t2)}
		return ct(a, b) >= 0 && ct(b, a) >= 0
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// Property: cT <= cM (used in the proof of Theorem 3.19).
func TestCTBelowManhattan(t *testing.T) {
	prop := func(n1, n2 uint8, t1, t2 uint16) bool {
		ct := CT(lineDist)
		cm := CM(lineDist)
		a := Request{Node: graph.NodeID(n1), Time: int64(t1)}
		b := Request{Node: graph.NodeID(n2), Time: int64(t2)}
		return ct(a, b) <= cm(a, b)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// Property: cO <= cM <= 2·cO pointwise (eq. (8) gives cM <= 2·cO via
// max(a,b) >= (a+b)/2).
func TestCOManhattanSandwich(t *testing.T) {
	prop := func(n1, n2 uint8, t1, t2 uint16) bool {
		co := CO(lineDist)
		cm := CM(lineDist)
		a := Request{Node: graph.NodeID(n1), Time: int64(t1)}
		b := Request{Node: graph.NodeID(n2), Time: int64(t2)}
		x, y := co(a, b), cm(a, b)
		// cO uses ti - tj (not absolute), so only the forward direction
		// is sandwiched when tj >= ti; check the max-form inequality:
		// cM(a,b) <= cO(a,b) + cO(b,a) always, and cO <= cM.
		return x <= y && y <= co(a, b)+co(b, a)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// Property: cM is a metric over requests (symmetry + triangle) when the
// node distance is a metric.
func TestManhattanIsMetric(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr := tree.BalancedBinary(31)
	cm := CM(func(u, v graph.NodeID) graph.Weight { return tr.Dist(u, v) })
	reqs := make([]Request, 40)
	for i := range reqs {
		reqs[i] = Request{Node: graph.NodeID(rng.Intn(31)), Time: int64(rng.Intn(100))}
	}
	for _, a := range reqs {
		for _, b := range reqs {
			if cm(a, b) != cm(b, a) {
				t.Fatalf("cM asymmetric for %v,%v", a, b)
			}
			for _, c := range reqs {
				if cm(a, b) > cm(a, c)+cm(c, b) {
					t.Fatalf("cM triangle violated for %v,%v,%v", a, b, c)
				}
			}
		}
	}
}

// Property: NewSet output always validates.
func TestNewSetAlwaysValid(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := rng.Intn(30)
		reqs := make([]Request, k)
		for i := range reqs {
			reqs[i] = Request{
				ID:   rng.Intn(100), // garbage IDs must be overwritten
				Node: graph.NodeID(rng.Intn(16)),
				Time: int64(rng.Intn(50)),
			}
		}
		return NewSet(reqs).Validate(16) == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestOrderFromPredecessors: the predecessor records of any permutation
// chain back into that permutation; two successors of one request, a
// cycle and a chain with no request behind the root are errors.
func TestOrderFromPredecessors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 40; k++ {
		want := Order(rng.Perm(k))
		preds := make([]int, k)
		prev := -1
		for _, id := range want {
			preds[id] = prev
			prev = id
		}
		got, err := OrderFromPredecessors(preds)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if !reflect.DeepEqual(got, want) && k > 0 {
			t.Fatalf("k=%d: order %v, want %v", k, got, want)
		}
	}
	for name, preds := range map[string][]int{
		"two successors": {-1, 0, 0},
		"cycle":          {-1, 2, 1},
		"missing root":   {1, 0},
		"never queued":   {-1, -2},
	} {
		if order, err := OrderFromPredecessors(preds); err == nil {
			t.Errorf("%s %v: accepted as order %v", name, preds, order)
		}
	}
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
