package shard_test

// The pointer steppers store their k×n tables in shard.Cells, two bytes
// a cell up to 65 536 nodes and four beyond. These tests pin both the
// behaviour (every ID round-trips at either width) and the bytes. Each
// mutant below, applied to Cells (reversal.go) in a copy of the tree,
// fails them:
//
//	mutant                                  fails
//	threshold n < 1<<16 (65 536 goes wide)  TestCellsBytes/n=65536
//	threshold n <= 1<<17 (65 537 narrow)    TestCellsMatchPlainTable/n=65537
//	Set stores uint16(uint8(v))             TestCellsMatchPlainTable/n=65536

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/arrow"
	"repro/internal/graph"
	"repro/internal/nta"
	"repro/internal/shard"
	"repro/internal/sim"
)

// TestNewReversalRejectsBadShape: a table shape that cannot hold a
// pointer set is a *sim.ConfigError naming the field, not a divide by
// zero or a pointer at node -1.
func TestNewReversalRejectsBadShape(t *testing.T) {
	const n = 4
	for _, tc := range []struct {
		n, k  int
		root  graph.NodeID
		field string
	}{
		{n: 0, k: 1, root: 0, field: "n"},
		{n: n, k: 0, root: 0, field: "k"},
		{n: n, k: 1, root: -1, field: "root"},
		{n: n, k: 1, root: n, field: "root"},
	} {
		r, err := shard.NewReversal(tc.n, tc.k, tc.root)
		var ce *sim.ConfigError
		if !errors.As(err, &ce) || ce.Field != tc.field {
			t.Errorf("NewReversal(%d, %d, %d) = %v, %v; want a *sim.ConfigError on %q", tc.n, tc.k, tc.root, r, err, tc.field)
		}
	}
	if _, err := shard.NewReversal(n, 1, n-1); err != nil {
		t.Errorf("NewReversal(%d, 1, %d): %v", n, n-1, err)
	}
}

// TestCellsMatchPlainTable drives random StartFind/ForwardFind scripts
// through both table steppers at the narrow limit and either side of it,
// against the same steps on a plain []graph.NodeID. Node draws favour
// the extremes, so chases end at node n-1 and pointers name it.
func TestCellsMatchPlainTable(t *testing.T) {
	const k, steps = 3, 4000
	for _, n := range []int{2, 1 << 16, 1<<16 + 1} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			forest, err := arrow.NewShardForest(n, k)
			if err != nil {
				t.Fatal(err)
			}
			rev, err := nta.NewShardReversal(n, k)
			if err != nil {
				t.Fatal(err)
			}
			// The initial arrows of object o's tree: a binary heap of
			// labels (v - o) mod n rooted at o mod n.
			arrows := make([]graph.NodeID, k*n)
			for o := 0; o < k; o++ {
				root := o % n
				for v := 0; v < n; v++ {
					l := (v - root + n) % n
					p := v
					if l > 0 {
						p = ((l-1)/2 + root) % n
					}
					arrows[o*n+v] = graph.NodeID(p)
				}
			}
			// Object o's last pointers all start at o mod n.
			lasts := make([]graph.NodeID, k*n)
			for i := range lasts {
				lasts[i] = graph.NodeID(i / n % n)
			}
			for _, c := range []struct {
				name  string
				step  shard.Stepper
				model []graph.NodeID
				// back is the node a forwarded find turns the pointer to.
				back func(from, origin graph.NodeID) graph.NodeID
			}{
				{"arrow", forest, arrows, func(from, _ graph.NodeID) graph.NodeID { return from }},
				{"nta", rev, lasts, func(_, origin graph.NodeID) graph.NodeID { return origin }},
			} {
				rng := rand.New(rand.NewSource(int64(n)))
				node := func() graph.NodeID {
					if rng.Intn(2) == 0 {
						return graph.NodeID([]int{0, 1, n - 2, n - 1}[rng.Intn(4)] % n)
					}
					return graph.NodeID(rng.Intn(n))
				}
				endsAtLast := 0
				for s := 0; s < steps; s++ {
					obj := int32(rng.Intn(k))
					if rng.Intn(2) == 0 {
						v := node()
						cell := &c.model[int(obj)*n+int(v)]
						want := *cell
						*cell = v
						if got, local := c.step.StartFind(obj, v); got != want || local != (want == v) {
							t.Fatalf("%s step %d: StartFind(%d, %d) = %d, %v; want %d, %v", c.name, s, obj, v, got, local, want, want == v)
						}
						continue
					}
					at, from, origin := node(), node(), node()
					cell := &c.model[int(obj)*n+int(at)]
					next := *cell
					*cell = c.back(from, origin)
					got, done := c.step.ForwardFind(obj, at, from, origin)
					if done != (next == at) || (!done && got != next) {
						t.Fatalf("%s step %d: ForwardFind(%d, %d, %d, %d) = %d, %v; want %d, %v", c.name, s, obj, at, from, origin, got, done, next, next == at)
					}
					if done && int(at) == n-1 {
						endsAtLast++
					}
				}
				if endsAtLast == 0 {
					t.Fatalf("%s: no chase ended at node %d", c.name, n-1)
				}
				// Every cell the run left matches: StartFind reads the
				// cell before it overwrites it.
				for i, want := range c.model {
					if got, _ := c.step.StartFind(int32(i/n), graph.NodeID(i%n)); got != want {
						t.Fatalf("%s: cell (%d, %d) = %d, want %d", c.name, i/n, i%n, got, want)
					}
				}
			}
		})
	}
}

// TestCellsBytes pins the table bytes the two multi-object steppers
// allocate: 2·k·n up to 65 536 nodes and 4·k·n beyond, plus one 8 KiB
// page (a large table is rounded up to whole pages) and the stepper's
// own 64-byte object. The smallest of three readings keeps a background
// allocation out of the count.
func TestCellsBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("-race builds count allocation bytes differently")
	}
	for _, tc := range []struct{ n, k, cell int }{
		{1024, 1024, 2},
		{1 << 16, 1, 2},
		{1<<16 + 1, 1, 4},
	} {
		limit := uint64(tc.cell*tc.k*tc.n + 8<<10 + 64)
		for _, c := range []struct {
			name string
			make func() (shard.Stepper, error)
		}{
			{"arrow", func() (shard.Stepper, error) { return arrow.NewShardForest(tc.n, tc.k) }},
			{"nta", func() (shard.Stepper, error) { return nta.NewShardReversal(tc.n, tc.k) }},
		} {
			t.Run(fmt.Sprintf("n=%d/k=%d/%s", tc.n, tc.k, c.name), func(t *testing.T) {
				best := uint64(math.MaxUint64)
				for i := 0; i < 3; i++ {
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					step, err := c.make()
					runtime.ReadMemStats(&after)
					if err != nil {
						t.Fatal(err)
					}
					runtime.KeepAlive(step)
					best = min(best, after.TotalAlloc-before.TotalAlloc)
				}
				if best > limit {
					t.Errorf("allocated %d bytes, want at most %d (%d-byte cells, one 8 KiB page, 64-byte header)", best, limit, tc.cell)
				}
			})
		}
	}
}
