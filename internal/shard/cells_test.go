package shard_test

// The pointer steppers store their k×n tables in shard.Cells, one packed
// string of w-bit codes with eight bytes of tail padding: arrow's
// ShardForest at 2 bits (toRoot, self, left, right against the node's
// heap label), NTA's Reversal at bits.Len(n-1) bits (the pointer XOR the
// object's initial holder). Both start from the zeroed table. These
// tests pin the behaviour (every code round-trips at every width, the
// last cell included) and the bytes. Each mutant below, applied in a
// copy of the tree, fails the named test:
//
//	mutant                                      fails
//	Reversal width bits.Len(n), not Len(n-1)    TestCellsBytes/n=1024/k=1024/nta
//	NewCells without the 8 bytes of padding     TestCellsMatchPlainTable, FuzzCells (the word read past the end panics)
//	Set ORs the code in without clearing        TestCellsMatchPlainTable, FuzzCells
//	codes self and toRoot swapped               analysis.TestExperimentsGolden/shard (the forest panics)
//	encode reports every code valid             TestShardForestRejectsNonNeighbour

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/arrow"
	"repro/internal/centralized"
	"repro/internal/graph"
	"repro/internal/nta"
	"repro/internal/shard"
	"repro/internal/sim"
)

// TestNewReversalRejectsBadShape: a root outside [0, n) is a
// *sim.ConfigError naming the field, not a pointer at node -1 (n and k
// are TestShardConstructorsRejectBadShape's).
func TestNewReversalRejectsBadShape(t *testing.T) {
	const n = 4
	for _, root := range []graph.NodeID{-1, n} {
		r, err := shard.NewReversal(n, 1, root)
		var ce *sim.ConfigError
		if !errors.As(err, &ce) || ce.Field != "root" {
			t.Errorf("NewReversal(%d, 1, %d) = %v, %v; want a *sim.ConfigError on \"root\"", n, root, r, err)
		}
	}
	if _, err := shard.NewReversal(n, 1, n-1); err != nil {
		t.Errorf("NewReversal(%d, 1, %d): %v", n, n-1, err)
	}
}

// TestShardConstructorsRejectBadShape: every multi-object stepper
// constructor answers n < 1 or k < 1 with a *sim.ConfigError naming the
// field, not a divide by zero, and accepts the smallest shape, one node
// and one object.
func TestShardConstructorsRejectBadShape(t *testing.T) {
	for _, c := range []struct {
		name string
		make func(n, k int) (shard.Stepper, error)
	}{
		{"arrow", func(n, k int) (shard.Stepper, error) { return arrow.NewShardForest(n, k) }},
		{"centralized", func(n, k int) (shard.Stepper, error) { return centralized.NewShardCenters(n, k) }},
		{"reversal", func(n, k int) (shard.Stepper, error) { return shard.NewReversal(n, k, 0) }},
	} {
		for _, tc := range []struct {
			n, k  int
			field string
		}{{0, 1, "n"}, {-1, 1, "n"}, {1, 0, "k"}, {4, -3, "k"}, {0, 0, "n"}} {
			_, err := c.make(tc.n, tc.k)
			var ce *sim.ConfigError
			if !errors.As(err, &ce) || ce.Field != tc.field {
				t.Errorf("%s(%d, %d): err %v, want a *sim.ConfigError on %q", c.name, tc.n, tc.k, err, tc.field)
			}
		}
		if _, err := c.make(1, 1); err != nil {
			t.Errorf("%s(1, 1): %v", c.name, err)
		}
	}
}

// initialArrow is node v's arrow for object o before any request: its
// parent in the binary heap of labels (v - o) mod n rooted at o mod n,
// or v itself at the root.
func initialArrow(o, v, n int) graph.NodeID {
	root := o % n
	if l := (v - root + n) % n; l > 0 {
		return graph.NodeID(((l-1)/2 + root) % n)
	}
	return graph.NodeID(v)
}

// treeNeighbours lists at's neighbours in object o's tree: the parent,
// then the children that exist.
func treeNeighbours(o, at, n int) []graph.NodeID {
	root := o % n
	l := (at - root + n) % n
	var nb []graph.NodeID
	if l > 0 {
		nb = append(nb, graph.NodeID(((l-1)/2+root)%n))
	}
	for _, c := range []int{2*l + 1, 2*l + 2} {
		if c < n {
			nb = append(nb, graph.NodeID((c+root)%n))
		}
	}
	return nb
}

// TestCellsMatchPlainTable drives random StartFind/ForwardFind scripts
// through both table steppers at 1, 2, 16 and 17 bits a Reversal cell,
// against the same steps on a plain []graph.NodeID. Node draws favour
// the extremes, so chases end at node n-1 and pointers name it. A
// forwarded find comes from a neighbour of at in the object's tree: the
// only previous hop arrow produces, and all a 2-bit code can name.
func TestCellsMatchPlainTable(t *testing.T) {
	const k, steps = 3, 4000
	for _, n := range []int{2, 3, 1 << 16, 1<<16 + 1} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			forest, err := arrow.NewShardForest(n, k)
			if err != nil {
				t.Fatal(err)
			}
			rev, err := nta.NewShardReversal(n, k)
			if err != nil {
				t.Fatal(err)
			}
			arrows := make([]graph.NodeID, k*n)
			for i := range arrows {
				arrows[i] = initialArrow(i/n, i%n, n)
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
					at, origin := node(), node()
					nb := treeNeighbours(int(obj), int(at), n)
					from := nb[rng.Intn(len(nb))]
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
				// Every cell the run left matches, the last one too:
				// StartFind reads the cell before it overwrites it.
				for i, want := range c.model {
					if got, _ := c.step.StartFind(int32(i/n), graph.NodeID(i%n)); got != want {
						t.Fatalf("%s: cell (%d, %d) = %d, want %d", c.name, i/n, i%n, got, want)
					}
				}
			}
		})
	}
}

// TestShardForestRejectsNonNeighbour: a forwarded find from a node that
// is not a tree neighbour of at is no reachable arrow state and no 2-bit
// code names it, so ForwardFind panics naming obj, at and from rather
// than store a wrong arrow.
func TestShardForestRejectsNonNeighbour(t *testing.T) {
	const n, k = 16, 3
	f, err := arrow.NewShardForest(n, k)
	if err != nil {
		t.Fatal(err)
	}
	// Object 2 roots at node 2: node 9 is label 7, whose neighbours are
	// label 3 (node 5) and label 15 (node 1); node 13 is label 11.
	const obj, at, from = 2, 9, 13
	for _, nb := range treeNeighbours(obj, at, n) {
		if nb == from {
			t.Fatalf("node %d is a neighbour of %d in object %d's tree", from, at, obj)
		}
	}
	defer func() {
		msg := fmt.Sprint(recover())
		for _, want := range []string{"object 2", "node 9", "node 13"} {
			if !strings.Contains(msg, want) {
				t.Fatalf("ForwardFind(%d, %d, %d) panicked with %q, want a message naming %q", obj, at, from, msg, want)
			}
		}
	}()
	f.ForwardFind(obj, at, from, from)
}

// TestCellsBytes pins the table bytes the two multi-object steppers
// allocate: ⌈w·k·n/8⌉ + 8, with w = 2 for arrow and bits.Len(n-1) for
// NTA (10, 16 and 17 bits at the three sizes). A large table is rounded
// up to whole 8 KiB pages and the stepper's own object takes at most 64
// bytes, so the count lies between the table and the table plus that.
// The smallest of three readings keeps a background allocation out of
// the count.
func TestCellsBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("-race builds count allocation bytes differently")
	}
	for _, tc := range []struct{ n, k int }{
		{1024, 1024},
		{1 << 16, 1},
		{1<<16 + 1, 1},
	} {
		for _, c := range []struct {
			name string
			bits int
			make func() (shard.Stepper, error)
		}{
			{"arrow", 2, func() (shard.Stepper, error) { return arrow.NewShardForest(tc.n, tc.k) }},
			{"nta", bits.Len(uint(tc.n - 1)), func() (shard.Stepper, error) { return nta.NewShardReversal(tc.n, tc.k) }},
		} {
			t.Run(fmt.Sprintf("n=%d/k=%d/%s", tc.n, tc.k, c.name), func(t *testing.T) {
				table := uint64((c.bits*tc.k*tc.n+7)/8 + 8)
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
				if best < table || best > table+8<<10+64 {
					t.Errorf("allocated %d bytes, want %d to %d (%d-bit cells, one 8 KiB page, 64-byte header)", best, table, table+8<<10+64, c.bits)
				}
			})
		}
	}
}

// FuzzCells runs a byte script two ways. Byte 0 picks n: 2^e - 1, 2^e,
// 2^e + 1 or 2^e + 2 for e < 32, capped at the largest NodeID. Bytes 1-2
// pick a table size up to 4 096 cells, byte 3 the forest's object count.
// The remaining bytes are operations:
//
//   - on Cells of bits.Len(n-1) bits against a plain []graph.NodeID: Set
//     or Get of the last cell, cell 0 or a drawn one, with node 0, n-1 or
//     a drawn node; the run ends by setting the last cell (the padding
//     case) and comparing every cell;
//   - on arrow.ShardForest over min(n, 65 537) nodes against a plain
//     arrow table: StartFind, or ForwardFind from a tree neighbour of at
//     (the only hops arrow makes), at node 0, n-1 or a drawn node; the
//     run ends by reading back every touched cell and the last one.
func FuzzCells(f *testing.F) {
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) < 4 {
			return
		}
		e := int(script[0]>>2) % 32
		n := int(min(max(1, int64(1)<<e+int64(script[0]&3)-1), math.MaxInt32))
		size := 1 + int(binary.LittleEndian.Uint16(script[1:3]))%4096
		k := 1 + int(script[3])%4
		fuzzCells(t, n, size, &byteReader{b: script[4:]})
		fuzzForest(t, min(n, 1<<16+1), k, &byteReader{b: script[4:]})
	})
}

// byteReader hands out a script's bytes, then zeros.
type byteReader struct{ b []byte }

func (r *byteReader) more() bool { return len(r.b) > 0 }

func (r *byteReader) next() byte {
	if len(r.b) == 0 {
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

// draw returns a value below bound from the next four bytes.
func (r *byteReader) draw(bound int) int {
	return int((uint32(r.next()) | uint32(r.next())<<8 | uint32(r.next())<<16 | uint32(r.next())<<24) % uint32(bound))
}

// pick returns 0, bound-1 or a drawn value below bound, by sel's low bits.
func (r *byteReader) pick(sel byte, bound int) int {
	switch sel & 3 {
	case 0:
		return 0
	case 1:
		return bound - 1
	}
	return r.draw(bound)
}

func fuzzCells(t *testing.T, n, size int, r *byteReader) {
	w := bits.Len(uint(n - 1))
	c := shard.NewCells(w, size)
	model := make([]graph.NodeID, size)
	for r.more() {
		op := r.next()
		i := r.pick(op, size)
		if op&4 != 0 {
			v := graph.NodeID(r.pick(op>>3, n))
			c.Set(i, uint32(v))
			model[i] = v
			continue
		}
		if got := graph.NodeID(c.Get(i)); got != model[i] {
			t.Fatalf("n=%d (%d bits), size %d: Get(%d) = %d, want %d", n, w, size, i, got, model[i])
		}
	}
	c.Set(size-1, uint32(n-1))
	model[size-1] = graph.NodeID(n - 1)
	for i, want := range model {
		if got := graph.NodeID(c.Get(i)); got != want {
			t.Fatalf("n=%d (%d bits), size %d: cell %d = %d, want %d", n, w, size, i, got, want)
		}
	}
}

func fuzzForest(t *testing.T, n, k int, r *byteReader) {
	f, err := arrow.NewShardForest(n, k)
	if err != nil {
		t.Fatal(err)
	}
	model := map[int]graph.NodeID{}
	arrowOf := func(i int) graph.NodeID {
		if a, ok := model[i]; ok {
			return a
		}
		return initialArrow(i/n, i%n, n)
	}
	for r.more() {
		op := r.next()
		obj := int(op>>5) % k
		at := r.pick(op, n)
		i := obj*n + at
		want := arrowOf(i)
		if op&4 != 0 {
			model[i] = graph.NodeID(at)
			if got, local := f.StartFind(int32(obj), graph.NodeID(at)); got != want || local != (want == graph.NodeID(at)) {
				t.Fatalf("n=%d k=%d: StartFind(%d, %d) = %d, %v; want %d", n, k, obj, at, got, local, want)
			}
			continue
		}
		nb := treeNeighbours(obj, at, n)
		if len(nb) == 0 {
			continue
		}
		from := nb[int(op>>3&3)%len(nb)]
		model[i] = from
		got, done := f.ForwardFind(int32(obj), graph.NodeID(at), from, from)
		if done != (want == graph.NodeID(at)) || (!done && got != want) {
			t.Fatalf("n=%d k=%d: ForwardFind(%d, %d, %d) = %d, %v; want %d", n, k, obj, at, from, got, done, want)
		}
	}
	last := k*n - 1
	model[last] = arrowOf(last)
	for i, want := range model {
		if got, _ := f.StartFind(int32(i/n), graph.NodeID(i%n)); got != want {
			t.Fatalf("n=%d k=%d: cell (%d, %d) = %d, want %d", n, k, i/n, i%n, got, want)
		}
	}
}
