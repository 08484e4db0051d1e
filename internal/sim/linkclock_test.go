// Tests of linkClock's two representations. The expiring one (outboxes
// and table) is checked against the dense slice as its oracle: single
// probe windows (TestLinkTableWindow), one sending node's outbox
// (TestLinkOutbox), byte-scripted clamp / reservation / clock-advance
// sequences (FuzzLinkClockMatchesDense and its committed corpus) and
// whole simulations (TestLinkClockRepresentationsAgree).
//
// Mutation table — each edit to sim.go was applied by hand and the suite
// run; the tests named are the ones that failed (TestLinkStats is in
// internal/shard):
//
//	claim an entry one tick early     TestLinkTableWindow, the fuzz corpus
//	(slot: e.val <= now+1)            (seed-claim-edge), TestLinkStats
//	skip the buddy line on lookup     TestLinkTableWindow, the fuzz corpus
//	(slot: e.key == key && i < linkLine)
//	drop live entries in grow         TestLinkTableWindow, the fuzz corpus
//	(grow: e.val > now+1)             (seed-grow-edge), TestLinkStats
//	pass depart, not s.now, as now    TestLinkClockRepresentationsAgree
//	(send: either advance call)       (the fault-queue leg only)
//	skip the spill check              TestLinkOutbox, the fuzz corpus,
//	(advance: free >= 0 alone)        TestLinkClockRepresentationsAgree,
//	                                  TestLinkStats
//	claim a way one tick early        as the spill check
//	(advance: o.at[i] > now+1)
//	never raise spill                 as the spill check
//	(advance: no o.spill store)
package sim

import (
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/stats"
	"repro/internal/tree"
)

// tokenResult is everything a link-clock representation could perturb:
// makespan, counters, the recorded distributions and the exact sequence
// of RecordRequest calls.
type tokenResult struct {
	mk                Time
	delivered, events int64
	deferred          int64
	latDist, hopDist  stats.Dist
	calls             []recCall
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

// noIdxTopo hides a topology's LinkIndexer; the link clocks then have no
// slot to index by and use the table.
type noIdxTopo struct{ Topology }

// sparseTopo reports a link space quadratic in the node count, as the
// complete metric does, so the link clocks use the table (LinkIndex itself
// is the tree's, and is never asked).
type sparseTopo struct{ TreeTopology }

func (t sparseTopo) NumLinks() int { return t.NumNodes() * t.NumNodes() }

type find struct {
	origin graph.NodeID
	up     bool
}

// tokenRun drives a self-contained token-bouncing protocol over topo —
// every node fires a timer, sends a token to the root, the root bounces
// it back, the origin records the round trip and re-issues after a think
// time that is a pure function of (node, round), so the jitter cannot
// depend on the event order under test.
func tokenRun(nav *tree.Walker, topo Topology, rounds int, lat LatencyModel, tx Time, faults *FaultPlan) (tokenResult, LinkStats) {
	n := nav.NumNodes()
	rec := &seqRecorder{dist: stats.NewDistRecorder()}
	s := New(Config{Topology: topo, Latency: lat, Seed: 7, LinkTxTime: tx, Faults: faults})
	issue := make([]Time, n)
	left := make([]int, n)
	for i := range left {
		left[i] = rounds
	}
	s.SetTimerHandler(func(ctx *Context, v graph.NodeID) {
		issue[v] = ctx.Now()
		ctx.Send(v, nav.Parent(v), find{origin: v, up: true})
	})
	var delivered int64
	s.SetAllHandlers(func(ctx *Context, at, from graph.NodeID, msg Message) {
		delivered++
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
		rec.RecordRequest(int64(ctx.Now()-issue[at]), int(nav.Depth(at))*2)
		left[at]--
		if left[at] > 0 {
			ctx.AfterNode(1+Time(uint64(DeriveSeed(int64(at), left[at]))%3), at)
		}
	})
	for v := 1; v < n; v++ {
		s.ScheduleNodeAt(Time(1+v%3), graph.NodeID(v))
	}
	mk := s.Run()
	return tokenResult{mk, delivered, s.EventsProcessed(), s.MessagesDeferred(),
		rec.dist.Latency.Snapshot(), rec.dist.Hops.Snapshot(), rec.calls}, s.LinkStats()
}

// TestLinkClockRepresentationsAgree is the cross-representation
// identity: with a random latency model (so the FIFO clamp binds) and
// finite link capacity (so the busy clock binds), the token protocol
// produces one result, and the clocks bind as often, whether the
// per-link clocks live in a dense slice or in the expiring outboxes and
// table. On the 300-node binary tree the dense slice sits behind the flat
// tree link table and the expiring clocks are reached both through an n²
// link space and through a topology with no LinkIndexer; no node there
// has more than three links, so every lookup stays in its outbox. On the
// 64-node two-level tree whose root has twelve children, each relaying
// four or five tokens, the root answers dozens of tokens at once over
// twelve links: the tree's dense slice is the reference, and the 64-node
// complete metric — an n² link space, expiring whether it is reached
// through its LinkIndexer or not — carries the same tokens over the same
// links, its root's lookups spilling to the table. The faulted leg stalls messages behind link
// outages under FaultQueue, so advance is asked with depart = healAt >
// now while the entries around it expire against now.
func TestLinkClockRepresentationsAgree(t *testing.T) {
	wideParent := make([]graph.NodeID, 64)
	for v := 13; v < len(wideParent); v++ {
		wideParent[v] = graph.NodeID(1 + v%12)
	}
	binary, wide := tree.BinaryWalker(300), tree.MustWalkerFromParents(0, wideParent, nil)
	tt, complete := TreeTopology{T: binary}, NewCompleteTopology(64)
	wideTree := TreeTopology{T: wide}
	isDense := func(c *linkClock) bool { return c.dense != nil && c.tab == nil && c.out == nil }
	isTable := func(c *linkClock) bool { return c.dense == nil && c.tab != nil && c.out != nil }
	type rep struct {
		name  string
		topo  Topology
		check func(c *linkClock) bool
	}
	shapes := []struct {
		name   string
		nav    *tree.Walker
		reps   []rep
		spills bool // whether the expiring clocks must reach the table
	}{
		{"binary-300", binary, []rep{
			{"dense", tt, isDense},
			{"table-sparse", sparseTopo{tt}, isTable},
			{"table-noindex", noIdxTopo{tt}, isTable},
		}, false},
		{"complete-64-wide", wide, []rep{
			{"dense", wideTree, isDense},
			{"table-complete", complete, isTable},
			{"table-noindex", noIdxTopo{complete}, isTable},
		}, true},
	}
	for _, sh := range shapes {
		nav := sh.nav
		// Every other node loses its parent link once, for 30 to 79 ticks,
		// while the links into the root are queued hundreds of ticks deep:
		// a stalled message's healAt lies beyond most live entries of its
		// window.
		outages := &FaultPlan{Policy: FaultQueue}
		for v := graph.NodeID(1); int(v) < nav.NumNodes(); v += 2 {
			down := Time(2 + v%40)
			outages.Events = append(outages.Events,
				FaultEvent{At: down, Kind: LinkDown, U: v, V: nav.Parent(v)},
				FaultEvent{At: down + Time(30+v%50), Kind: LinkUp, U: nav.Parent(v), V: v})
		}
		for _, leg := range []struct {
			name   string
			faults *FaultPlan
		}{{"fault-free", nil}, {"fault-queue", outages}} {
			name := sh.name + "/" + leg.name
			var want tokenResult
			var wantStats LinkStats
			for i, rep := range sh.reps {
				probe := New(Config{Topology: rep.topo, Latency: AsyncUniform(4), LinkTxTime: 1, Faults: leg.faults})
				if !rep.check(probe.fifo) || !rep.check(probe.busy) {
					t.Fatalf("%s: the wrapper did not select that representation", rep.name)
				}
				got, st := tokenRun(nav, rep.topo, 4, AsyncUniform(4), 1, leg.faults)
				if len(got.calls) != 4*(nav.NumNodes()-1) {
					t.Fatalf("%s/%s: %d requests recorded, want %d", name, rep.name, len(got.calls), 4*(nav.NumNodes()-1))
				}
				if (got.deferred != 0) != (leg.faults != nil) {
					t.Fatalf("%s/%s: %d messages stalled behind an outage", name, rep.name, got.deferred)
				}
				if st.FIFOBinds == 0 || st.CapacityBinds == 0 {
					t.Fatalf("%s/%s: clocks bound %+v: the run does not exercise both", name, rep.name, st)
				}
				if i == 0 {
					if st.Spills != 0 || st.Grows != 0 {
						t.Fatalf("%s/%s: a dense clock counted table work %+v", name, rep.name, st)
					}
					want, wantStats = got, st
					continue
				}
				if (st.Spills != 0) != sh.spills {
					t.Errorf("%s/%s: %d lookups spilled to the table, want spills %v", name, rep.name, st.Spills, sh.spills)
				}
				if st.FIFOBinds != wantStats.FIFOBinds || st.CapacityBinds != wantStats.CapacityBinds {
					t.Errorf("%s: %s bound %+v, %s %+v", name, rep.name, st, sh.reps[0].name, wantStats)
				}
				if !reflect.DeepEqual(got, want) {
					got.calls, want.calls = nil, nil
					t.Fatalf("%s: %s diverged from %s:\n got %+v\nwant %+v", name, rep.name, sh.reps[0].name, got, want)
				}
			}
		}
	}
}

// TestLinkClockRepresentationByShape pins newLinkClock's rule: a tree's
// 2n link slots get dense clocks, and an n² link space gets the expiring
// ones at paper scale too — the implicit complete metric and the
// materialized one alike.
func TestLinkClockRepresentationByShape(t *testing.T) {
	for _, tc := range []struct {
		name  string
		topo  Topology
		dense bool
	}{
		{"tree-binary-76", TreeTopology{T: tree.BalancedBinary(76)}, true},
		{"tree-walker-3", TreeTopology{T: tree.BinaryWalker(3)}, true},
		{"complete-64", NewCompleteTopology(64), false},
		{"metric-complete-76", NewMetricTopology(graph.Complete(76)), false},
		{"metric-complete-4", NewMetricTopology(graph.Complete(4)), false},
	} {
		s := New(Config{Topology: tc.topo, Latency: AsyncUniform(4), LinkTxTime: 1})
		for _, c := range []*linkClock{s.fifo, s.busy} {
			if dense := c.dense != nil && c.out == nil; dense != tc.dense {
				t.Errorf("%s: dense clock %v, want %v", tc.name, dense, tc.dense)
			}
		}
		if s.perLink != tc.dense {
			t.Errorf("%s: perLink %v, want %v", tc.name, s.perLink, tc.dense)
		}
	}
}

// BenchmarkLinkClock measures one send + dispatch with both link clocks
// live (AsyncUniform(4), LinkTxTime 1) under each representation, on the
// three shapes that decide the choice in newLinkClock: a paper-scale
// complete metric (expiring by the rule, as is every n² link space: the
// dense clock's 64² slots sit in L1/L2 and save the outbox scan, but are
// allocated whole for a few links in flight), the shard tier's 1024-node
// complete metric (expiring by the rule; dense is two 8 MB arrays touched
// at random) and the headline 100 001-node tree (dense by the rule: 2n
// slots next to the parent table the send just read). The representation
// is forced after New, so each shape runs both; "table" names the
// expiring one. Steady state allocates nothing: the warm-up pass has
// already grown the table to the in-flight set. On a shared 2-vCPU Xeon,
// ten alternated -cpu 1 pairs, the outboxes took the table cases from
// 104, 105 and 201 ns/op to 75, 59 and 133 (10/10 each); the dense cases
// did not move.
func BenchmarkLinkClock(b *testing.B) {
	walker := tree.BinaryWalker(100001)
	shapes := []struct {
		name string
		topo Topology
		nav  *tree.Walker // nil: complete metric, tokens hop to pseudo-random nodes
	}{
		{"complete-64", NewCompleteTopology(64), nil},
		{"complete-1024", NewCompleteTopology(1024), nil},
		{"tree-100001", TreeTopology{T: walker}, walker},
	}
	for _, sh := range shapes {
		for _, dense := range []bool{true, false} {
			name := sh.name + "/table"
			if dense {
				name = sh.name + "/dense"
			}
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				s := New(Config{Topology: sh.topo, Latency: AsyncUniform(4), LinkTxTime: 1, Seed: 1})
				for _, c := range []**linkClock{&s.fifo, &s.busy} {
					if dense {
						*c = &linkClock{dense: make([]Time, sh.topo.(LinkIndexer).NumLinks())}
					} else {
						*c = newLinkClock(noIdxTopo{sh.topo})
					}
				}
				s.perLink = dense
				n := sh.topo.NumNodes()
				remaining, rnd := 0, uint64(1)
				s.SetAllHandlers(func(ctx *Context, at, from graph.NodeID, msg Message) {
					if remaining <= 0 {
						return
					}
					remaining--
					to := from // tree: ping-pong across the leaf-parent link
					if sh.nav == nil {
						rnd = rnd*6364136223846793005 + 1442695040888963407
						if to = graph.NodeID(rnd >> 33 % uint64(n)); to == at {
							to = (at + 1) % graph.NodeID(n)
						}
					}
					ctx.Send(at, to, msg)
				})
				inject := func(ctx *Context) {
					for v := n / 2; v < n; v++ {
						to := graph.NodeID(v - 1)
						if sh.nav != nil {
							to = sh.nav.Parent(graph.NodeID(v))
						}
						ctx.Send(graph.NodeID(v), to, nil)
					}
				}
				s.Reserve(n)
				remaining = 8 * n
				s.ScheduleAt(0, inject)
				s.Run()
				remaining = b.N
				s.ScheduleAt(s.Now(), inject)
				b.ResetTimer()
				s.Run()
			})
		}
	}
}

// linkAdvance are the amounts a link script can move the clock by: mostly
// a tick, sometimes past every outstanding reservation (tx <= 300).
var linkAdvance = [8]Time{1, 1, 1, 2, 3, 8, 64, 400}

// linkAhead are how far after now a script's reservation may ask to
// depart (a healAt under FaultQueue); mostly not at all.
var linkAhead = [4]Time{0, 0, 1, 40}

// linkScript replays one byte-script against the expiring clock and
// against its oracle, the dense slice, and fails on the first returned
// time that differs. Byte 0 sizes the id space: n = 2 + x%31 nodes, n²
// links. Then one op per leading byte, its low two bits the kind and the
// rest the argument a:
//
//	0     the clock advances by linkAdvance[a&7]
//	1     the clamp: advance(u, v, now+1+a%16, hold 0), u and v the next
//	      two bytes mod n
//	2, 3  a reservation: advance(u, v, now+linkAhead[a&3], tx), u and v
//	      likewise and tx in 1…300 from a third byte
//
// so t obeys the invariant send guarantees — a clamp is asked with t >
// now, a reservation with t >= now — and long reservations keep entries
// live across many ops: outboxes fill, lookups spill, windows fill and
// the table grows. It returns the clock's table doublings and spills
// and, when observe is set, how many insertions took over the expired
// table entry of a different key (found by scanning the whole table
// around each spilled op — too slow to fuzz with).
func linkScript(t *testing.T, script []byte, observe bool) (grows, spills int64, reuses int) {
	t.Helper()
	if len(script) == 0 {
		return 0, 0, 0
	}
	n := 2 + int(script[0])%31
	tab := newLinkClock(noIdxTopo{NewCompleteTopology(n)})
	dense := &linkClock{dense: make([]Time, n*n)}
	if tab.dense != nil || len(tab.out) != n || len(tab.tab) != linkLine<<linkTableBits {
		t.Fatal("test premise broken: a topology with no LinkIndexer did not get the outboxes and the initial table")
	}
	used := func() (k int) {
		for _, e := range tab.tab {
			if e.val != 0 {
				k++
			}
		}
		return k
	}
	holds := func(key uint64) bool {
		for _, e := range tab.tab {
			if e.key == key && e.val != 0 {
				return true
			}
		}
		return false
	}
	var now Time
	for ops := script[1:]; len(ops) > 0; {
		kind, a := ops[0]&3, int(ops[0]>>2)
		ops = ops[1:]
		if kind == 0 {
			now += linkAdvance[a&7]
			continue
		}
		if len(ops) < 3 {
			break
		}
		u, v, tx := graph.NodeID(int(ops[0])%n), graph.NodeID(int(ops[1])%n), 1+Time(ops[2])*299/255
		ops = ops[3:]
		size, spilled, before, fresh := len(tab.tab), tab.spills, 0, false
		if observe {
			before, fresh = used(), !holds(uint64(u)<<32|uint64(v))
		}
		at, hold := now+1+Time(a%16), Time(0)
		if kind != 1 {
			at, hold = now+linkAhead[a&3], tx
		}
		got, want := tab.advance(-1, u, v, now, at, hold), dense.advance(int(u)*n+int(v), u, v, now, at, hold)
		if got != want {
			t.Fatalf("now %d, link %d -> %d (kind %d): the expiring clock answers %d, the dense slice %d", now, u, v, kind, got, want)
		}
		if observe && tab.spills > spilled && fresh && size == len(tab.tab) && used() == before {
			reuses++
		}
	}
	if tab.binds != dense.binds {
		t.Fatalf("the expiring clock bound %d times, the dense slice %d", tab.binds, dense.binds)
	}
	return tab.grows, tab.spills, reuses
}

// FuzzLinkClockMatchesDense is the link clock's differential: any script
// of clamps, reservations and clock advances that respects send's
// invariant gets the same answers from the outboxes and expiring table
// as from one slot per link. Seeds are the committed corpus under
// testdata/fuzz.
func FuzzLinkClockMatchesDense(f *testing.F) {
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 8192 {
			script = script[:8192]
		}
		linkScript(t, script, false)
	})
}

// TestLinkClockCorpusGrowsAndReuses keeps the committed corpus worth
// replaying: at least six scripts, two of which double the table twice or
// more, one of which spills lookups past the outboxes and one of which
// hands an expired table entry to a different link.
func TestLinkClockCorpusGrowsAndReuses(t *testing.T) {
	files, err := filepath.Glob("testdata/fuzz/FuzzLinkClockMatchesDense/*")
	if err != nil || len(files) < 6 {
		t.Fatalf("committed corpus has %d scripts (err %v), want at least 6", len(files), err)
	}
	grewTwice, spilled, reused := 0, 0, 0
	for _, name := range files {
		grows, spills, reuses := linkScript(t, corpusBytes(t, name, corpusArgs(t, name, 1)[0]), true)
		t.Logf("%s: %d lookups spilled, the table doubled %d times and re-used %d expired entries", filepath.Base(name), spills, grows, reuses)
		if grows >= 2 {
			grewTwice++
		}
		if spills > 0 {
			spilled++
		}
		if reuses > 0 {
			reused++
		}
	}
	if grewTwice < 2 || spilled < 1 || reused < 1 {
		t.Errorf("%d scripts double the table twice, %d spill, %d re-use an expired entry; want at least 2, 1 and 1", grewTwice, spilled, reused)
	}
}

// windowKeys returns count links u -> v (u fixed, v ascending from 1)
// whose home line in a table of the initial size is line — or, with pair
// set, either line of line's 128-byte pair.
func windowKeys(line int, pair bool, count int) []graph.NodeID {
	c := newLinkClock(noIdxTopo{NewCompleteTopology(2)})
	var vs []graph.NodeID
	for v := graph.NodeID(1); len(vs) < count; v++ {
		home := c.home(uint64(windowSrc)<<32 | uint64(v))
		if home == line || pair && home == line^1 {
			vs = append(vs, v)
		}
	}
	return vs
}

const windowSrc graph.NodeID = 3

// TestLinkTableWindow drives one probe window of the table, through slot,
// through its four cases with links chosen to collide: a fifth link of a
// full home line lands in the buddy line and is found there again; an
// expired entry is handed to a new link without the table growing; an
// entry that is still live — its value one tick ahead of the clock — is
// not; and a ninth live link doubles the table, every live value
// surviving the move.
func TestLinkTableWindow(t *testing.T) {
	fresh := func() *linkClock { return newLinkClock(noIdxTopo{NewCompleteTopology(8)}) }
	const size = linkLine << linkTableBits
	// At tick 10, a link busy until 11.
	hold := func(c *linkClock, v graph.NodeID) {
		t.Helper()
		s := c.slot(windowSrc, v, 10)
		if *s != 0 {
			t.Fatalf("the first lookup of %d -> %d found the value %d, want a free entry", windowSrc, v, *s)
		}
		*s = 11
	}

	c := fresh()
	same := windowKeys(5, false, 2*linkLine)
	for _, v := range same[:linkLine+1] {
		hold(c, v)
	}
	if got := *c.slot(windowSrc, same[linkLine], 10); got != 11 || len(c.tab) != size {
		t.Errorf("the fifth link of one home line holds %d in a table of %d, want 11 and %d: not found in the buddy line", got, len(c.tab), size)
	}

	c = fresh()
	pair := windowKeys(5, true, 2*linkLine+1)
	for _, v := range pair[:2*linkLine] {
		hold(c, v)
	}
	// Tick 11: all eight entries (busy until 11) have expired.
	s := c.slot(windowSrc, pair[2*linkLine], 11)
	if *s > 11 || len(c.tab) != size || c.slot(windowSrc, pair[2*linkLine], 11) != s {
		t.Errorf("a ninth link at tick 11 got an entry holding %d in a table of %d, want an expired entry of a table of %d that it keeps", *s, len(c.tab), size)
	}

	c = fresh()
	for _, v := range pair[:2*linkLine] {
		hold(c, v)
	}
	// Still tick 10: all eight are live, the ninth must not evict one.
	hold(c, pair[2*linkLine])
	if len(c.tab) != 2*size || c.grows != 1 {
		t.Errorf("a ninth live link left the table at %d entries after %d doublings, want %d and 1", len(c.tab), c.grows, 2*size)
	}
	for _, v := range pair {
		if got := *c.slot(windowSrc, v, 10); got != 11 {
			t.Errorf("after the ninth link, %d -> %d holds %d, want 11: its live entry was lost", windowSrc, v, got)
		}
	}
}

// TestLinkOutbox drives one sending node's outbox through its four cases:
// a link with a live way is found there; an expired way is handed to a
// new link; a fifth live link spills to the table and raises the node's
// spill; and once every way has expired, a link that spilled with a
// longer reservation is still found in the table, not given a way.
func TestLinkOutbox(t *testing.T) {
	const u graph.NodeID = 2
	c := newLinkClock(noIdxTopo{NewCompleteTopology(16)})
	o := &c.out[u]
	reserve := func(v graph.NodeID, now, hold, want Time) {
		t.Helper()
		if got := c.advance(-1, u, v, now, now, hold); got != want {
			t.Fatalf("at tick %d, %d -> %d departs at %d, want %d", now, u, v, got, want)
		}
	}
	tableEmpty := func() bool {
		for _, e := range c.tab {
			if e.val != 0 {
				return false
			}
		}
		return true
	}

	// A way hit: the second reservation of 2 -> 5 waits for the first.
	reserve(5, 10, 1, 10)
	reserve(5, 10, 1, 11)
	if o.to[0] != 5 || o.at[0] != 12 || c.spills != 0 || c.binds != 1 || !tableEmpty() {
		t.Errorf("after two reservations of one link: way 0 = (%d, %d), %d spills, %d binds; want (5, 12), 0 and 1 in an empty table",
			o.to[0], o.at[0], c.spills, c.binds)
	}

	// An expired way reused: at tick 12 the way of 2 -> 5 is free again.
	for _, v := range []graph.NodeID{6, 7, 8} {
		reserve(v, 11, 2, 11)
	}
	reserve(9, 12, 1, 12)
	if o.to != [linkWays]graph.NodeID{9, 6, 7, 8} || c.spills != 0 || !tableEmpty() {
		t.Errorf("at tick 12 the ways hold %v after %d spills, want [9 6 7 8], none, in an empty table", o.to, c.spills)
	}

	// A fifth live link spills: all four ways are busy past tick 12.
	reserve(10, 12, 30, 12)
	if c.spills != 1 || o.spill != 42 || tableEmpty() || o.to != [linkWays]graph.NodeID{9, 6, 7, 8} {
		t.Errorf("the fifth live link: %d spills, spill %d, ways %v; want 1, 42 and the ways kept, the link in the table",
			c.spills, o.spill, o.to)
	}

	// At tick 20 every way has expired, but 2 -> 10 is busy until 42 in the
	// table: it is found there and departs then.
	reserve(10, 20, 1, 42)
	if c.spills != 2 || o.spill != 43 || o.to != [linkWays]graph.NodeID{9, 6, 7, 8} {
		t.Errorf("the spilled link after its node's ways expired: %d spills, spill %d, ways %v; want 2, 43 and no way claimed",
			c.spills, o.spill, o.to)
	}
}
