// Tests of linkClock's two representations. The expiring table is
// checked against the dense slice as its oracle, at three levels: single
// probe windows (TestLinkTableWindow), byte-scripted clamp / reserve /
// advance sequences (FuzzLinkClockMatchesDense and its committed corpus)
// and whole simulations (TestLinkClockRepresentationsAgree).
//
// Mutation table — each edit to sim.go was applied by hand and the suite
// run; the tests named are the ones that failed:
//
//	claim an entry one tick early     TestLinkTableWindow, the fuzz corpus,
//	(slot: e.val <= now+1)            TestLinkClockRepresentationsAgree
//	skip the buddy line on lookup     TestLinkTableWindow, the fuzz corpus
//	(slot: e.key == key && i < linkLine)
//	drop live entries in grow         TestLinkTableWindow,
//	(grow: e.val > now+1)             TestLinkClockRepresentationsAgree
//	pass depart, not s.now, as now    TestLinkClockRepresentationsAgree
//	(send: reserve, clamp or both)    (the fault-queue leg only)
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
	mk                 Time
	msgs, hops, events int64
	deferred           int64
	latDist, hopDist   stats.Dist
	calls              []recCall
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
func tokenRun(nav *tree.Walker, topo Topology, rounds int, lat LatencyModel, tx Time, faults *FaultPlan) tokenResult {
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
	s.SetAllHandlers(func(ctx *Context, at, from graph.NodeID, msg Message) {
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
	return tokenResult{mk, s.Messages(), s.Hops(), s.EventsProcessed(), s.MessagesDeferred(),
		rec.dist.Latency.Snapshot(), rec.dist.Hops.Snapshot(), rec.calls}
}

// TestLinkClockRepresentationsAgree is the cross-representation
// identity: with a random latency model (so the FIFO clamp binds) and
// finite link capacity (so the busy clock binds), the token protocol
// produces one result whether the per-link clocks live in the dense slice
// behind the flat tree link table or in the expiring table — reached both
// through an n² link space and through a topology with no LinkIndexer.
// The faulted leg stalls messages behind link outages under FaultQueue,
// so reservations are asked with depart = healAt > now while the entries
// around them expire against now.
func TestLinkClockRepresentationsAgree(t *testing.T) {
	nav := tree.BinaryWalker(300)
	tt := TreeTopology{T: nav}
	reps := []struct {
		name  string
		topo  Topology
		check func(c *linkClock) bool
	}{
		{"dense", tt, func(c *linkClock) bool { return c.dense != nil && c.tab == nil }},
		{"table-sparse", sparseTopo{tt}, func(c *linkClock) bool { return c.dense == nil && c.tab != nil }},
		{"table-noindex", noIdxTopo{tt}, func(c *linkClock) bool { return c.dense == nil && c.tab != nil }},
	}
	// Every other node loses its parent link once, for 30 to 79 ticks,
	// while the links into the root are queued hundreds of ticks deep: a
	// stalled message's healAt lies beyond most live entries of its window.
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
		var want tokenResult
		for i, rep := range reps {
			probe := New(Config{Topology: rep.topo, Latency: AsyncUniform(4), LinkTxTime: 1, Faults: leg.faults})
			if !rep.check(probe.fifo) || !rep.check(probe.busy) {
				t.Fatalf("%s: the wrapper did not select that representation", rep.name)
			}
			got := tokenRun(nav, rep.topo, 4, AsyncUniform(4), 1, leg.faults)
			if len(got.calls) != 4*(nav.NumNodes()-1) {
				t.Fatalf("%s/%s: %d requests recorded, want %d", leg.name, rep.name, len(got.calls), 4*(nav.NumNodes()-1))
			}
			if (got.deferred != 0) != (leg.faults != nil) {
				t.Fatalf("%s/%s: %d messages stalled behind an outage", leg.name, rep.name, got.deferred)
			}
			if i == 0 {
				want = got
				continue
			}
			if !reflect.DeepEqual(got, want) {
				got.calls, want.calls = nil, nil
				t.Fatalf("%s: %s diverged from %s:\n got %+v\nwant %+v", leg.name, rep.name, reps[0].name, got, want)
			}
		}
	}
}

// BenchmarkLinkClock measures one send + dispatch with both link clocks
// live (AsyncUniform(4), LinkTxTime 1) under each representation, on the
// three shapes that decide the choice in newLinkClock: a paper-scale
// complete metric (dense by the rule; 64² slots sit in L1/L2, the table
// costs a hash and a scan more), the shard tier's 1024-node complete
// metric (table by the rule; dense is two 8 MB arrays touched at random)
// and the headline 100 001-node tree (dense by the rule: 2n slots next to
// the parent table the send just read). The representation is forced
// after New, so each shape runs both. Steady state allocates nothing: the
// warm-up pass has already grown the table to the in-flight set.
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

// linkScript replays one byte-script against the table and against its
// oracle, the dense slice, and fails on the first returned time that
// differs. Byte 0 sizes the id space: n = 2 + x%31 nodes, n² links. Then
// one op per leading byte, its low two bits the kind and the rest the
// argument a:
//
//	0     the clock advances by linkAdvance[a&7]
//	1     clamp(u, v, now+1+a%16), u and v the next two bytes mod n
//	2, 3  reserve(u, v, now+linkAhead[a&3], tx), u and v likewise and tx
//	      in 1…300 from a third byte
//
// so t obeys the invariant send guarantees — a clamp is asked with t >
// now, a reservation with t >= now — and long reservations keep entries
// live across many ops: windows fill and the table grows. It returns how
// many times the table doubled and, when observe is set, how many
// insertions took over the expired entry of a different key (found by
// scanning the whole table around each op — too slow to fuzz with).
func linkScript(t *testing.T, script []byte, observe bool) (grows, reuses int) {
	t.Helper()
	if len(script) == 0 {
		return 0, 0
	}
	n := 2 + int(script[0])%31
	tab := newLinkClock(noIdxTopo{NewCompleteTopology(n)})
	dense := &linkClock{dense: make([]Time, n*n)}
	if tab.dense != nil || len(tab.tab) != linkLine<<linkTableBits {
		t.Fatal("test premise broken: a topology with no LinkIndexer did not get the initial table")
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
		size, before, fresh := len(tab.tab), 0, false
		if observe {
			before, fresh = used(), !holds(uint64(u)<<32|uint64(v))
		}
		var got, want Time
		if kind == 1 {
			at := now + 1 + Time(a%16)
			got, want = tab.clamp(-1, u, v, now, at), dense.clamp(int(u)*n+int(v), u, v, now, at)
		} else {
			at := now + linkAhead[a&3]
			got, want = tab.reserve(-1, u, v, now, at, tx), dense.reserve(int(u)*n+int(v), u, v, now, at, tx)
		}
		if got != want {
			t.Fatalf("now %d, link %d -> %d (kind %d): the table answers %d, the dense slice %d", now, u, v, kind, got, want)
		}
		for ; size < len(tab.tab); size *= 2 {
			grows++
		}
		if observe && fresh && size == len(tab.tab) && used() == before {
			reuses++
		}
	}
	return grows, reuses
}

// FuzzLinkClockMatchesDense is the link clock's differential: any script
// of clamps, reservations and clock advances that respects send's
// invariant gets the same answers from the expiring table as from one
// slot per link. Seeds are the committed corpus under testdata/fuzz.
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
// more and one of which hands an expired entry to a different link.
func TestLinkClockCorpusGrowsAndReuses(t *testing.T) {
	files, err := filepath.Glob("testdata/fuzz/FuzzLinkClockMatchesDense/*")
	if err != nil || len(files) < 6 {
		t.Fatalf("committed corpus has %d scripts (err %v), want at least 6", len(files), err)
	}
	grewTwice, reused := 0, 0
	for _, name := range files {
		grows, reuses := linkScript(t, corpusBytes(t, name, corpusArgs(t, name, 1)[0]), true)
		t.Logf("%s: the table doubled %d times and re-used %d expired entries", filepath.Base(name), grows, reuses)
		if grows >= 2 {
			grewTwice++
		}
		if reuses > 0 {
			reused++
		}
	}
	if grewTwice < 2 || reused < 1 {
		t.Errorf("%d scripts double the table twice, %d re-use an expired entry; want at least 2 and 1", grewTwice, reused)
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

// TestLinkTableWindow drives one probe window through its four cases with
// links chosen to collide: a fifth link of a full home line lands in the
// buddy line and is found there again; an expired entry is handed to a
// new link without the table growing; an entry that is still live — its
// value one tick ahead of the clock — is not; and a ninth live link
// doubles the table, every live value surviving the move.
func TestLinkTableWindow(t *testing.T) {
	fresh := func() *linkClock { return newLinkClock(noIdxTopo{NewCompleteTopology(8)}) }
	const size = linkLine << linkTableBits
	// reserve at tick 10 for one tick: busy until 11.
	hold := func(c *linkClock, v graph.NodeID) {
		t.Helper()
		if got := c.reserve(-1, windowSrc, v, 10, 10, 1); got != 10 {
			t.Fatalf("first reservation of %d -> %d departs at %d, want 10", windowSrc, v, got)
		}
	}

	c := fresh()
	same := windowKeys(5, false, 2*linkLine)
	for _, v := range same[:linkLine+1] {
		hold(c, v)
	}
	if got := c.reserve(-1, windowSrc, same[linkLine], 10, 10, 1); got != 11 || len(c.tab) != size {
		t.Errorf("the fifth link of one home line departs at %d in a table of %d, want 11 and %d: not found in the buddy line", got, len(c.tab), size)
	}

	c = fresh()
	pair := windowKeys(5, true, 2*linkLine+1)
	for _, v := range pair[:2*linkLine] {
		hold(c, v)
	}
	// Tick 11: all eight entries (busy until 11) have expired.
	if got := c.reserve(-1, windowSrc, pair[2*linkLine], 11, 11, 1); got != 11 || len(c.tab) != size {
		t.Errorf("a ninth link at tick 11 departs at %d in a table of %d, want 11 and %d: an expired entry was not re-used", got, len(c.tab), size)
	}

	c = fresh()
	for _, v := range pair[:2*linkLine] {
		hold(c, v)
	}
	// Still tick 10: all eight are live, the ninth must not evict one.
	hold(c, pair[2*linkLine])
	if len(c.tab) != 2*size {
		t.Errorf("a ninth live link left the table at %d entries, want %d", len(c.tab), 2*size)
	}
	for _, v := range pair {
		if got := c.reserve(-1, windowSrc, v, 10, 10, 1); got != 11 {
			t.Errorf("after the ninth link, %d -> %d departs at %d, want 11: its live entry was lost", windowSrc, v, got)
		}
	}
}
