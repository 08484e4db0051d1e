package runtime

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/arrow"
	"repro/internal/graph"
	"repro/internal/tree"
)

// TestCompletionOrderIsFIFO pins delivery order = completion order
// without leaning on Wait. One goroutine submits every request at object
// 0's sink, so the requests complete inside initiate, in delivery order:
// complete runs in ReqID order. The window keeps the submitter a step
// ahead of a consumer that alternates between parking in receive (a
// send that hands the completion straight to it) and staying away for
// 0-7us (a send into the buffer, with the window full when it returns).
func TestCompletionOrderIsFIFO(t *testing.T) {
	const requests = 150_000
	net := New(tree.BalancedBinary(7), 0, Options{MaxInFlight: 2})
	net.Start()
	got := make([]int64, 0, requests)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for c := range net.Completions() {
			got = append(got, c.ReqID)
			away := time.Duration(len(got)%8) * time.Microsecond
			for start := time.Now(); time.Since(start) < away; {
			}
		}
	}()
	for i := 0; i < requests; i++ {
		for {
			_, err := net.Submit(0, 0)
			if err == nil {
				break
			}
			var ov *OverloadError
			if !errors.As(err, &ov) {
				t.Fatal(err)
			}
			runtime.Gosched()
		}
	}
	net.Stop()
	<-drained
	if len(got) != requests {
		t.Fatalf("%d completions, want %d", len(got), requests)
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("completion %d delivered after %d (position %d)", got[i], got[i-1], i)
		}
	}
}

// TestLinkIsFIFO pins the message plane's ordering promise on its own.
// The protocol cannot: one object never has two messages on an edge at
// once, so only different objects' messages share a link. Each round
// parks every object's sink at node 0 and then issues one request per
// object at node 1, from one goroutine: node 1 forwards them over the
// one link in delivery order, node 0 completes them in arrival order,
// and completions are delivered in completion order. A send whose
// enqueue is deferred until its node is released lets the node's next
// carrier overtake it.
func TestLinkIsFIFO(t *testing.T) {
	const objects, rounds = 16, 500
	net := New(tree.PathTree(2), 0, Options{Objects: objects})
	net.Start()
	for round := 0; round < rounds; round++ {
		for _, v := range []graph.NodeID{0, 1} {
			for o := int32(0); o < objects; o++ {
				if _, err := net.Submit(v, o); err != nil {
					t.Fatal(err)
				}
			}
			for i := int32(0); i < objects; i++ {
				c := <-net.Completions()
				if v == 1 && (c.Object != i || c.Hops != 1) {
					t.Fatalf("round %d: completion %d over the link is object %d after %d hops, want object %d after 1",
						round, i, c.Object, c.Hops, i)
				}
			}
		}
	}
	go func() {
		for range net.Completions() {
		}
	}()
	net.Stop()
}

// TestCarrierFairness: a hot node whose mailbox never runs dry must not
// starve the chain behind it. Object 1's sink sits at node 2 of a path,
// and the onComplete hook — called while node 2's carrier completes a
// request for it — submits the next one there, so that carrier finds
// the mailbox refilled after every batch, for as long as the test likes.
// Meanwhile requests for object 0 cross the whole path through node 2.
// A carrier that kept draining node 2 while holding the successor it
// claimed would park them until the refilling stops.
func TestCarrierFairness(t *testing.T) {
	const (
		hot      = graph.NodeID(2)
		hopDelay = 50 * time.Microsecond
		hops     = 4
		farReqs  = 20
		// The far requests take ~20 x 4 hops x (a 50us sleep that can
		// cost 1ms) when they make progress; starved, the first one lasts
		// as long as the refilling does.
		refillFor = 2 * time.Second
		// Every completion refills, the far ones too, so up to farReqs+1
		// refill requests are live; a larger pool of tokens, returned by
		// the consumer, paces the refilling to it.
		pace = 3 * farReqs
	)
	tokens := make(chan struct{}, pace)
	for i := 0; i < pace; i++ {
		tokens <- struct{}{}
	}
	var refill atomic.Bool
	net := New(tree.PathTree(hops+1), 0, Options{Objects: 2})
	net.hopDelay = hopDelay
	net.onComplete = func() {
		if refill.Load() {
			<-tokens
			if _, err := net.Submit(hot, 1); err != nil {
				t.Error(err)
			}
		}
	}
	net.Start()
	far := make(chan Completion, 1)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for c := range net.Completions() {
			if c.Object == 0 {
				far <- c
				continue
			}
			select {
			case tokens <- struct{}{}:
			default: // one of the two requests submitted below
			}
		}
	}()
	// Park object 1's sink at the hot node, then start refilling.
	if _, err := net.Submit(hot, 1); err != nil {
		t.Fatal(err)
	}
	net.Wait()
	refill.Store(true)
	// The refilling ends with the far requests, or at the deadline if
	// they are being starved.
	var starved atomic.Bool
	deadline := time.AfterFunc(refillFor, func() {
		starved.Store(true)
		refill.Store(false)
	})
	defer deadline.Stop()
	if _, err := net.Submit(hot, 1); err != nil {
		t.Fatal(err)
	}
	var worst time.Duration
	for i := 0; i < farReqs; i++ {
		start := time.Now()
		submit(t, net, graph.NodeID(hops*((i+1)%2)))
		c := <-far
		if d := time.Since(start); d > worst {
			worst = d
		}
		if c.Hops != hops {
			t.Fatalf("far request %d took %d hops, want %d", i, c.Hops, hops)
		}
	}
	deadline.Stop()
	refill.Store(false)
	net.Wait() // the last refill is submitted by a request still in flight
	net.Stop()
	<-drained
	if starved.Load() {
		t.Errorf("a far request waited %v behind the hot node: it only moved once the refilling stopped (%d hops x %v)",
			worst, hops, hopDelay)
	}
}

// TestSlowConsumerIsBackpressured: an admission slot is released when
// the consumer reads the completion, not when it is produced, so a
// stalled consumer surfaces as *OverloadError and unread completions
// never outgrow the window.
func TestSlowConsumerIsBackpressured(t *testing.T) {
	const window, attempts = 8, 1000
	net := New(tree.BalancedBinary(15), 0, Options{Objects: 4, MaxInFlight: window})
	net.Start()
	var accepted, overloads int
	for i := 0; i < attempts; i++ {
		if i == window {
			// Let the admitted requests finish queuing: with nobody
			// receiving, their slots must stay taken.
			time.Sleep(10 * time.Millisecond)
		}
		_, err := net.Submit(graph.NodeID(i%15), int32(i%4))
		var ov *OverloadError
		switch {
		case err == nil:
			accepted++
		case errors.As(err, &ov):
			overloads++
		default:
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if accepted != window || overloads != attempts-window {
		t.Errorf("accepted %d, overloaded %d; want %d and %d", accepted, overloads, window, attempts-window)
	}
	if g := net.InFlight(); g != window {
		t.Errorf("InFlight() = %d with the consumer blocked, want %d", g, window)
	}
	comps := collect(net)()
	if len(comps) != window {
		t.Errorf("%d completions after unblocking the consumer, want %d", len(comps), window)
	}
	if g := net.InFlight(); g != 0 {
		t.Errorf("in-flight gauge %d after shutdown", g)
	}
}

// TestStopWithoutConsumer: Stop waits for the admitted requests, not
// for a consumer. Ten requests are still crossing their hops when Stop
// starts and nobody reads Completions, yet Stop returns, and a later
// drain reads exactly the ten completions and then the close.
func TestStopWithoutConsumer(t *testing.T) {
	const requests, timeout = 10, 5 * time.Second
	net := New(tree.PathTree(8), 0, Options{})
	net.hopDelay = time.Millisecond
	net.Start()
	for i := 0; i < requests; i++ {
		submitAsync(t, net, graph.NodeID(7-i%4))
	}
	for net.Accepted() < requests {
		runtime.Gosched()
	}
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		net.Stop()
	}()
	select {
	case <-stopped:
	case <-time.After(timeout):
		t.Fatalf("Stop did not return in %v with nobody reading Completions", timeout)
	}
	for got := 0; ; got++ {
		select {
		case _, open := <-net.Completions():
			if open {
				continue
			}
			if got != requests {
				t.Errorf("%d completions before the close, want %d", got, requests)
			}
			return
		case <-time.After(timeout):
			t.Fatalf("after %d completions the channel was neither read nor closed in %v", got, timeout)
		}
	}
}

// TestUnreadNetworkRefusesAtDefaultWindow: a network on Options{} that
// nobody reads admits its default window of 4,096 requests and then
// sheds load, so its memory stays fixed: 10^5 refused submits leave the
// live heap at most 1 MB larger.
func TestUnreadNetworkRefusesAtDefaultWindow(t *testing.T) {
	const n, window, refused, heapBudget = 63, 4096, 100_000, 1 << 20
	net := New(tree.BalancedBinary(n), 0, Options{})
	net.Start()
	for i := 0; i < window; i++ {
		if _, err := net.Submit(graph.NodeID(i%n), 0); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < refused; i++ {
		_, err := net.Submit(graph.NodeID(i%n), 0)
		var ov *OverloadError
		if !errors.As(err, &ov) || ov.Limit != window {
			t.Fatalf("submit %d past the window: %v, want *OverloadError with Limit %d", window+i, err, window)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if g := net.InFlight(); g != window {
		t.Errorf("InFlight() = %d with nobody reading, want %d", g, window)
	}
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > heapBudget {
		t.Errorf("live heap grew %d bytes over %d refused submits, budget %d", grew, refused, heapBudget)
	}
	net.Stop()
	got := 0
	for range net.Completions() {
		got++
	}
	if got != window {
		t.Errorf("%d completions drained after Stop, want %d", got, window)
	}
}

// settledGoroutines returns runtime.NumGoroutine() once it has held one
// value for a few consecutive reads: goroutines of earlier tests are
// reaped asynchronously.
func settledGoroutines() int {
	n, stable := runtime.NumGoroutine(), 0
	for stable < 5 {
		time.Sleep(2 * time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			stable++
		} else {
			n, stable = m, 0
		}
	}
	return n
}

// waitGoroutines polls until the goroutine count is between lo and hi.
func waitGoroutines(t *testing.T, when string, lo, hi int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for n := runtime.NumGoroutine(); n < lo || n > hi; n = runtime.NumGoroutine() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, want %d to %d", when, n, lo, hi)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestIdleNetworkOwnsNoCarriers: whatever the tree size, a started
// network owns no goroutine, before its requests and once they are
// quiescent, nor after Stop.
func TestIdleNetworkOwnsNoCarriers(t *testing.T) {
	for _, n := range []int{7, 4095} {
		base := settledGoroutines()
		net := New(tree.BalancedBinary(n), 0, Options{})
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			for range net.Completions() {
			}
		}()
		net.Start()
		// The consumer above.
		waitGoroutines(t, fmt.Sprintf("n=%d after Start", n), base+1, base+1)
		for i := 0; i < 200; i++ {
			submit(t, net, graph.NodeID(i*31%n))
		}
		net.Wait()
		waitGoroutines(t, fmt.Sprintf("n=%d after Wait", n), base+1, base+1)
		net.Stop()
		<-drained
		waitGoroutines(t, fmt.Sprintf("n=%d after Stop", n), base, base)
	}
}

// TestLargeNetworkIsCheap bounds what a node costs to build and run: a
// node is a struct and two one-element slices, plus mailbox buffers at
// the few nodes the requests touch (204 bytes per node measured; 161
// before the node gained its state word and head slot). The
// goroutine-per-node design — two channels and two goroutines each —
// measured 1818 on this test.
func TestLargeNetworkIsCheap(t *testing.T) {
	const n, requests, budget = 1<<17 - 1, 1000, 320 // bytes per node
	tr := tree.BalancedBinary(n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	net := New(tr, 0, Options{})
	net.Start()
	finish := collect(net)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < requests; i++ {
		submit(t, net, graph.NodeID(rng.Intn(n)))
	}
	comps := finish()
	runtime.ReadMemStats(&after)
	if len(comps) != requests {
		t.Fatalf("%d completions, want %d", len(comps), requests)
	}
	if _, err := arrow.VerifySinkReachability(net.LinksFor(0)); err != nil {
		t.Error(err)
	}
	perNode := (after.TotalAlloc - before.TotalAlloc) / n
	t.Logf("%d bytes allocated per node", perNode)
	if perNode > budget {
		t.Errorf("%d bytes allocated per node, budget %d", perNode, budget)
	}
}

// TestSubmitSteadyStateAllocs pins "no allocation per request": once the
// mailbox buffers are warm, a request from one client walks on the
// caller, starts no goroutine, and costs nothing per node it crosses.
func TestSubmitSteadyStateAllocs(t *testing.T) {
	const n = 63
	net := New(tree.BalancedBinary(n), 0, Options{MaxInFlight: 64})
	net.Start()
	rng := rand.New(rand.NewSource(1))
	request := func() {
		submit(t, net, graph.NodeID(rng.Intn(n)))
		<-net.Completions()
	}
	for i := 0; i < 5000; i++ {
		request()
	}
	if avg := testing.AllocsPerRun(2000, request); avg != 0 {
		t.Errorf("%.2f allocations per request in steady state, want 0", avg)
	}
	go func() {
		for range net.Completions() {
		}
	}()
	net.Stop()
}

// TestStopRaceAdjacentNodes is the lost-wake-up and shutdown hammer:
// eight submitters bounce object 0's sink across one edge — every
// request makes each of the two nodes claim the other — while Stop
// races them. Every accepted request must complete exactly once, Stop
// must return (a message left in a mailbox whose carrier released the
// node without re-checking it would hang Stop), and every object must
// end with one sink.
func TestStopRaceAdjacentNodes(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		tr := tree.BalancedBinary(15)
		net := New(tr, 0, Options{Objects: 2})
		net.Start()
		seen := make(map[int64]int)
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			for c := range net.Completions() {
				seen[c.ReqID]++
			}
		}()
		var accepted atomic.Int64
		var wg sync.WaitGroup
		start := make(chan struct{})
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				for i := 0; i < 200; i++ {
					if _, err := net.Submit(graph.NodeID((w+i)%2), 0); err != nil {
						if !errors.Is(err, ErrStopped) {
							t.Error(err)
						}
						return
					}
					accepted.Add(1)
				}
			}(w)
		}
		close(start)
		// Vary how far the submitters get before Stop lands.
		time.Sleep(time.Duration(trial) * 10 * time.Microsecond)
		stopped := make(chan struct{})
		go func() {
			defer close(stopped)
			net.Stop()
		}()
		select {
		case <-stopped:
		case <-time.After(30 * time.Second):
			t.Fatalf("trial %d: Stop hung with %d requests in flight", trial, net.InFlight())
		}
		wg.Wait()
		<-drained
		if int64(len(seen)) != accepted.Load() {
			t.Fatalf("trial %d: accepted %d requests but %d completed", trial, accepted.Load(), len(seen))
		}
		for id, times := range seen {
			if times != 1 {
				t.Fatalf("trial %d: request %d completed %d times", trial, id, times)
			}
		}
		for o := int32(0); o < 2; o++ {
			if _, err := arrow.VerifySinkReachability(net.LinksFor(o)); err != nil {
				t.Fatalf("trial %d: object %d: %v", trial, o, err)
			}
		}
	}
}

// queued is one edge of an object's queue: req was queued behind pred.
type queued struct{ req, pred int64 }

// checkChain verifies the paper's total-order guarantee on one object's
// completions, as the runtime-live benchmark does: the (request,
// predecessor) pairs form a single chain that starts at the virtual
// root request -1 and passes through every request exactly once.
func checkChain(chain []queued) error {
	next := make(map[int64]int64, len(chain))
	for _, q := range chain {
		if succ, dup := next[q.pred]; dup {
			return fmt.Errorf("requests %d and %d both queued behind %d", succ, q.req, q.pred)
		}
		next[q.pred] = q.req
	}
	at, seen := int64(-1), 0
	for {
		succ, ok := next[at]
		if !ok {
			break
		}
		at = succ
		seen++
		if seen > len(chain) {
			return fmt.Errorf("queue order has a cycle through request %d", at)
		}
	}
	if seen != len(chain) {
		return fmt.Errorf("queue order reaches %d of %d requests from the root", seen, len(chain))
	}
	return nil
}

// TestClaimUnderContention drives every transition of the node state
// word at once. Eight submitters issue requests for four objects at
// both ends of one edge, so a delivery often finds its node held (the
// locked path in deliver: append, then publish pending) and a carrier
// often finds its node refilled when it tries to release it. The
// consumer stalls now and then: the admission window fills, and the
// submitters return in a burst once it drains. A 1µs hop delay parks
// the carrier in every send, mid-turn, so releases fail at -cpu 1 too
// (a 1ns timer has fired before the scheduler looks for other work).
// The requests come in rounds, each waited out to quiescence: a lost
// hand-off strands a request in a mailbox, and that round never
// settles. Every request must complete exactly once, each object's
// queue must be one chain, and every object must end with one sink.
func TestClaimUnderContention(t *testing.T) {
	for _, hop := range []time.Duration{0, time.Microsecond} {
		t.Run(fmt.Sprintf("hop=%dns", hop.Nanoseconds()), func(t *testing.T) { claimUnderContention(t, hop) })
	}
}

func claimUnderContention(t *testing.T, hop time.Duration) {
	const submitters, rounds, perRound, objects, window = 8, 250, 16, 4, 16
	tr := tree.PathTree(2)
	net := New(tr, 0, Options{Objects: objects, MaxInFlight: window})
	net.hopDelay = hop
	net.Start()
	completed := 0
	chains := make([][]queued, objects)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for c := range net.Completions() {
			completed++
			chains[c.Object] = append(chains[c.Object], queued{c.ReqID, c.PredID})
			if len(chains[c.Object])%97 == 0 {
				time.Sleep(50 * time.Microsecond)
			}
		}
	}()
	deadline := time.Now().Add(20 * time.Second)
	// settle fails the test unless done returns by a second past the
	// deadline, when the submitters stop retrying.
	settle := func(what string, done func()) {
		returned := make(chan struct{})
		go func() {
			defer close(returned)
			done()
		}()
		select {
		case <-returned:
		case <-time.After(time.Until(deadline) + time.Second):
			t.Fatalf("%s hung with %d requests in flight", what, net.InFlight())
		}
	}
	var accepted atomic.Int64
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for w := 0; w < submitters; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perRound; i++ {
					v, obj := graph.NodeID((w+i)%2), int32((w+round+i/2)%objects)
					for {
						_, err := net.Submit(v, obj)
						if err == nil {
							accepted.Add(1)
							break
						}
						var ov *OverloadError
						if !errors.As(err, &ov) {
							t.Error(err)
							return
						}
						if time.Now().After(deadline) {
							return
						}
						runtime.Gosched()
					}
				}
			}(w)
		}
		// Quiescence after every round: a request stranded in a mailbox
		// is rescued by the next delivery that takes the locked path, so
		// only the end of a burst shows it.
		settle(fmt.Sprintf("round %d", round), func() {
			wg.Wait()
			net.Wait()
		})
	}
	settle("Stop", net.Stop)
	<-drained
	// With the counts equal, one chain per object means every request
	// completed exactly once: a repeat forks or loops its chain.
	if int64(completed) != accepted.Load() {
		t.Fatalf("accepted %d requests but %d completed", accepted.Load(), completed)
	}
	for o := int32(0); o < objects; o++ {
		if err := checkChain(chains[o]); err != nil {
			t.Errorf("object %d: %v", o, err)
		}
		if _, err := arrow.VerifySinkReachability(net.LinksFor(o)); err != nil {
			t.Errorf("object %d: %v", o, err)
		}
	}
}

// TestSubmitCarriesItsOwnRequest: with one submitter nothing contends,
// so every Submit walks its request to the sink and returns with it
// completed. Nobody receives, so each completion is in the channel's
// buffer from the moment it completes.
func TestSubmitCarriesItsOwnRequest(t *testing.T) {
	const n, requests = 63, 200
	net := New(tree.BalancedBinary(n), 0, Options{})
	net.Start()
	rng := rand.New(rand.NewSource(1))
	for i := 1; i <= requests; i++ {
		if _, err := net.Submit(graph.NodeID(rng.Intn(n)), 0); err != nil {
			t.Fatal(err)
		}
		if completed := len(net.Completions()); completed != i {
			t.Fatalf("after Submit %d: %d requests completed, want %d", i, completed, i)
		}
	}
	if comps := collect(net)(); len(comps) != requests {
		t.Errorf("%d completions, want %d", len(comps), requests)
	}
}

// TestSubmitRunsOnlyItsOwnRequest: a Submit never runs another
// request's step. Request A completes at node 0, object 0's sink, and
// its completion hook stalls while A's Submit holds node 0. Request B,
// submitted at the far end of the path, walks three hops and queues in
// node 0's mailbox; its Submit must return all the same. When A
// resumes, its release of node 0 fails, and B's step must go to a
// carrier: B's completion hook waits for A's Submit to return, which
// never happens if A's caller runs B's step itself.
func TestSubmitRunsOnlyItsOwnRequest(t *testing.T) {
	const timeout = 5 * time.Second
	net := New(tree.PathTree(4), 0, Options{})
	aHolds, bSubmitted, aReturned := make(chan struct{}), make(chan struct{}), make(chan struct{})
	var calls atomic.Int32
	net.onComplete = func() {
		switch calls.Add(1) {
		case 1: // A, holding node 0
			close(aHolds)
			<-bSubmitted
		case 2: // B, queued at node 0 behind A
			select {
			case <-aReturned:
			case <-time.After(timeout):
				t.Errorf("B's step waited %v for A's Submit to return: A's caller runs it", timeout)
			}
		}
	}
	net.Start()
	finish := collect(net)
	var a int64
	go func() {
		defer close(aReturned)
		var err error
		if a, err = net.Submit(0, 0); err != nil {
			t.Error(err)
		}
	}()
	<-aHolds
	var b int64
	select {
	case b = <-submitAsync(t, net, 3):
	case <-time.After(timeout):
		t.Fatalf("B's Submit did not return in %v while A held node 0", timeout)
	}
	close(bSubmitted)
	<-aReturned
	comps := finish()
	if len(comps) != 2 {
		t.Fatalf("%d completions, want 2", len(comps))
	}
	if c := comps[1]; c.ReqID != b || c.PredID != a || c.Hops != 3 {
		t.Errorf("B's completion = %+v, want request %d queued behind %d after 3 hops", c, b, a)
	}
}

// TestWalkHandsOffLockedPathClaim: a Submit whose issue claims its node
// through the locked path — the holder released the node between the
// delivery's failed compare-and-swap and its publish — finds its message
// in the mailbox, not in the head slot, and must hand the node to a
// carrier. Request A holds node 0 in its completion hook while the test
// holds node 0's mutex, so request B's delivery stops inside deliver,
// past its compare-and-swap. A then releases node 0, and B publishes to
// an idle node. The head slot still holds A's issue: a walk that ran it
// would complete A twice.
func TestWalkHandsOffLockedPathClaim(t *testing.T) {
	net := New(tree.PathTree(2), 0, Options{})
	nd := net.nodes[0]
	aHolds, resume := make(chan struct{}), make(chan struct{})
	var calls atomic.Int32
	net.onComplete = func() {
		if calls.Add(1) == 1 {
			close(aHolds)
			<-resume
		}
	}
	net.Start()
	finish := collect(net)
	aReturned := submitAsync(t, net, 0)
	<-aHolds
	nd.mu.Lock()
	bReturned := submitAsync(t, net, 0)
	waitForDeliverOnMailboxLock(t)
	close(resume)
	a := <-aReturned
	nd.mu.Unlock()
	b := <-bReturned
	comps := finish()
	if len(comps) != 2 {
		t.Fatalf("%d completions, want 2", len(comps))
	}
	if c := comps[1]; c.ReqID != b || c.PredID != a {
		t.Errorf("B's completion = %+v, want request %d queued behind %d", c, b, a)
	}
}

// submitAsync submits a request for object 0 at v on a goroutine of its
// own and sends its ID once Submit returns.
func submitAsync(t *testing.T, net *Network, v graph.NodeID) <-chan int64 {
	ids := make(chan int64, 1)
	go func() {
		id, err := net.Submit(v, 0)
		if err != nil {
			t.Error(err)
		}
		ids <- id
	}()
	return ids
}

// waitForDeliverOnMailboxLock polls the goroutine stacks until one is
// waiting for a node's mailbox mutex inside deliver.
func waitForDeliverOnMailboxLock(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		for _, g := range bytes.Split(buf[:runtime.Stack(buf, true)], []byte("\n\n")) {
			if bytes.Contains(g, []byte("sync.(*Mutex)")) && bytes.Contains(g, []byte("(*node).deliver")) {
				return
			}
		}
	}
	t.Fatal("no delivery reached the mailbox lock in 5s")
}

// cpuNS returns the user+sys CPU time the process has used so far.
func cpuNS() int64 {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// BenchmarkRuntimeClosedLoop is the sub-second signal beside the
// runtime-live ledger workload: closed-loop clients, each waiting for
// its own completion before submitting again, on that workload's shape
// (63-node balanced tree, 16 objects, window 64, zero hop delay).
// cpu-ns/req is the process's CPU time over the timed loop per request,
// the quantity behind runtime-live's cpu_s_per_mreq. A Submit walks its
// own request and a carrier starts only for a contended node, so it
// reports 0 allocs/op at every client count.
func BenchmarkRuntimeClosedLoop(b *testing.B) {
	const n, objects, window = 63, 16, 64
	for _, clients := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			net := New(tree.BalancedBinary(n), 0, Options{Objects: objects, MaxInFlight: window})
			net.Start()
			// Client c submits only at nodes ≡ c (mod clients), so a
			// completion's origin routes it back to its client.
			toClient := make([]chan Completion, clients)
			for c := range toClient {
				toClient[c] = make(chan Completion, 1)
			}
			drained := make(chan struct{})
			go func() {
				defer close(drained)
				for c := range net.Completions() {
					toClient[int(c.Origin)%clients] <- c
				}
			}()
			b.ReportAllocs()
			b.ResetTimer()
			cpu0 := cpuNS()
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(c)))
					for i := c; i < b.N; i += clients {
						v := rng.Intn((n-c+clients-1)/clients)*clients + c
						id, err := net.Submit(graph.NodeID(v), int32(rng.Intn(objects)))
						if err != nil {
							b.Error(err)
							return
						}
						if done := <-toClient[c]; done.ReqID != id {
							b.Errorf("client %d: submitted %d, observed %d", c, id, done.ReqID)
							return
						}
					}
				}(c)
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/req")
			b.ReportMetric(float64(cpuNS()-cpu0)/float64(b.N), "cpu-ns/req")
			net.Stop()
			<-drained
		})
	}
}
