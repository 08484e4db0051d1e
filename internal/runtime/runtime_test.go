package runtime

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/arrow"
	"repro/internal/graph"
	"repro/internal/tree"
)

// collect starts a drainer for the completions channel and returns a
// function that stops the network and returns everything received.
func collect(net *Network) func() []Completion {
	var (
		mu    sync.Mutex
		comps []Completion
	)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for c := range net.Completions() {
			mu.Lock()
			comps = append(comps, c)
			mu.Unlock()
		}
	}()
	return func() []Completion {
		net.Stop()
		<-done
		mu.Lock()
		defer mu.Unlock()
		return comps
	}
}

func TestSingleRequestCompletes(t *testing.T) {
	tr := tree.BalancedBinary(7)
	net := New(tr, 0, Options{})
	net.Start()
	finish := collect(net)
	id := net.Request(5)
	comps := finish()
	if len(comps) != 1 {
		t.Fatalf("got %d completions, want 1", len(comps))
	}
	c := comps[0]
	if c.ReqID != id || c.PredID != -1 || c.Origin != 5 || c.Sink != 0 {
		t.Errorf("completion = %+v", c)
	}
	if c.Hops != 2 {
		t.Errorf("hops = %d, want 2 (5 -> 2 -> 0)", c.Hops)
	}
}

func TestTotalOrderUnderConcurrency(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		n := 31
		tr := tree.BalancedBinary(n)
		net := New(tr, 0, Options{})
		net.Start()
		finish := collect(net)

		const requests = 200
		var wg sync.WaitGroup
		rng := rand.New(rand.NewSource(int64(trial)))
		targets := make([]graph.NodeID, requests)
		for i := range targets {
			targets[i] = graph.NodeID(rng.Intn(n))
		}
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for j := w; j < requests; j += 8 {
					net.Request(targets[j])
				}
			}(i)
		}
		wg.Wait()
		comps := finish()
		if len(comps) != requests {
			t.Fatalf("trial %d: %d completions, want %d", trial, len(comps), requests)
		}
		// Predecessor chain must be a total order.
		chain := make([]queued, len(comps))
		for i, c := range comps {
			chain[i] = queued{c.ReqID, c.PredID}
		}
		if err := checkChain(chain); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestPointerInvariantAfterQuiescence(t *testing.T) {
	n := 15
	tr := tree.BalancedBinary(n)
	net := New(tr, 0, Options{})
	net.Start()
	finish := collect(net)
	var wg sync.WaitGroup
	for v := 0; v < n; v++ {
		wg.Add(1)
		go func(v graph.NodeID) {
			defer wg.Done()
			net.Request(v)
		}(graph.NodeID(v))
	}
	wg.Wait()
	comps := finish()
	links := net.LinksFor(0)
	sink, err := arrow.VerifySinkReachability(tr, links)
	if err != nil {
		t.Fatal(err)
	}
	// The sink must be the origin of the last request in the chain.
	succ := make(map[int64]Completion)
	for _, c := range comps {
		succ[c.PredID] = c
	}
	var last Completion
	cur, ok := succ[-1]
	for ok {
		last = cur
		cur, ok = succ[cur.ReqID]
	}
	if sink != last.Origin {
		t.Errorf("final sink %d != last request origin %d", sink, last.Origin)
	}
}

func TestRequestSyncSequentialSemantics(t *testing.T) {
	// Issuing sequentially from one goroutine with RequestSync then
	// waiting gives the issue order as the queue order.
	tr := tree.PathTree(10)
	net := New(tr, 0, Options{})
	net.Start()
	finish := collect(net)
	var ids []int64
	for _, v := range []graph.NodeID{9, 3, 7} {
		ids = append(ids, net.RequestSync(v))
		net.Wait()
	}
	comps := finish()
	byID := map[int64]Completion{}
	for _, c := range comps {
		byID[c.ReqID] = c
	}
	if byID[ids[0]].PredID != -1 {
		t.Errorf("first request pred = %d", byID[ids[0]].PredID)
	}
	if byID[ids[1]].PredID != ids[0] || byID[ids[2]].PredID != ids[1] {
		t.Error("sequential requests out of order")
	}
	// Hops equal tree distances between consecutive origins.
	if byID[ids[1]].Hops != 6 {
		t.Errorf("hops = %d, want dT(9,3) = 6", byID[ids[1]].Hops)
	}
}

func TestHopDelayOption(t *testing.T) {
	tr := tree.PathTree(4)
	net := New(tr, 0, Options{HopDelay: time.Millisecond})
	net.Start()
	finish := collect(net)
	start := time.Now()
	net.Request(3)
	net.Wait()
	if elapsed := time.Since(start); elapsed < 3*time.Millisecond {
		t.Errorf("3-hop request with 1ms hop delay finished in %v", elapsed)
	}
	finish()
}

func TestStopIdempotentAndGuards(t *testing.T) {
	tr := tree.PathTree(3)
	net := New(tr, 0, Options{})
	net.Start()
	finish := collect(net)
	finish()
	net.Stop() // second stop is a no-op
	defer func() {
		if recover() == nil {
			t.Error("Request after Stop should panic")
		}
	}()
	net.Request(1)
}

// TestRequestStopRace hammers Request against Stop (run with -race):
// every accepted request must complete before Stop returns, rejected
// ones must fail fast with ErrStopped, and nothing may deadlock — the
// regression this pins down is an issue racing past the running check
// into a node whose loop already exited, wedging Stop in wg.Wait().
func TestRequestStopRace(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		const n = 15
		tr := tree.BalancedBinary(n)
		net := New(tr, 0, Options{})
		net.Start()
		var accepted, completed int64
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			for range net.Completions() {
				completed++
			}
		}()
		var wg sync.WaitGroup
		start := make(chan struct{})
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				for i := 0; i < 50; i++ {
					if _, err := net.Submit(graph.NodeID((w*50+i)%n), 0); err != nil {
						return // network stopped underneath us
					}
					atomic.AddInt64(&accepted, 1)
				}
			}(w)
		}
		close(start)
		net.Stop() // races the issuers
		wg.Wait()
		<-drained
		if completed != atomic.LoadInt64(&accepted) {
			t.Fatalf("trial %d: accepted %d requests but %d completed",
				trial, atomic.LoadInt64(&accepted), completed)
		}
		if _, err := net.Submit(3, 0); !errors.Is(err, ErrStopped) {
			t.Fatalf("trial %d: Submit after Stop returned %v, want ErrStopped", trial, err)
		}
	}
}

// TestConcurrentStops: every Stop caller — including losers of the
// shutdown race — returns only after the network is fully stopped, and
// Stop before Start is a no-op.
func TestConcurrentStops(t *testing.T) {
	idle := New(tree.PathTree(3), 0, Options{})
	idle.Stop() // before Start: must return immediately

	// Stop racing Start (run with -race): Stop either no-ops (it beat
	// Start's locked section) or performs a full shutdown of an entirely
	// launched network — never a partial one.
	for i := 0; i < 50; i++ {
		net := New(tree.PathTree(4), 0, Options{})
		go func() {
			for range net.Completions() {
			}
		}()
		done := make(chan struct{})
		go func() {
			defer close(done)
			net.Stop()
		}()
		net.Start()
		<-done
		net.Stop() // idempotent regardless of which side won
	}

	tr := tree.BalancedBinary(7)
	net := New(tr, 0, Options{})
	net.Start()
	go func() {
		for range net.Completions() {
		}
	}()
	for i := 0; i < 20; i++ {
		net.Request(graph.NodeID(i % 7))
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			net.Stop()
			// Stop returned, so the network must be fully stopped:
			// LinksFor panics otherwise.
			net.LinksFor(0)
		}()
	}
	wg.Wait()
}

func TestLinksBeforeStopPanics(t *testing.T) {
	tr := tree.PathTree(3)
	net := New(tr, 0, Options{})
	net.Start()
	defer func() {
		if recover() == nil {
			t.Error("LinksFor before Stop should panic")
		}
		finish := collect(net)
		finish()
	}()
	net.LinksFor(0)
}

func TestManyRequestsFromSameNode(t *testing.T) {
	tr := tree.BalancedBinary(7)
	net := New(tr, 0, Options{})
	net.Start()
	finish := collect(net)
	for i := 0; i < 50; i++ {
		net.Request(4)
	}
	comps := finish()
	if len(comps) != 50 {
		t.Fatalf("%d completions, want 50", len(comps))
	}
	// After the first, every request from node 4 completes locally.
	local := 0
	for _, c := range comps {
		if c.Sink == 4 {
			local++
		}
	}
	if local < 49 {
		t.Errorf("only %d local completions, want >= 49", local)
	}
}
