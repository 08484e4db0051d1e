package runtime

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/arrow"
	"repro/internal/graph"
	"repro/internal/tree"
)

// TestMultiObjectTotalOrders checks the sharded service's core
// correctness claim under real concurrency: each object's completions
// form their own total order (unique predecessors, one chain from the
// virtual root), independent of the interleaving with every other
// object's traffic on the same nodes and mailboxes.
func TestMultiObjectTotalOrders(t *testing.T) {
	const n, k, requests = 31, 8, 400
	tr := tree.BalancedBinary(n)
	net := New(tr, 0, Options{Objects: k})
	net.Start()
	finish := collect(net)

	rng := rand.New(rand.NewSource(1))
	type target struct {
		node graph.NodeID
		obj  int32
	}
	targets := make([]target, requests)
	for i := range targets {
		targets[i] = target{graph.NodeID(rng.Intn(n)), int32(rng.Intn(k))}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := w; j < requests; j += 8 {
				if _, err := net.Submit(targets[j].node, targets[j].obj); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	comps := finish()
	if len(comps) != requests {
		t.Fatalf("%d completions, want %d", len(comps), requests)
	}
	chains := make([][]queued, k)
	for _, c := range comps {
		chains[c.Object] = append(chains[c.Object], queued{c.ReqID, c.PredID})
	}
	for o, chain := range chains {
		if err := checkChain(chain); err != nil {
			t.Fatalf("object %d: %v", o, err)
		}
	}
	// Every object's pointer state must independently satisfy the sink
	// reachability invariant on its own re-rooted tree.
	for o := int32(0); o < k; o++ {
		if _, err := arrow.VerifySinkReachability(tr, net.LinksFor(o)); err != nil {
			t.Errorf("object %d: %v", o, err)
		}
	}
}

// TestSubmitValidation covers the front door's refusal cases: out of
// range coordinates, and the lifecycle rejection after Stop.
func TestSubmitValidation(t *testing.T) {
	tr := tree.BalancedBinary(7)
	net := New(tr, 0, Options{Objects: 4})
	net.Start()
	if _, err := net.Submit(3, 4); err == nil {
		t.Error("object beyond the served range was accepted")
	}
	if _, err := net.Submit(3, -1); err == nil {
		t.Error("negative object was accepted")
	}
	if _, err := net.Submit(7, 0); err == nil {
		t.Error("node beyond the tree was accepted")
	}
	go func() {
		for range net.Completions() {
		}
	}()
	net.Stop()
	if _, err := net.Submit(3, 0); !errors.Is(err, ErrStopped) {
		t.Errorf("Submit after Stop returned %v, want ErrStopped", err)
	}
}

// TestAdmissionRejection saturates a tiny admission window and checks
// the backpressure contract: overloads surface as typed *OverloadError,
// every rejection is counted, no accepted request is lost, and the
// in-flight gauge ends at zero.
func TestAdmissionRejection(t *testing.T) {
	const n, limit, attempts = 15, 2, 400
	tr := tree.BalancedBinary(n)
	// The hop delay keeps admitted requests in flight long enough that
	// concurrent submitters must overrun the window.
	net := New(tr, 0, Options{
		Objects:     4,
		MaxInFlight: limit,
		HopDelay:    50 * time.Microsecond,
	})
	net.Start()
	finish := collect(net)

	var overloads, accepted int64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < attempts/8; i++ {
				_, err := net.Submit(graph.NodeID(rng.Intn(n)), int32(rng.Intn(4)))
				var ov *OverloadError
				switch {
				case err == nil:
					atomic.AddInt64(&accepted, 1)
				case errors.As(err, &ov):
					atomic.AddInt64(&overloads, 1)
					if ov.Limit != limit {
						t.Errorf("overload reports limit %d, want %d", ov.Limit, limit)
					}
				default:
					t.Errorf("unexpected error: %v", err)
				}
				if g := net.InFlight(); g > limit {
					t.Errorf("in-flight gauge %d exceeds limit %d", g, limit)
				}
			}
		}(w)
	}
	wg.Wait()
	comps := finish()

	if overloads == 0 {
		t.Error("saturating a window of 2 produced no overload rejections")
	}
	if got := net.Rejected(); got != overloads {
		t.Errorf("Rejected() = %d, observed %d overload errors", got, overloads)
	}
	if got := net.Accepted(); got != accepted {
		t.Errorf("Accepted() = %d, observed %d accepted submissions", got, accepted)
	}
	if int64(len(comps)) != accepted {
		t.Errorf("%d completions for %d accepted requests", len(comps), accepted)
	}
	if g := net.InFlight(); g != 0 {
		t.Errorf("in-flight gauge %d after quiescence", g)
	}
}

// TestSoakShardedService drives the sharded service at scale under the
// race detector: >= 1M requests across >= 1k objects from concurrent
// clients against a bounded admission window. It asserts zero lost
// requests (every accepted request completes, per object), typed and
// counted rejections, and an in-flight gauge that respects the window
// and drains to zero. Memory stays bounded by construction — the
// admission window caps mailbox growth and the drain counts rather
// than buffers completions — so the soak's footprint is independent of
// the request count.
func TestSoakShardedService(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped with -short")
	}
	const (
		n       = 32
		k       = 1024
		total   = 1_000_000
		limit   = 8192
		clients = 16
	)
	tr := tree.BalancedBinary(n)
	net := New(tr, 0, Options{Objects: k, MaxInFlight: limit})
	net.Start()

	// Count completions per object instead of buffering them: the soak
	// verifies conservation, not records.
	compCounts := make([]int64, k)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for c := range net.Completions() {
			atomic.AddInt64(&compCounts[c.Object], 1)
		}
	}()

	subCounts := make([]int64, k)
	var issued int64
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 100))
			for {
				if atomic.AddInt64(&issued, 1) > total {
					return
				}
				v := graph.NodeID(rng.Intn(n))
				obj := int32(rng.Intn(k))
				for {
					_, err := net.Submit(v, obj)
					if err == nil {
						atomic.AddInt64(&subCounts[obj], 1)
						break
					}
					var ov *OverloadError
					if !errors.As(err, &ov) {
						t.Errorf("unexpected error: %v", err)
						return
					}
					// Backpressure: yield and retry the same request.
					runtime.Gosched()
				}
			}
		}(w)
	}
	wg.Wait()
	net.Stop()
	<-drained

	if got := net.Accepted(); got != total {
		t.Errorf("Accepted() = %d, want %d", got, total)
	}
	var lost int64
	for o := 0; o < k; o++ {
		if compCounts[o] != subCounts[o] {
			lost++
			t.Errorf("object %d: %d completions for %d accepted requests",
				o, compCounts[o], subCounts[o])
		}
	}
	if lost == 0 {
		var comps int64
		for o := 0; o < k; o++ {
			comps += compCounts[o]
		}
		if comps != total {
			t.Errorf("%d total completions, want %d", comps, total)
		}
	}
	if g := net.InFlight(); g != 0 {
		t.Errorf("in-flight gauge %d after shutdown", g)
	}
	t.Logf("soak: %d requests, %d objects, %d rejections under limit %d",
		total, k, net.Rejected(), limit)
}
