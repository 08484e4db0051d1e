package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/tree"
)

// rtLive is runtime-live: the goroutine runtime under a closed loop of
// two clients. A queuing client waits for its predecessor, so each
// client submits its next request only once the previous one completed.
// HopDelay is zero: the latency measured is processor plus Go scheduler
// time, not an emulated network.
type rtLive struct {
	seed      int64
	t         *tree.Tree
	objects   int
	perClient int
}

// rtClients is the closed loop's client count.
const rtClients = maxLoadWorkers

// rtMaxInFlight is the admission window; two closed-loop clients never
// fill it, so a rejection is a failure, not load shedding.
const rtMaxInFlight = 64

func setupRuntime(seed int64, sz sizes) (instance, error) {
	return &rtLive{seed: seed, t: tree.BalancedBinary(sz.rtNodes), objects: sz.rtObjects, perClient: sz.rtPerClient}, nil
}

// runtimeOutcome is what one runtime-live unit observed, in host time.
type runtimeOutcome struct {
	accepted int64
	rejected int64
	hops     int64
	// Per completed request, nanoseconds: inside Submit, from Submit's
	// return to the completion being observed, and the two together.
	submitNS []float64
	waitNS   []float64
	totalNS  []float64
	stopS    float64
}

// link is one edge of an object's queue: req was queued behind pred.
type link struct{ req, pred int64 }

// xorshift is the load generator's private PRNG: the node/object
// sequence is a pure function of the seed.
type xorshift uint64

// newXorshift derives a generator from the workload seed and a stream
// index; its state is never zero, where xorshift would stay.
func newXorshift(seed int64, stream int) xorshift {
	return xorshift(uint64(sim.DeriveSeed(seed, stream)) | 1)
}

func (x *xorshift) next() uint64 {
	*x ^= *x << 13
	*x ^= *x >> 7
	*x ^= *x << 17
	return uint64(*x)
}

func (r *rtLive) unit(_ bool, div int, tr *tracer) (unit, error) {
	perClient := max(1, r.perClient/div)
	n := r.t.NumNodes()
	net := runtime.New(r.t, 0, runtime.Options{Objects: r.objects, MaxInFlight: rtMaxInFlight})
	net.Start()

	// The dispatcher owns the completions channel. A completion carries
	// its origin node, and client c only ever submits at nodes ≡ c
	// (mod rtClients), so the origin routes it back to its client. The
	// per-client channel holds one completion: a closed-loop client has
	// at most one request outstanding.
	toClient := make([]chan runtime.Completion, rtClients)
	for c := range toClient {
		toClient[c] = make(chan runtime.Completion, 1)
	}
	chains := make([][]link, r.objects)
	completions := int64(0)
	dispatched := make(chan struct{})
	go func() {
		defer close(dispatched)
		for c := range net.Completions() {
			completions++
			chains[c.Object] = append(chains[c.Object], link{c.ReqID, c.PredID})
			toClient[int(c.Origin)%rtClients] <- c
		}
	}()

	ro := &runtimeOutcome{}
	type clientLog struct {
		submitNS, waitNS, totalNS []float64
		hops                      int64
		err                       error
	}
	logs := make([]clientLog, rtClients)
	nodesPerClient := (n + rtClients - 1) / rtClients

	client := func(c int, parent int32) {
		lg := &logs[c]
		lg.submitNS = make([]float64, 0, perClient)
		lg.waitNS = make([]float64, 0, perClient)
		lg.totalNS = make([]float64, 0, perClient)
		rng := newXorshift(r.seed, c)
		for i := 0; i < perClient; i++ {
			x := rng.next()
			v := int(x%uint64(nodesPerClient))*rtClients + c
			if v >= n {
				v -= rtClients
			}
			obj := int32((x >> 32) % uint64(r.objects))
			t0 := time.Now()
			id, err := net.Submit(graph.NodeID(v), obj)
			t1 := time.Now()
			if err != nil {
				var over *runtime.OverloadError
				if !errors.As(err, &over) {
					lg.err = fmt.Errorf("client %d: submit: %w", c, err)
					return
				}
				continue
			}
			done := <-toClient[c]
			t2 := time.Now()
			if tr != nil && i%sampleEvery == 0 {
				req := tr.record("runtime.request", parent, t0, t2)
				tr.record("runtime.submit", req, t0, t1)
				tr.record("runtime.wait", req, t1, t2)
			}
			if done.ReqID != id {
				lg.err = fmt.Errorf("client %d: submitted request %d, observed completion of %d", c, id, done.ReqID)
				return
			}
			lg.hops += int64(done.Hops)
			lg.submitNS = append(lg.submitNS, float64(t1.Sub(t0)))
			lg.waitNS = append(lg.waitNS, float64(t2.Sub(t1)))
			lg.totalNS = append(lg.totalNS, float64(t2.Sub(t0)))
		}
	}

	run := func(parent int32) (*outcome, error) {
		span := tr.start("runtime.load", parent)
		var wg sync.WaitGroup
		for c := 0; c < rtClients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				client(c, span)
			}()
		}
		wg.Wait()
		tr.end(span)
		o := &outcome{rt: ro, attempted: int64(rtClients * perClient)}
		for c := range logs {
			lg := &logs[c]
			if lg.err != nil {
				o.fail("%v", lg.err)
			}
			ro.hops += lg.hops
			ro.submitNS = append(ro.submitNS, lg.submitNS...)
			ro.waitNS = append(ro.waitNS, lg.waitNS...)
			ro.totalNS = append(ro.totalNS, lg.totalNS...)
		}
		// Attempted requests that never completed — refused, errored, or
		// abandoned by a client that gave up — all count as failed.
		o.failed = o.attempted - int64(len(ro.totalNS))
		o.sim.Requests = int64(len(ro.totalNS))
		return o, nil
	}

	teardown := func(o *outcome) {
		start := time.Now()
		net.Stop()
		<-dispatched
		ro.stopS = time.Since(start).Seconds()
		ro.accepted, ro.rejected = net.Accepted(), net.Rejected()
		if ro.accepted != completions {
			o.fail("runtime accepted %d requests but delivered %d completions", ro.accepted, completions)
		}
		if got := net.InFlight(); got != 0 {
			o.fail("runtime reports %d requests in flight after Stop", got)
		}
		if ro.rejected != 0 {
			o.fail("runtime rejected %d requests inside a %d-request admission window", ro.rejected, rtMaxInFlight)
		}
		for obj, chain := range chains {
			if err := checkChain(chain); err != nil {
				o.fail("object %d: %v", obj, err)
			}
		}
	}
	return unit{run: run, teardown: teardown}, nil
}

// checkChain verifies the paper's total-order guarantee on one object's
// completions: the (request, predecessor) pairs form a single chain that
// starts at the virtual root request -1 and passes through every request
// exactly once (a request completing twice would put a cycle or a fork in
// the chain).
func checkChain(chain []link) error {
	next := make(map[int64]int64, len(chain))
	for _, l := range chain {
		if succ, dup := next[l.pred]; dup {
			return fmt.Errorf("requests %d and %d both queued behind %d", succ, l.req, l.pred)
		}
		next[l.pred] = l.req
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
