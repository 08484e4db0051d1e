// Package runtime is a live, concurrent implementation of the arrow
// protocol. A tree node is passive state — its link pointers, one atomic
// state word (idle, held or pending) and a FIFO mailbox behind a mutex —
// and a tree edge is a delivery to the target. Nodes are activation-
// driven: a delivery that finds its target idle claims it with one
// compare-and-swap and parks the message in the node's head slot, and
// the goroutine that claimed the node processes its messages, unlocked.
// Only a delivery to a node that is already held takes the mutex,
// appends to the mailbox and marks the node pending. Submit walks its
// own request on the caller's goroutine, one step and one release per
// node it claims, so an uncontended path reversal costs the caller two
// compare-and-swaps per hop, no lock and no goroutine handoff. A node
// holding other requests' mail goes to a carrier goroutine: carriers
// serve only contention, and an idle network owns only its collector,
// whatever the number of nodes.
//
// This is the paper's asynchronous message-passing model: a node is held
// by at most one goroutine at a time, so it processes its messages one
// at a time, and a send completes its delivery before the sender moves
// on (only the target's processing is deferred), so every link is FIFO.
// Node state passes from one holder to the next through the state word
// (see node for its invariant). The runtime complements the
// deterministic simulator (package arrow) and runs the same two protocol
// steps, arrow.Start and arrow.Forward, on its own node-major link
// storage: the simulator measures the paper's cost model exactly, while
// this runtime demonstrates the protocol under real, racy concurrency
// (run the tests with -race).
//
// The runtime is a sharded multi-object service: Options.Objects runs k
// independent arrow instances over the same tree and the same nodes,
// object o rooted at its own home node, with Submit as the object-keyed
// request front door. Admission is bounded — with a positive
// MaxInFlight the network sheds load with a typed *OverloadError
// instead of queueing without limit, so mailbox and completion-backlog
// memory stay proportional to the admission window rather than the
// offered load.
package runtime

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arrow"
	"repro/internal/graph"
	"repro/internal/tree"
)

// Completion reports one queued request, delivered on the network's
// completions channel. PredID is -1 when the request was queued behind
// the virtual root request of its object.
type Completion struct {
	ReqID  int64
	PredID int64
	// Object is the shared object the request queued on (0 on
	// single-object networks).
	Object int32
	Origin graph.NodeID
	Sink   graph.NodeID
	Hops   int
}

// Options tunes a Network.
type Options struct {
	// HopDelay, if positive, delays each message hop to emulate network
	// latency in demonstrations. The goroutine carrying the message
	// sleeps, so a Submit sleeps the hops of its own request it walks.
	HopDelay time.Duration
	// Objects is the number of independent protocol instances the
	// network serves (0 and 1 both mean one object). Object o's tree is
	// the shared spanning tree re-rooted at (root + o) mod n, so the k
	// sink hotspots spread across the nodes.
	Objects int
	// MaxInFlight bounds admitted requests whose completion has not yet
	// been delivered on Completions, across all objects: Submit beyond
	// the bound fails fast with *OverloadError instead of growing node
	// mailboxes or the completion backlog without limit, so a stalled
	// consumer surfaces as overload, not as memory. 0 means unbounded
	// (the classic demonstration mode).
	MaxInFlight int
}

// ErrStopped is returned by Submit when the network is not accepting
// requests: before Start, after Stop, or once a concurrent Stop has
// begun shutting down.
var ErrStopped = errors.New("runtime: network not running")

// OverloadError is Submit's typed backpressure rejection: the admission
// window (Options.MaxInFlight) was full. The request was not enqueued;
// the caller may retry after completions drain.
type OverloadError struct {
	Node   graph.NodeID
	Object int32
	Limit  int
}

// Error implements error.
func (e *OverloadError) Error() string {
	return fmt.Sprintf("runtime: node %d rejected request for object %d: %d requests in flight",
		e.Node, e.Object, e.Limit)
}

// Network runs k sharded arrow instances over a spanning tree. Between
// Start and Stop it owns one collector goroutine and the carriers
// draining contended nodes; uncontended steps run on Submit's caller.
type Network struct {
	t       *tree.Tree
	root    graph.NodeID
	opts    Options
	objects int

	nodes   []*node
	nextReq atomic.Int64

	// The completion side. compMu orders complete calls, and delivery
	// on completions follows that order: a completion goes straight to
	// a parked consumer only while undelivered — the backlog items the
	// consumer has not received yet, including a batch the collector
	// has swapped out but not finished sending — is zero.
	compMu      sync.Mutex
	backlog     []Completion
	undelivered int
	wake        chan struct{} // 1 slot: the backlog went non-empty; closed by Stop
	completions chan Completion

	inflight sync.WaitGroup
	// inflightN mirrors the inflight WaitGroup as a readable counter:
	// admit increments it inside the admission window check, delivered
	// decrements it, so its value is the exact number of admitted
	// requests whose completion the consumer has not received.
	inflightN atomic.Int64
	rejected  atomic.Int64
	// mu orders request admission against shutdown: Submit holds the
	// read side while it checks running, counts and delivers its issue,
	// Stop holds the write side while it flips running, so an admitted
	// request is counted before Stop's quiescence wait starts and Stop
	// waits for the walk that follows, outside the lock.
	mu      sync.RWMutex
	started atomic.Bool
	running atomic.Bool
	stopped chan struct{}
	wg      sync.WaitGroup // carriers

	// onComplete, if set before Start, runs at the start of every
	// complete call: a test seam for refilling a node mid-turn.
	onComplete func()
}

// msg is the one node message: an issue (a request entering the
// protocol at this node) or a queue message travelling towards the
// sink. origin, from and hops are meaningful on queue messages only.
type msg struct {
	reqID  int64
	obj    int32
	issue  bool
	origin graph.NodeID
	from   graph.NodeID
	hops   int
	done   chan<- struct{} // issue only, optional: closed once initiation is processed
}

// The values of node.state.
const (
	idle    uint32 = iota // nobody holds the node
	held                  // a walk or a carrier holds the node
	pending               // the holder has mail to swap out
)

// node owns one slot of every object's pointer state: link[o] is the
// node's arrow for object o, lastReq[o] its most recent request on that
// object's queue. Both, and head, hasHead and spare, belong to the
// goroutine holding the node — a walking Submit or a carrier — from the
// delivery that claimed it until the holder's release; the state word
// hands them from one holder to the next. mu guards queue alone.
//
// A delivery to an idle node claims it with CAS(idle, held) and parks
// its message in head: no lock, no append. A delivery to a node that is
// not idle locks mu, appends to queue and, still under mu, publishes
// with Swap(pending): an old value of idle means it claimed the node
// (the holder left between its CAS and the publish), held or pending
// that the holder will find the mail. The holder handles head, then, if
// the state is pending, swaps the mailbox out under mu and stores held
// there, and releases with CAS(held, idle); a failed release means the
// node was refilled. Invariant: held implies the mailbox is empty,
// except while a deliverer holds mu between its append and its publish;
// only the holder leaves pending, and only the holder returns the node
// to idle.
type node struct {
	id      graph.NodeID
	link    []graph.NodeID
	lastReq []int64
	net     *Network

	state   atomic.Uint32
	hasHead bool
	head    msg // the message whose delivery claimed the node

	mu    sync.Mutex
	queue []msg // mailbox, FIFO
	spare []msg // the drained batch's buffer: queue and spare double-buffer
}

// New builds a network over tree t. Object 0's initial sink is root;
// object o's is (root + o) mod n, so multi-object networks spread their
// sinks over the whole tree.
func New(t *tree.Tree, root graph.NodeID, opts Options) *Network {
	n := t.NumNodes()
	if int(root) < 0 || int(root) >= n {
		panic(fmt.Sprintf("runtime: root %d out of range", root))
	}
	if opts.Objects < 0 {
		panic(fmt.Sprintf("runtime: Objects must be >= 0, got %d", opts.Objects))
	}
	if opts.MaxInFlight < 0 {
		panic(fmt.Sprintf("runtime: MaxInFlight must be >= 0, got %d", opts.MaxInFlight))
	}
	k := opts.Objects
	if k < 1 {
		k = 1
	}
	net := &Network{
		t:           t,
		root:        root,
		opts:        opts,
		objects:     k,
		nodes:       make([]*node, n),
		wake:        make(chan struct{}, 1),
		completions: make(chan Completion),
		stopped:     make(chan struct{}),
	}
	for v := 0; v < n; v++ {
		id := graph.NodeID(v)
		nd := &node{
			id:      id,
			link:    make([]graph.NodeID, k),
			lastReq: make([]int64, k),
			net:     net,
		}
		for o := 0; o < k; o++ {
			objRoot := graph.NodeID((int(root) + o) % n)
			if id == objRoot {
				nd.link[o] = id
			} else {
				nd.link[o] = t.NextHop(id, objRoot)
			}
			nd.lastReq[o] = -1
		}
		net.nodes[v] = nd
	}
	return net
}

// Objects returns the number of objects the network serves.
func (net *Network) Objects() int { return net.objects }

// Accepted returns the number of requests admitted so far.
func (net *Network) Accepted() int64 { return net.nextReq.Load() }

// Rejected returns the number of requests refused by the admission
// window (*OverloadError rejections; ErrStopped refusals don't count —
// they are lifecycle, not load).
func (net *Network) Rejected() int64 { return net.rejected.Load() }

// InFlight returns the number of admitted requests whose completion
// has not yet been delivered on Completions.
func (net *Network) InFlight() int64 { return net.inflightN.Load() }

// Start opens the network for requests and launches the collector, the
// one goroutine a network owns before its first request. It must be
// called exactly once.
func (net *Network) Start() {
	// Both flag flips happen under mu, so a Stop that observes
	// started==true inside its own locked section also observes
	// running==true (no phantom winner to wait for).
	net.mu.Lock()
	defer net.mu.Unlock()
	if !net.started.CompareAndSwap(false, true) {
		panic("runtime: Start called twice")
	}
	net.running.Store(true)
	go net.collect()
}

// complete queues c for the consumer without ever blocking the caller
// on a slow (or absent) one. When nothing is queued ahead of c it tries
// the consumer directly, which succeeds whenever the consumer is parked
// in receive; otherwise c joins the backlog the collector drains. The
// wake-up goes out under compMu, as walkers are not in wg (see Stop).
func (net *Network) complete(c Completion) {
	if net.onComplete != nil {
		net.onComplete()
	}
	net.compMu.Lock()
	if net.undelivered == 0 {
		select {
		case net.completions <- c:
			net.compMu.Unlock()
			net.delivered()
			return
		default:
		}
	}
	net.backlog = append(net.backlog, c)
	net.undelivered++
	select {
	case net.wake <- struct{}{}:
	default: // a wake-up is already pending
	}
	net.compMu.Unlock()
}

// delivered releases the admission slot of a request whose completion
// the consumer has received.
func (net *Network) delivered() {
	net.inflightN.Add(-1)
	net.inflight.Done()
}

// collect drains the completion backlog to the consumer in order, one
// swapped-out batch at a time, and parks on wake while it is empty.
// Stop closes wake once every completion is delivered; collect then
// closes the completions channel and marks the network stopped.
func (net *Network) collect() {
	var batch []Completion
	for {
		net.compMu.Lock()
		net.undelivered -= len(batch)
		batch, net.backlog = net.backlog, batch[:0]
		net.compMu.Unlock()
		for _, c := range batch {
			net.completions <- c
			net.delivered()
		}
		if len(batch) > 0 {
			continue
		}
		if _, open := <-net.wake; !open {
			close(net.completions)
			close(net.stopped)
			return
		}
	}
}

// Completions returns the channel on which queuing completions are
// delivered, in the order the requests completed. A slow consumer never
// stalls the protocol: undelivered completions queue in a backlog that
// the admission window bounds (each holds its slot until delivered) and
// that is unbounded with MaxInFlight 0. The channel is closed by Stop.
func (net *Network) Completions() <-chan Completion { return net.completions }

// Request asynchronously issues a queuing request for object 0 at node
// v and returns its request ID. The completion eventually appears on
// Completions. Requests racing Stop either get fully serviced (Stop
// waits for them) or fail fast — they are never silently dropped into a
// stopped node.
func (net *Network) Request(v graph.NodeID) int64 {
	id, err := net.Submit(v, 0)
	if err != nil {
		panic("runtime: " + err.Error())
	}
	return id
}

// Submit is the object-keyed request front door: it issues a queuing
// request for object obj at node v. It fails fast with ErrStopped when
// the network is not running and with a typed *OverloadError when the
// admission window (Options.MaxInFlight) is full; an accepted request
// is guaranteed to complete before Stop returns, with its completion on
// Completions. While the path is uncontended the caller's goroutine
// carries the request (see walk).
func (net *Network) Submit(v graph.NodeID, obj int32) (id int64, err error) {
	id, nd, err := net.admit(v, obj, nil)
	net.walk(nd)
	return id, err
}

// RequestSync issues a request for object 0 at v and waits until v's
// protocol initiation step has executed (not until queuing completes).
// Useful for tests that need a deterministic issue order.
func (net *Network) RequestSync(v graph.NodeID) int64 {
	done := make(chan struct{})
	id, nd, err := net.admit(v, 0, done)
	if err != nil {
		panic("runtime: " + err.Error())
	}
	net.walk(nd)
	<-done
	return id
}

// admit atomically checks that the network is running, applies the
// admission window, and delivers the issue message, with done to close
// once initiation is processed. It returns the node the delivery
// claimed, if any, for the caller to walk once admit has returned.
// Holding mu's read side across check+deliver closes the Submit/Stop
// race: once Stop's writer section flips running, no new issue can
// reach a node, and every issue that won the race is covered by Stop's
// quiescence wait.
func (net *Network) admit(v graph.NodeID, obj int32, done chan<- struct{}) (id int64, claimed *node, err error) {
	if int(v) < 0 || int(v) >= len(net.nodes) {
		return 0, nil, fmt.Errorf("runtime: node %d out of range", v)
	}
	if int(obj) < 0 || int(obj) >= net.objects {
		return 0, nil, fmt.Errorf("runtime: object %d out of range (network serves %d)", obj, net.objects)
	}
	net.mu.RLock()
	defer net.mu.RUnlock()
	if !net.running.Load() {
		return 0, nil, ErrStopped
	}
	// Reserve a slot only if one is free: the compare-and-swap never
	// publishes a count above the window, so neither the admitted load
	// nor a concurrent InFlight() reader ever sees more than MaxInFlight.
	if limit := net.opts.MaxInFlight; limit > 0 {
		for {
			n := net.inflightN.Load()
			if n >= int64(limit) {
				net.rejected.Add(1)
				return 0, nil, &OverloadError{Node: v, Object: obj, Limit: limit}
			}
			if net.inflightN.CompareAndSwap(n, n+1) {
				break
			}
		}
	} else {
		net.inflightN.Add(1)
	}
	id = net.nextReq.Add(1) - 1
	net.inflight.Add(1)
	if nd := net.nodes[v]; nd.deliver(msg{reqID: id, obj: obj, issue: true, done: done}) {
		claimed = nd
	}
	return id, claimed, nil
}

// Wait blocks until every accepted request's completion has been
// delivered on Completions (quiescence).
func (net *Network) Wait() { net.inflight.Wait() }

// Stop rejects further requests, waits until the accepted ones have
// completed and been delivered, then for the last carriers and the
// collector to exit, and closes the completions channel. A consumer
// must be draining Completions, otherwise Stop blocks until the
// remaining completions are read. Concurrent Stop calls all return only
// once the shutdown has fully finished; Stop before Start is a no-op.
// The network cannot be restarted.
func (net *Network) Stop() {
	// Flip running before waiting: a Submit serialized after this
	// point is rejected, one serialized before is counted in inflight,
	// so the Wait below observes a monotonically draining system.
	net.mu.Lock()
	started := net.started.Load()
	stopping := started && net.running.CompareAndSwap(true, false)
	net.mu.Unlock()
	if !started {
		return
	}
	if stopping {
		net.Wait()
		// A carrier starts only for a node holding a message in flight,
		// so none starts after the last completion. A walker is not in
		// wg: it wakes the collector under compMu, before its completion
		// can be delivered, and then touches only its node's state word.
		net.wg.Wait()
		close(net.wake)
	}
	// Winner or not, every caller returns only once the collector has
	// finished the shutdown.
	<-net.stopped
}

// LinksFor returns a snapshot of object obj's link pointers. Only valid
// after Stop (otherwise racy by construction).
func (net *Network) LinksFor(obj int32) []graph.NodeID {
	select {
	case <-net.stopped:
	default:
		panic("runtime: LinksFor before Stop")
	}
	if int(obj) < 0 || int(obj) >= net.objects {
		panic(fmt.Sprintf("runtime: object %d out of range (network serves %d)", obj, net.objects))
	}
	links := make([]graph.NodeID, len(net.nodes))
	for i, nd := range net.nodes {
		links[i] = nd.link[obj]
	}
	return links
}

// deliver hands m to the node and reports whether that claimed the
// node: it was idle, and the caller now holds it. An idle node takes m
// in its head slot; a held one in its mailbox.
func (nd *node) deliver(m msg) (claimed bool) {
	if nd.state.CompareAndSwap(idle, held) {
		nd.head, nd.hasHead = m, true
		return true
	}
	nd.mu.Lock()
	nd.queue = append(nd.queue, m)
	claimed = nd.state.Swap(pending) == idle
	nd.mu.Unlock()
	return claimed
}

// walk carries the caller's request from cur, the node its issue
// claimed: per node it runs the head message's step, which is the
// request's, releases the node and moves to the node the send claimed,
// until a send claims none. It never runs another request's step: a
// node claimed through the locked path (the message is in the mailbox)
// or refilled before its release goes to a carrier.
func (net *Network) walk(cur *node) {
	for cur != nil {
		if !cur.hasHead {
			net.dispatch(cur)
			return
		}
		cur.hasHead = false
		next := cur.step(&cur.head)
		if !cur.state.CompareAndSwap(held, idle) {
			net.dispatch(cur)
		}
		cur = next
	}
}

// dispatch starts a carrier for nd, which the caller claimed and will
// not drain itself.
func (net *Network) dispatch(nd *node) {
	net.wg.Add(1)
	go net.carry(nd)
}

// carry drains claimed nodes, starting at cur, until it holds none. Per
// turn it handles cur's head message, if a delivery parked one, then,
// if cur is pending, one batch swapped out of its mailbox, unlocked, and
// tries to release cur. Of the nodes its sends claim it keeps one (next)
// to drain itself and dispatches each further one. If cur refilled
// during the turn and next is held, the two swap: a hot node cannot
// starve the chain behind it.
func (net *Network) carry(cur *node) {
	defer net.wg.Done()
	var next *node
	for cur != nil {
		if cur.hasHead {
			cur.hasHead = false
			next = net.handle(cur, &cur.head, next)
		}
		if cur.state.Load() == pending {
			cur.mu.Lock()
			batch := cur.queue
			cur.queue = cur.spare
			cur.state.Store(held)
			cur.mu.Unlock()
			for i := range batch {
				next = net.handle(cur, &batch[i], next)
			}
			cur.spare = batch[:0]
		}
		if cur.state.CompareAndSwap(held, idle) {
			cur, next = next, nil
		} else if next != nil {
			cur, next = next, cur
		}
	}
}

// handle runs m's protocol step at nd. It returns the node the carrier
// drains next: the one m's send claimed if next is nil, else next, with
// the claimed node dispatched.
func (net *Network) handle(nd *node, m *msg, next *node) *node {
	switch to := nd.step(m); {
	case to == nil:
	case next == nil:
		return to
	default:
		net.dispatch(to)
	}
	return next
}

// step runs m's protocol step at nd. initiate and pathReversal run the
// protocol's two steps, arrow.Start and arrow.Forward, on the node's
// link cell for the message's object. Each returns the node its send
// claimed, if any.
func (nd *node) step(m *msg) *node {
	if m.issue {
		return nd.initiate(m)
	}
	return nd.pathReversal(m)
}

func (nd *node) initiate(m *msg) *node {
	if m.done != nil {
		defer close(m.done)
	}
	o := m.obj
	target, local := arrow.Start(&nd.link[o], nd.id)
	pred := nd.lastReq[o]
	nd.lastReq[o] = m.reqID
	if local {
		nd.net.complete(Completion{
			ReqID: m.reqID, PredID: pred, Object: o,
			Origin: nd.id, Sink: nd.id,
		})
		return nil
	}
	return nd.send(target, msg{reqID: m.reqID, obj: o, origin: nd.id, from: nd.id, hops: 1})
}

func (nd *node) pathReversal(m *msg) *node {
	o := m.obj
	next, done := arrow.Forward(&nd.link[o], nd.id, m.from)
	if !done {
		fwd := *m
		fwd.from = nd.id
		fwd.hops++
		return nd.send(next, fwd)
	}
	nd.net.complete(Completion{
		ReqID:  m.reqID,
		PredID: nd.lastReq[o],
		Object: o,
		Origin: m.origin,
		Sink:   nd.id,
		Hops:   m.hops,
	})
	return nil
}

func (nd *node) send(to graph.NodeID, m msg) *node {
	if d := nd.net.opts.HopDelay; d > 0 {
		time.Sleep(d)
	}
	if target := nd.net.nodes[to]; target.deliver(m) {
		return target
	}
	return nil
}
