// Package runtime is a live, goroutine-based implementation of the arrow
// protocol: every tree node is a goroutine owning its link pointers, and
// tree edges are channel-backed FIFO mailboxes — the natural Go embedding
// of the paper's asynchronous message-passing model. It complements the
// deterministic simulator (package arrow): the simulator measures the
// paper's cost model exactly, while this runtime demonstrates the protocol
// under real, racy concurrency (run the tests with -race).
//
// The runtime is a sharded multi-object service: Options.Objects runs k
// independent arrow instances over the same tree and the same node
// goroutines, object o rooted at its own home node, with Submit as the
// object-keyed request front door. Admission is bounded — with a
// positive MaxInFlight the network sheds load with a typed
// *OverloadError instead of queueing without limit, so mailbox memory
// stays proportional to the admission window rather than the offered
// load.
//
// State is never shared: each node's link and lastReq entries are touched
// only by its own goroutine, and all coordination flows through channels.
package runtime

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

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
	At     time.Time
}

// Options tunes a Network.
type Options struct {
	// HopDelay, if positive, delays each message hop to emulate network
	// latency in demonstrations.
	HopDelay time.Duration
	// Clock supplies Completion.At timestamps; nil defaults to time.Now.
	// Tests inject a fixed clock here so completion records compare
	// deterministically; the live network is wall-clock by design
	// everywhere else (see the runtime-vs-sim agreement check).
	Clock func() time.Time
	// Objects is the number of independent protocol instances the
	// network serves (0 and 1 both mean one object). Object o's tree is
	// the shared spanning tree re-rooted at (root + o) mod n, so the k
	// sink hotspots spread across the nodes.
	Objects int
	// MaxInFlight bounds admitted-but-uncompleted requests across all
	// objects: Submit beyond the bound fails fast with *OverloadError
	// instead of growing node mailboxes without limit. 0 means
	// unbounded (the classic demonstration mode).
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

// Network runs k sharded arrow instances over a spanning tree with one
// goroutine per node.
type Network struct {
	t       *tree.Tree
	root    graph.NodeID
	opts    Options
	objects int

	nodes       []*node
	compIn      chan Completion
	completions chan Completion
	collectorWg sync.WaitGroup
	nextReq     atomic.Int64
	inflight    sync.WaitGroup
	// inflightN mirrors the inflight WaitGroup as a readable counter:
	// admit increments it inside the admission window check, complete
	// decrements it, so its value is the exact number of admitted,
	// uncompleted requests.
	inflightN atomic.Int64
	accepted  atomic.Int64
	rejected  atomic.Int64
	// mu orders request admission against shutdown: Submit holds the
	// read side while it checks running and enqueues, Stop holds the
	// write side while it flips running. Without it a Submit racing
	// Stop could pass the running check, then enqueue into a node whose
	// loop already exited — the mailbox would never drain and Stop would
	// deadlock in wg.Wait().
	mu      sync.RWMutex
	started atomic.Bool
	running atomic.Bool
	stopped chan struct{}
	wg      sync.WaitGroup
}

// message is the node-loop message family. The marker method makes the
// family checkable: arrowlint's msgswitch analyzer requires every type
// switch over it to list all three members.
type message interface{ isRuntimeMsg() }

type queueMsg struct {
	reqID  int64
	obj    int32
	origin graph.NodeID
	from   graph.NodeID
	hops   int
}

type issueMsg struct {
	reqID int64
	obj   int32
	done  chan<- struct{} // optional: closed once initiation is processed
}

type stopMsg struct{}

func (queueMsg) isRuntimeMsg() {}
func (issueMsg) isRuntimeMsg() {}
func (stopMsg) isRuntimeMsg()  {}

// node owns one slot of every object's pointer state: link[o] is the
// node's arrow for object o, lastReq[o] its most recent request on that
// object's queue. Both are touched only by the node's own goroutine.
type node struct {
	id      graph.NodeID
	link    []graph.NodeID
	lastReq []int64
	in      chan message // unbounded mailbox input
	out     chan message // node loop reads here
	net     *Network
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
	if opts.Clock == nil {
		opts.Clock = time.Now
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
		compIn:      make(chan Completion, 16),
		completions: make(chan Completion),
		stopped:     make(chan struct{}),
	}
	for v := 0; v < n; v++ {
		id := graph.NodeID(v)
		nd := &node{
			id:      id,
			link:    make([]graph.NodeID, k),
			lastReq: make([]int64, k),
			in:      make(chan message, 16),
			out:     make(chan message),
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
func (net *Network) Accepted() int64 { return net.accepted.Load() }

// Rejected returns the number of requests refused by the admission
// window (*OverloadError rejections; ErrStopped refusals don't count —
// they are lifecycle, not load).
func (net *Network) Rejected() int64 { return net.rejected.Load() }

// InFlight returns the number of admitted, uncompleted requests.
func (net *Network) InFlight() int64 { return net.inflightN.Load() }

// Start launches the node goroutines. It must be called exactly once.
func (net *Network) Start() {
	// The whole launch — flag flips AND every wg.Add/goroutine spawn —
	// happens under mu, so a Stop that observes started==true inside
	// its own locked section also observes running==true (no phantom
	// winner to wait for) and a fully populated WaitGroup (its Wait
	// cannot interleave with these Adds, which would be WaitGroup
	// misuse and let Stop return before the nodes even exist).
	net.mu.Lock()
	defer net.mu.Unlock()
	if !net.started.CompareAndSwap(false, true) {
		panic("runtime: Start called twice")
	}
	net.running.Store(true)
	for _, nd := range net.nodes {
		net.wg.Add(2)
		go nd.mailbox()
		go nd.run()
	}
	net.collectorWg.Add(1)
	go net.collect()
}

// collect pumps completions from the bounded internal channel to the
// public channel through an unbounded buffer, so protocol goroutines never
// block on a slow (or absent) consumer.
func (net *Network) collect() {
	defer net.collectorWg.Done()
	var buf []Completion
	in := net.compIn
	for in != nil || len(buf) > 0 {
		var out chan Completion
		var head Completion
		if len(buf) > 0 {
			out = net.completions
			head = buf[0]
		}
		select {
		case c, ok := <-in:
			if !ok {
				in = nil
				continue
			}
			buf = append(buf, c)
		case out <- head:
			buf = buf[1:]
		}
	}
	close(net.completions)
}

// Completions returns the channel on which queuing completions are
// delivered. Delivery is unbounded (slow consumers never stall the
// protocol); the channel is closed by Stop.
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

// TryRequest is Request that reports rejection instead of panicking:
// ok is false when the network is not running or the admission window
// is full. A request accepted here is guaranteed to complete before
// Stop returns.
func (net *Network) TryRequest(v graph.NodeID) (id int64, ok bool) {
	id, err := net.Submit(v, 0)
	return id, err == nil
}

// Submit is the object-keyed request front door: it issues a queuing
// request for object obj at node v. It fails fast with ErrStopped when
// the network is not running and with a typed *OverloadError when the
// admission window (Options.MaxInFlight) is full; an accepted request
// is guaranteed to complete before Stop returns, with its completion on
// Completions.
func (net *Network) Submit(v graph.NodeID, obj int32) (id int64, err error) {
	id, _, err = net.admit(v, obj, false)
	return id, err
}

// RequestSync issues a request for object 0 at v and waits until v's
// protocol initiation step has executed (not until queuing completes).
// Useful for tests that need a deterministic issue order.
func (net *Network) RequestSync(v graph.NodeID) int64 {
	id, done, err := net.admit(v, 0, true)
	if err != nil {
		panic("runtime: " + err.Error())
	}
	<-done
	return id
}

// admit atomically checks that the network is running, applies the
// admission window, and enqueues the issue message. Holding mu's read
// side across check+enqueue closes the Submit/Stop race: once Stop's
// writer section flips running, no new issue can reach a mailbox, and
// every issue that won the race is covered by Stop's quiescence wait.
func (net *Network) admit(v graph.NodeID, obj int32, sync bool) (id int64, done chan struct{}, err error) {
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
	net.accepted.Add(1)
	if sync {
		done = make(chan struct{})
	}
	net.nodes[v].in <- issueMsg{reqID: id, obj: obj, done: done}
	return id, done, nil
}

// Wait blocks until every issued request has completed (quiescence).
func (net *Network) Wait() { net.inflight.Wait() }

// Stop rejects further requests, waits for quiescence of the accepted
// ones, terminates all goroutines, and closes the completions channel
// (after all buffered completions are delivered). A consumer must be
// draining Completions, otherwise Stop blocks until the remaining
// completions are read. Concurrent Stop calls all return only once the
// shutdown has fully finished; Stop before Start is a no-op. The
// network cannot be restarted.
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
	if !stopping {
		// Another Stop won the race (or already finished): hold every
		// caller to Stop's contract by waiting for that shutdown.
		<-net.stopped
		return
	}
	net.Wait()
	for _, nd := range net.nodes {
		nd.in <- stopMsg{}
	}
	net.wg.Wait()
	close(net.compIn)
	net.collectorWg.Wait()
	close(net.stopped)
}

// Links returns a snapshot of object 0's link pointers. Only valid
// after Stop (otherwise racy by construction).
func (net *Network) Links() []graph.NodeID { return net.LinksFor(0) }

// LinksFor returns a snapshot of object obj's link pointers. Only valid
// after Stop (otherwise racy by construction).
func (net *Network) LinksFor(obj int32) []graph.NodeID {
	select {
	case <-net.stopped:
	default:
		panic("runtime: Links before Stop")
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

// mailbox pumps messages from the unbounded input buffer to the node
// loop, preserving FIFO order. Buffering in a goroutine-owned slice keeps
// protocol sends non-blocking, which rules out channel deadlock between
// mutually sending neighbours; with a positive MaxInFlight the buffer is
// additionally bounded by the admission window (each admitted request
// contributes at most one buffered message per node).
func (nd *node) mailbox() {
	defer nd.net.wg.Done()
	var buf []message
	in := nd.in
	for in != nil || len(buf) > 0 {
		var out chan message
		var head message
		if len(buf) > 0 {
			out = nd.out
			head = buf[0]
		}
		select {
		case m, ok := <-in:
			if !ok {
				in = nil
				continue
			}
			buf = append(buf, m)
			if _, stop := m.(stopMsg); stop {
				in = nil
			}
		case out <- head:
			buf = buf[1:]
		}
	}
	close(nd.out)
}

func (nd *node) run() {
	defer nd.net.wg.Done()
	for m := range nd.out {
		switch msg := m.(type) {
		case issueMsg:
			nd.initiate(msg)
		case queueMsg:
			nd.pathReversal(msg)
		case stopMsg:
			// Drain is unnecessary: Stop only runs after quiescence.
			return
		default:
			panic(fmt.Sprintf("runtime: unexpected message %T", m))
		}
	}
}

func (nd *node) initiate(msg issueMsg) {
	if msg.done != nil {
		defer close(msg.done)
	}
	o := msg.obj
	if nd.link[o] == nd.id {
		pred := nd.lastReq[o]
		nd.lastReq[o] = msg.reqID
		nd.complete(Completion{
			ReqID: msg.reqID, PredID: pred, Object: o,
			Origin: nd.id, Sink: nd.id, At: nd.net.opts.Clock(),
		})
		return
	}
	target := nd.link[o]
	nd.lastReq[o] = msg.reqID
	nd.link[o] = nd.id
	nd.send(target, queueMsg{reqID: msg.reqID, obj: o, origin: nd.id, from: nd.id, hops: 1})
}

func (nd *node) pathReversal(msg queueMsg) {
	o := msg.obj
	next := nd.link[o]
	nd.link[o] = msg.from
	if next != nd.id {
		fwd := msg
		fwd.from = nd.id
		fwd.hops++
		nd.send(next, fwd)
		return
	}
	nd.complete(Completion{
		ReqID:  msg.reqID,
		PredID: nd.lastReq[o],
		Object: o,
		Origin: msg.origin,
		Sink:   nd.id,
		Hops:   msg.hops,
		At:     nd.net.opts.Clock(),
	})
}

func (nd *node) send(to graph.NodeID, msg queueMsg) {
	if d := nd.net.opts.HopDelay; d > 0 {
		time.Sleep(d)
	}
	nd.net.nodes[to].in <- msg
}

func (nd *node) complete(c Completion) {
	nd.net.compIn <- c
	nd.net.inflightN.Add(-1)
	nd.net.inflight.Done()
}
