// Distributed mutual exclusion over the live goroutine runtime — the
// application Raymond designed the protocol for. Every node is a
// goroutine; a node that wants the critical section queues a request and
// waits for the token. The protocol tells each request's predecessor who
// its successor is, and the token travels down that distributed queue. No
// node ever sees the global queue.
package main

import (
	"fmt"
	"log"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/runtime"
	"repro/internal/tree"
)

const (
	numNodes        = 15
	sectionsPerNode = 3
	totalSections   = numNodes * sectionsPerNode
)

// gates hands each request its token-arrival channel.
type gates struct {
	mu sync.Mutex
	m  map[int64]chan struct{}
}

func (g *gates) for_(reqID int64) chan struct{} {
	g.mu.Lock()
	defer g.mu.Unlock()
	ch, ok := g.m[reqID]
	if !ok {
		ch = make(chan struct{}, 1)
		g.m[reqID] = ch
	}
	return ch
}

func main() {
	t := tree.BalancedBinary(numNodes)
	net := runtime.New(t, 0, runtime.Options{})
	net.Start()

	gt := &gates{m: make(map[int64]chan struct{})}
	release := make(chan int64)

	// Token manager: walks the distributed queue as the protocol reveals
	// successor edges (completion c means "c.ReqID is queued behind
	// c.PredID"). It grants the token down the chain, waiting for each
	// holder's release. In a deployment this logic is one message from
	// predecessor to successor; the manager stands in for that message.
	managerDone := make(chan struct{})
	go func() {
		defer close(managerDone)
		succ := make(map[int64]int64)
		cur := int64(-1) // virtual root request holds the token initially
		granted := 0
		completions := net.Completions()
		for granted < totalSections {
			if next, ok := succ[cur]; ok {
				gt.for_(next) <- struct{}{} // token to successor
				if id := <-release; id != next {
					log.Fatalf("release from %d while token at %d", id, next)
				}
				cur = next
				granted++
				continue
			}
			c, ok := <-completions
			if !ok {
				log.Fatal("completions closed before all sections ran")
			}
			succ[c.PredID] = c.ReqID
		}
	}()

	var (
		wg      sync.WaitGroup
		inCS    atomic.Int32
		entered atomic.Int32
		orderMu sync.Mutex
		entries []graph.NodeID
	)
	for v := 0; v < numNodes; v++ {
		wg.Add(1)
		go func(v graph.NodeID) {
			defer wg.Done()
			for i := 0; i < sectionsPerNode; i++ {
				reqID, err := net.Submit(v, 0)
				if err != nil {
					log.Fatal(err)
				}
				<-gt.for_(reqID) // wait for the token

				if inCS.Add(1) != 1 {
					log.Fatal("mutual exclusion violated")
				}
				orderMu.Lock()
				entries = append(entries, v)
				orderMu.Unlock()
				entered.Add(1)
				inCS.Add(-1)

				release <- reqID // pass the token on
			}
		}(graph.NodeID(v))
	}

	wg.Wait()
	<-managerDone
	close(release)
	net.Stop()

	fmt.Printf("%d critical sections executed across %d nodes, mutual exclusion preserved\n",
		entered.Load(), numNodes)
	fmt.Printf("first 10 token holders: %v\n", entries[:10])
}
