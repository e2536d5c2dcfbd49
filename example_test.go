package klocal_test

import (
	"fmt"

	"klocal"
)

// Route a message on a ring with the fully oblivious ⌊n/2⌋-local
// algorithm: it follows a shortest path (Theorem 8).
func ExampleRoute() {
	g := klocal.Cycle(12)
	alg := klocal.Algorithm3()
	res := klocal.Route(alg, g, alg.MinK(g.N()), 0, 5)
	fmt.Println(res.Outcome, res.Len(), "hops, dilation", res.Dilation())
	// Output: delivered 5 hops, dilation 1
}

// Algorithm 1 delivers at k = ⌈n/4⌉ with dilation below 7; on the
// Figure 13 extremal family its route is exactly 2n−k−3.
func ExampleAlgorithm1() {
	f, err := klocal.NewFig13(40, 10)
	if err != nil {
		fmt.Println(err)
		return
	}
	res := klocal.Route(klocal.Algorithm1(), f.G, 10, f.S, f.T)
	fmt.Println(res.Outcome, res.Len() == 2*40-10-3)
	// Output: delivered true
}

// The message-passing network simulator: nodes discover their
// k-neighbourhoods with a TTL-scoped flood, then route hop by hop.
func ExampleNewNetwork() {
	g := klocal.Cycle(10)
	alg := klocal.Algorithm2()
	nw := klocal.NewNetwork(g, alg.MinK(g.N()), alg)
	nw.Start()
	defer nw.Stop()
	if err := nw.Discover(); err != nil {
		fmt.Println(err)
		return
	}
	route, err := nw.Send(0, 4)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(route)
	// Output: [0 1 2 3 4]
}

// Below the n/4 threshold, every admissible strategy is defeated by some
// member of the Theorem 1 family.
func ExampleReplayTheorem1() {
	rep, err := klocal.ReplayTheorem1(19)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(len(rep.Strategies), "strategies, all defeated:", rep.EveryStrategyDefeated())
	// Output: 6 strategies, all defeated: true
}

// The consistent subgraph (Lemmas 3 and 5): still connected, but with no
// cycle of length ≤ 2k.
func ExampleConsistentSubgraph() {
	g := klocal.Complete(6)
	sub := klocal.ConsistentSubgraph(g, 2)
	fmt.Println("connected:", sub.Connected(), "girth >", 4, ":", sub.Girth() > 4)
	// Output: connected: true girth > 4 : true
}

// Face routing (Section 3) delivers on the plane trap that defeats greedy
// routing, at the cost of message-carried state.
func ExampleFaceRoute() {
	trap := klocal.GreedyTrap()
	greedy := klocal.Route(klocal.GreedyRouting(trap.Emb), trap.Emb.G, 1, trap.S, trap.T)
	face, err := klocal.FaceRoute(trap.Emb, trap.S, trap.T)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("greedy:", greedy.Outcome, "— face routing:", face.Delivered)
	// Output: greedy: looped — face routing: true
}

// Message-carried memory (Section 6.3): a DFS token buys guaranteed
// delivery at locality 1 with Θ(n log n) state bits.
func ExampleDFSRoute() {
	g := klocal.Spider(3, 4)
	res, err := klocal.DFSRoute(g, 4, 12)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("delivered:", res.Delivered, "state bits >", 0, ":", res.PeakStateBits > 0)
	// Output: delivered: true state bits > 0 : true
}
