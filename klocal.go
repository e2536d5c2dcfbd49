// Package klocal is a library for k-local routing on connected undirected
// graphs, reproducing Bose, Carmi and Durocher, "Bounding the Locality of
// Distributed Routing Algorithms" (PODC 2009).
//
// A k-local routing algorithm makes distributed forwarding decisions
// using only the destination, optionally the origin (origin-aware) and
// incoming port (predecessor-aware), and the k-neighbourhood G_k(u) of
// the current node. The paper's tight feasibility thresholds are:
//
//	T(n)                  origin-aware   origin-oblivious
//	predecessor-aware     n/4            n/3
//	predecessor-oblivious n/2            n/2
//
// This package exposes the four matching algorithms (Algorithm1,
// Algorithm1B, Algorithm2, Algorithm3), the graph substrate and
// generators, a single-message simulator, a concurrent message-passing
// network simulator with k-hop neighbourhood discovery, the lower-bound
// adversaries, and the experiment harness regenerating every table and
// quantitative figure of the paper.
//
// Quick start:
//
//	g := klocal.RandomConnected(rand.New(rand.NewSource(1)), 24, 0.1)
//	alg := klocal.Algorithm1()
//	k := alg.MinK(g.N())
//	res := klocal.Route(alg, g, k, s, t)
//	fmt.Println(res.Outcome, res.Route)
package klocal

import (
	"math/rand"

	"klocal/internal/adversary"
	"klocal/internal/bigraph"
	"klocal/internal/churn"
	"klocal/internal/digraph"
	"klocal/internal/diroute"
	"klocal/internal/engine"
	"klocal/internal/exper"
	"klocal/internal/fault"
	"klocal/internal/flood"
	"klocal/internal/gen"
	"klocal/internal/geom"
	"klocal/internal/georoute"
	"klocal/internal/graph"
	"klocal/internal/metrics"
	"klocal/internal/nbhd"
	"klocal/internal/netsim"
	"klocal/internal/prep"
	"klocal/internal/route"
	"klocal/internal/sim"
	"klocal/internal/stateful"
	"klocal/internal/tables"
	"klocal/internal/trace"
	"klocal/internal/verify"
)

// Core graph types.
type (
	// Graph is an immutable undirected simple graph with unique integer
	// vertex labels.
	Graph = graph.Graph
	// Vertex is a node label.
	Vertex = graph.Vertex
	// Edge is an undirected edge.
	Edge = graph.Edge
	// Builder accumulates vertices and edges into a Graph.
	Builder = graph.Builder
)

// NoVertex is the sentinel for "no vertex" (the paper's ⊥).
const NoVertex = graph.NoVertex

// Infinity is the distance between disconnected vertices.
const Infinity = graph.Infinity

// NewBuilder returns an empty graph builder.
func NewBuilder() *Builder { return graph.NewBuilder() }

// NewEdge returns the normalized edge {u, v}.
func NewEdge(u, v Vertex) Edge { return graph.NewEdge(u, v) }

// FromEdges builds a graph from an edge list.
func FromEdges(edges []Edge, isolated ...Vertex) *Graph { return graph.FromEdges(edges, isolated...) }

// Routing types.
type (
	// Algorithm is a routing algorithm; bind it to a network and locality
	// with Bind, or use Route.
	Algorithm = route.Algorithm
	// RoutingFunc is the paper's routing function f(s, t, u, v, G_k(u)),
	// bound to a fixed network and locality.
	RoutingFunc = route.Func
	// Result describes one simulated route.
	Result = sim.Result
	// Outcome classifies how a route ended.
	Outcome = sim.Outcome
	// Neighborhood is the k-neighbourhood G_k(u).
	Neighborhood = nbhd.Neighborhood
	// LocalComponent is a classified local component of a view.
	LocalComponent = nbhd.Component
	// View is the preprocessed local view at a node, in int-indexed
	// form. View.C is its Case-1 half: G_k(u) (C.Raw) and the
	// precomputed next hops. View.RoutingHalf() returns the rest, built
	// on first use: the dormant edges (Dormant), the routing subgraph
	// G'_k(u) with the dormant edges removed (Routing) and its
	// classified components.
	View = prep.View
	// Network is the concurrent message-passing simulator with k-hop
	// neighbourhood discovery.
	Network = netsim.Network
	// NetworkStats is the protocol-cost snapshot of a Network.
	NetworkStats = netsim.Stats
	// SendResult is the detailed outcome of one routed message,
	// including link-layer retries and the fault events encountered.
	SendResult = netsim.SendResult
	// FaultPlan configures the deterministic fault injector: loss,
	// duplication, delay, blackout windows, crashes — all derived from
	// one seed.
	FaultPlan = fault.Plan
	// FaultEvent is one fault occurrence on the data path.
	FaultEvent = fault.Event
	// Blackout is a scheduled per-link outage window.
	Blackout = fault.Blackout
	// Crash is a scheduled node outage (permanent or crash-and-restart).
	Crash = fault.Crash
	// Instance is a routing problem: a graph with an origin and a
	// destination.
	Instance = gen.Instance
)

// Typed data-path errors of the faulty network, matchable with errors.Is.
var (
	// ErrPartitioned means the destination is provably outside the live
	// component.
	ErrPartitioned = netsim.ErrPartitioned
	// ErrNodeDown means the origin, destination, or next hop is crashed.
	ErrNodeDown = netsim.ErrNodeDown
	// ErrLinkDown means a link exhausted its retransmission budget.
	ErrLinkDown = netsim.ErrLinkDown
)

// Route outcomes.
const (
	// Delivered means the message reached its destination.
	Delivered = sim.Delivered
	// Looped means the deterministic walk revisited a decision state.
	Looped = sim.Looped
	// Errored means the routing function failed.
	Errored = sim.Errored
	// Exhausted means the step budget ran out (randomized walks only).
	Exhausted = sim.Exhausted
)

// The paper's algorithms and baselines.
var (
	// Algorithm1 is the (n/4)-local origin-aware predecessor-aware
	// algorithm of Theorem 5 (dilation < 7).
	Algorithm1 = route.Algorithm1
	// Algorithm1B is Appendix A's refinement of Algorithm 1 (Theorem 6,
	// dilation < 6).
	Algorithm1B = route.Algorithm1B
	// Algorithm2 is the (n/3)-local origin-oblivious predecessor-aware
	// algorithm of Theorem 7 (dilation < 3, optimal).
	Algorithm2 = route.Algorithm2
	// Algorithm3 is the (n/2)-local fully oblivious shortest-path
	// algorithm of Theorem 8.
	Algorithm3 = route.Algorithm3
	// TreeRightHand is the naive right-hand rule (Figure 7 motivation).
	TreeRightHand = route.TreeRightHand
	// ShortestPathOracle is the centralized routing-table baseline.
	ShortestPathOracle = route.ShortestPathOracle
	// RandomWalk is the randomized reference baseline.
	RandomWalk = route.RandomWalk
)

// Threshold functions T(n).
var (
	// MinK1 is ⌈n/4⌉, the threshold of Algorithms 1 and 1B.
	MinK1 = route.MinK1
	// MinK2 is ⌈n/3⌉, the threshold of Algorithm 2.
	MinK2 = route.MinK2
	// MinK3 is ⌊n/2⌋, the threshold of Algorithm 3.
	MinK3 = route.MinK3
)

// Route binds alg to (g, k) and simulates a single message from s to t,
// using the loop-detection criterion matching the algorithm's awareness.
func Route(alg Algorithm, g *Graph, k int, s, t Vertex) *Result {
	return sim.Run(g, sim.Func(alg.Bind(g, k)), s, t, sim.Options{
		DetectLoops:      !alg.Randomized,
		PredecessorAware: alg.PredecessorAware,
	})
}

// ExtractNeighborhood computes G_k(u), everything node u may know.
func ExtractNeighborhood(g *Graph, u Vertex, k int) *Neighborhood {
	return nbhd.Extract(g, u, k)
}

// Preprocess computes the preprocessed view at u: G_k(u) and its next
// hops now, and on the first RoutingHalf call its dormant edges and the
// routing view G'_k(u) with components classified.
// ExtractNeighborhood gives the label-space form of G_k(u).
func Preprocess(g *Graph, u Vertex, k int) *View {
	return prep.PreprocessStore(g, u, k, prep.PolicyMinRank)
}

// ConsistentSubgraph returns g restricted to its globally consistent
// edges at locality k (Lemmas 3 and 5: connected, girth > 2k).
func ConsistentSubgraph(g *Graph, k int) *Graph { return prep.ConsistentSubgraph(g, k) }

// NewNetwork prepares a concurrent message-passing network over g at
// locality k routing with alg. Call Start, Discover, Send..., Stop.
func NewNetwork(g *Graph, k int, alg Algorithm) *Network { return netsim.New(g, k, alg) }

// NewFaultyNetwork is NewNetwork under a fault plan: every link-level
// and node-level fault is drawn deterministically from the plan's seed,
// and discovery runs the loss-tolerant ack/retransmit protocol.
func NewFaultyNetwork(g *Graph, k int, alg Algorithm, plan FaultPlan) *Network {
	return netsim.NewFaulty(g, k, alg, plan)
}

// Generators.
var (
	// Path, Cycle, Star, Spider, Complete, Grid, Theta, Lollipop and
	// Caterpillar build the standard topologies used by the experiments.
	Path        = gen.Path
	Cycle       = gen.Cycle
	Star        = gen.Star
	Spider      = gen.Spider
	Complete    = gen.Complete
	Grid        = gen.Grid
	Theta       = gen.Theta
	Lollipop    = gen.Lollipop
	Caterpillar = gen.Caterpillar
	Barbell     = gen.Barbell
	Hypercube   = gen.Hypercube
	Wheel       = gen.Wheel
	BinaryTree  = gen.BinaryTree
	// RandomTree and RandomConnected build randomized topologies.
	RandomTree      = gen.RandomTree
	RandomConnected = gen.RandomConnected
	// RandomLabelPermutation is the adversarial relabelling.
	RandomLabelPermutation = gen.RandomLabelPermutation
	// ConnectedGraphs enumerates every connected labelled graph on up to
	// 8 vertices.
	ConnectedGraphs = gen.ConnectedGraphs
)

// Paper constructions.
var (
	// NewTheorem1Family, NewTheorem2Family and NewTheorem3Family build
	// the counterexample families of Figures 3–5.
	NewTheorem1Family = gen.NewTheorem1Family
	NewTheorem2Family = gen.NewTheorem2Family
	NewTheorem3Family = gen.NewTheorem3Family
	// NewFig7, NewFig13 and NewFig17 build the extremal constructions.
	NewFig7  = gen.NewFig7
	NewFig13 = gen.NewFig13
	NewFig17 = gen.NewFig17
)

// Lower-bound adversaries.
var (
	// ReplayTheorem1, ReplayTheorem2 and ReplayTheorem3 replay the
	// strategy enumerations of the impossibility proofs (Tables 3/4).
	ReplayTheorem1 = adversary.ReplayTheorem1
	ReplayTheorem2 = adversary.ReplayTheorem2
	ReplayTheorem3 = adversary.ReplayTheorem3
	// DilationPath builds Theorem 4's extremal instance; the route of any
	// successful k-local algorithm on it has length ≥ 2n−3k−1.
	DilationPath = adversary.DilationPath
	// LowerBoundDilation is (2n−3k−1)/(k+1) → 2n/k − 3.
	LowerBoundDilation = adversary.LowerBoundDilation
	// CircularPermutations enumerates Lemma 1's forced strategy set.
	CircularPermutations = adversary.CircularPermutations
	// ExhaustiveTheorem1 and ExhaustiveTheorem2 drop the Lemma 1
	// reduction and check every d^d hub function against the witness
	// graphs — computational proofs of the lower bounds.
	ExhaustiveTheorem1 = adversary.ExhaustiveTheorem1
	ExhaustiveTheorem2 = adversary.ExhaustiveTheorem2
	ExhaustiveTheorem3 = adversary.ExhaustiveTheorem3
)

// Experiments (one per paper table/figure; see cmd/tables).
var (
	Fig1   = exper.Fig1
	Table1 = exper.Table1
	Table2 = exper.Table2
	Table3 = exper.Table3
	Table4 = exper.Table4
	Fig7   = exper.Fig7
	Fig13  = exper.Fig13
	Fig17  = exper.Fig17
	Sweep  = exper.Sweep
)

// NewRand returns a deterministic RNG for experiment reproducibility.
func NewRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// Dormant-edge policies (the Section 6.1 ablation).
type (
	// DormantPolicy selects which edge of each local cycle preprocessing
	// removes.
	DormantPolicy = prep.Policy
)

// Dormant-edge policy values and the policy-parameterized algorithm
// constructors.
const (
	// PolicyMinRank is the paper's rule; PolicyMaxRank the ablation.
	PolicyMinRank = prep.PolicyMinRank
	PolicyMaxRank = prep.PolicyMaxRank
)

var (
	// Algorithm1Policy, Algorithm1BPolicy and Algorithm2Policy build the
	// algorithms under an explicit dormancy policy.
	Algorithm1Policy  = route.Algorithm1Policy
	Algorithm1BPolicy = route.Algorithm1BPolicy
	Algorithm2Policy  = route.Algorithm2Policy
)

// Position-based routing (the paper's Section 3 world).
type (
	// Point is a planar location.
	Point = geom.Point
	// Embedding is a straight-line graph embedding with its rotation
	// system.
	Embedding = geom.Embedding
	// FaceResult is the outcome of a FACE-1 face-routing run.
	FaceResult = georoute.FaceResult
	// GeoTrap is a plane instance defeating greedy and compass routing.
	GeoTrap = georoute.Trap
)

var (
	// NewEmbedding, RandomPoints, UnitDiskGraph, GabrielGraph,
	// GabrielSubgraph and RelativeNeighborhoodGraph build the geometric
	// substrate.
	NewEmbedding              = geom.NewEmbedding
	RandomPoints              = geom.RandomPoints
	UnitDiskGraph             = geom.UnitDiskGraph
	GabrielGraph              = geom.GabrielGraph
	GabrielSubgraph           = geom.GabrielSubgraph
	RelativeNeighborhoodGraph = geom.RelativeNeighborhoodGraph
	// GreedyRouting, CompassRouting, GreedyCompassRouting and
	// FaceRouting are the Section 3 algorithms; FaceRoute runs FACE-1
	// directly; GreedyTrap builds the defeating instance.
	GreedyRouting        = georoute.Greedy
	CompassRouting       = georoute.Compass
	GreedyCompassRouting = georoute.GreedyCompass
	FaceRouting          = georoute.FaceRouteAlgorithm
	FaceRoute            = georoute.FaceRoute
	GreedyTrap           = georoute.GreedyTrap
)

// Memory-relaxed routing and the baselines of the introduction.
type (
	// StatefulResult is a stateful (message-memory) route.
	StatefulResult = stateful.Result
	// FloodResult is a flooding run.
	FloodResult = flood.Result
	// FullTables and TreeInterval are the table-driven schemes.
	FullTables   = tables.FullTables
	TreeInterval = tables.TreeInterval
)

var (
	// DFSRoute routes with Θ(n log n) message bits at locality 1
	// (Section 6.3's memory relaxation).
	DFSRoute = stateful.DFSRoute
	// Flood and FloodIterativeDeepening are the introduction's strawman.
	Flood                   = flood.Flood
	FloodIterativeDeepening = flood.IterativeDeepening
	// BuildFullTables and BuildTreeInterval construct the table schemes;
	// KLocalBits accounts a k-local algorithm's implicit memory.
	BuildFullTables   = tables.BuildFullTables
	BuildTreeInterval = tables.BuildTreeInterval
	KLocalBits        = tables.KLocalBits
	// MemoryDilation and RandomWalkQuadratic are the corresponding
	// experiments.
	MemoryDilation      = exper.MemoryDilation
	RandomWalkQuadratic = exper.RandomWalkQuadratic
)

// Directed graphs (Section 6.2).
type (
	// Digraph is a simple directed graph; Arc a directed edge.
	Digraph = digraph.Digraph
	// Arc is a directed edge of a Digraph.
	Arc = digraph.Arc
	// OrbitResult is a stateless successor-rule route on a balanced
	// digraph; RotorResult a rotor-router route.
	OrbitResult = diroute.OrbitResult
	// RotorResult is a rotor-router route with node-memory accounting.
	RotorResult = diroute.RotorResult
)

var (
	// NewDigraphBuilder, Circulant and RandomEulerian build directed
	// substrates.
	NewDigraphBuilder = digraph.NewBuilder
	Circulant         = digraph.Circulant
	RandomEulerian    = digraph.RandomEulerian
	// Orbits decomposes a balanced digraph's arcs into successor-rule
	// closed walks; OrbitRoute routes statelessly along one of them;
	// RotorRoute trades node memory for guaranteed delivery;
	// StatelessDefeat finds a pair the stateless rule cannot serve.
	Orbits          = diroute.Orbits
	OrbitRoute      = diroute.OrbitRoute
	RotorRoute      = diroute.RotorRoute
	StatelessDefeat = diroute.StatelessDefeat
)

// Bulk verification (cmd/verify's engine).
type (
	// VerifyConfig selects what the bulk verifier checks.
	VerifyConfig = verify.Config
	// VerifyReport aggregates a verification run.
	VerifyReport = verify.Report
)

var (
	// VerifyExhaustive checks an algorithm over every connected labelled
	// graph of a size; VerifyRandomSample over random populations.
	VerifyExhaustive   = verify.Exhaustive
	VerifyRandomSample = verify.RandomSample
)

// Tracing and rendering helpers.
var (
	// RenderRoute annotates a walk hop by hop against the destination
	// distance; RenderEmbedding rasters an embedded network;
	// RenderAdjacency dumps a topology.
	RenderRoute = trace.RenderRoute
	// RenderRouteEvents is RenderRoute with a lossy network's fault
	// events interleaved at the hops where they fired.
	RenderRouteEvents = trace.RenderRouteEvents
	RenderEmbedding   = trace.RenderEmbedding
	RenderAdjacency   = trace.RenderAdjacency
)

// Degrade sweeps message-loss rate × locality k on the paper graph
// families and reports delivery rate, discovery message overhead, and
// stretch versus the fault-free baseline.
var Degrade = exper.Degrade

// The traffic engine (internal/engine): batched concurrent routing over
// an immutable snapshot with lock-free, size-bounded preprocessing.
type (
	// Snapshot is an immutable (network, locality, algorithm) binding
	// with a shared preprocessed-view cache.
	Snapshot = engine.Snapshot
	// SnapshotOptions tune the view cache and prewarming.
	SnapshotOptions = engine.SnapshotOptions
	// Engine is the concurrent router: W lanes, each a simulation
	// scratch and a metric shard, on which callers route on their own
	// goroutines (at most W at once; a caller waits for a free lane
	// within its admission budget).
	Engine = engine.Engine
	// EngineConfig sets the lane count and the per-walk step budget.
	EngineConfig = engine.Config
	// RouteRequest is one (s, t) routing task.
	RouteRequest = engine.Request
	// RouteResponse is one routed task's outcome with latency.
	RouteResponse = engine.Response
	// TrafficWorkload is a deterministic request generator.
	TrafficWorkload = engine.Workload
	// MetricsReport is a merged, renderable metric snapshot
	// (WriteText / WriteJSON).
	MetricsReport = metrics.Report
	// CacheOptions tune the preprocessed-view cache: a lock-free table
	// of view slots, one per vertex or direct-mapped under a capacity.
	CacheOptions = prep.CacheOptions
	// CacheStats snapshots view-cache activity (hits, misses,
	// evictions, size).
	CacheStats = prep.CacheStats
)

var (
	// NewEngine builds an engine's lanes over a snapshot; it starts no
	// goroutine.
	NewEngine = engine.New
	// RouteAll routes a batch one-shot and returns ordered responses
	// plus the merged metrics report.
	RouteAll = engine.RouteAll
	// UniformWorkload, ZipfWorkload, AllPairsWorkload and
	// AdversarialWorkload are the engine's request generators;
	// NewTrafficWorkload resolves one by name.
	UniformWorkload     = engine.Uniform
	ZipfWorkload        = engine.Zipf
	AllPairsWorkload    = engine.AllPairs
	AdversarialWorkload = engine.Adversarial
	NewTrafficWorkload  = engine.NewWorkload
	// TakeRequests materializes the next n requests of a workload.
	TakeRequests = engine.Take
	// ZipfSkew is the default Zipf exponent for skewed workloads.
	ZipfSkew = engine.ZipfSkew
	// AllPairsCount is the number of ordered pairs of a graph.
	AllPairsCount = engine.PairCount
	// NewPreprocessor builds a lock-free, size-bounded view cache for
	// direct use with Algorithm.Over.
	NewPreprocessor = prep.NewPreprocessor
)

// The mmap-able CSR graph store (internal/bigraph, DESIGN.md §12):
// million-node topologies served without materializing an in-memory
// graph. A *Graph is itself a GraphStore, and every binding, snapshot
// and workload constructor takes a GraphStore.
type (
	// GraphStore is the minimal read-only topology contract routing
	// needs (see route/doc.go for the locality terms).
	GraphStore = bigraph.Store
	// CSR is the int-indexed compressed-sparse-row store behind .csr
	// files, with zero-alloc G_k(u) extraction.
	CSR = bigraph.CSR
)

var (
	// LoadGraphFile opens a topology file by extension: binary ".csr"
	// (mmap'd where the platform allows), or an edge list
	// (".txt"/".txt.gz"). Close the returned CSR when done.
	LoadGraphFile = bigraph.LoadFile
	// CSRFromGraph converts an in-memory graph to its CSR form.
	CSRFromGraph = bigraph.FromGraph
	// GridCSR, TreeCSR and RandomRegularCSR stream million-node topology
	// families straight into CSR form without a map-based intermediate.
	GridCSR          = gen.GridCSR
	TreeCSR          = gen.TreeCSR
	RandomRegularCSR = gen.RandomRegularCSR
	// NewCSRScratch allocates the reusable scratch for zero-alloc
	// CSR.Extract calls.
	NewCSRScratch = bigraph.NewScratch
	// NewSnapshotStore binds an algorithm to any GraphStore for batched
	// routing (k = 0 means the algorithm's threshold); walks over
	// stores other than a *Graph leave Result.Dist at 0 (unknown).
	NewSnapshotStore = engine.NewSnapshotStore
)

// Incremental topology churn (internal/churn, DESIGN.md §15): deltas
// applied copy-on-write with k-radius dirty sets, so live engines swap
// snapshots that re-derive only the views within distance k of the
// touched endpoints.
type (
	// TopologyDelta is one topology mutation (edge flap, vertex
	// arrival or departure).
	TopologyDelta = churn.Delta
	// ChurnOp enumerates the delta operations.
	ChurnOp = churn.Op
	// ChurnScheduler emits an endless, deterministic stream of valid
	// deltas against an evolving graph.
	ChurnScheduler = churn.Scheduler
)

// The delta operations.
const (
	AddEdge      = churn.AddEdge
	RemoveEdge   = churn.RemoveEdge
	AddVertex    = churn.AddVertex
	RemoveVertex = churn.RemoveVertex
)

var (
	// ApplyDelta applies one delta copy-on-write, returning the derived
	// graph and the k-radius dirty set; ApplyDeltas applies a batch.
	ApplyDelta  = churn.Apply
	ApplyDeltas = churn.ApplyAll
	// DiffGraphs expresses one graph as a delta batch over another;
	// ChurnDirtySet is the k-radius dirty set of an arbitrary batch.
	DiffGraphs    = churn.Diff
	ChurnDirtySet = churn.DirtySet
	// NewChurnScheduler streams deterministic valid deltas;
	// ScheduleDeltas materializes a fixed-length schedule.
	NewChurnScheduler = churn.NewScheduler
	ScheduleDeltas    = churn.ScheduleDeltas
	// HotspotWorkload routes to destinations skewed by approximate
	// betweenness centrality (the "core router" traffic shape).
	HotspotWorkload = engine.Hotspot
	// NewMetricsShard allocates a metrics shard over a schema for
	// caller-side instrumentation (e.g. loadgen's churn loop).
	NewMetricsShard = metrics.NewShard
)

// MetricsSchema names a caller's counters and histograms once and hands
// out the handles it records through.
type MetricsSchema = metrics.Schema

// MetricsShard is one writer's metric set over a schema (counters +
// histograms); Snapshot renders it as a MetricsReport.
type MetricsShard = metrics.Shard
