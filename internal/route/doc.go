package route

// Goroutine-safety contracts (the traffic engine routes batches of
// messages concurrently through shared routing functions; these are the
// guarantees that make that sound, audited under -race by race_test.go):
//
//   - A bound Func is safe for concurrent use by any number of
//     goroutines routing arbitrary (s, t, u, v) arguments, provided the
//     underlying bigraph.Store is never mutated (*graph.Graph and
//     *bigraph.CSR are immutable by construction).
//
//   - Every algorithm but ShortestPathOracle closes over a
//     prep.Preprocessor (the baselines at k = 0 over a second one of
//     k = 1 views, for their ports). The preprocessor's view cache is
//     lock-free and internally synchronized.
//     The *prep.View instances it hands out are immutable after
//     publication except for their routing half, which the first
//     decision that finds t outside G_k(u) builds from the view's own
//     G_k(u) and publishes once through an atomic pointer: concurrent
//     first callers all get the winner's half, so readers never observe
//     a partial view or two different halves.
//     Funcs bound through Over share one externally owned preprocessor
//     across closures — also safe, including under cache eviction
//     (evicted views stay valid for readers holding them; they are
//     simply recomputed on the next miss).
//
//   - ShortestPathOracle keeps no mutable state: every call reads the
//     immutable graph.
//
//   - RandomWalk serializes its RNG behind a mutex; concurrent routes
//     interleave draws nondeterministically but never race. For
//     reproducible concurrent randomized runs, bind one RandomWalk per
//     worker with distinct seeds.
//
//   - Algorithm values themselves are plain data; copying them or
//     binding them concurrently is safe. Each Bind call builds an
//     independent preprocessor (memory-heavy); the engine's Snapshot
//     exists precisely to bind once through Over and share.
//
// Store contract. The paper's model never lets a routing decision at u
// see more than G_k(u); the representation of the rest of the graph is
// therefore irrelevant to the algorithm, and the single binding makes
// that literal: Over reads the network as a bigraph.Store — a
// materialized *graph.Graph, an int-indexed CSR array store (possibly an
// mmap'd on-disk file for graphs too large to materialize), or any other
// implementation. The contract is that the views preprocessed over
// every store are identical in every field routing reads
// (nbhd.Scratch.Extract's graph, CSR and generic branches behind
// prep.PreprocessStore — held against the reference preprocessing by
// the klocalcheck "csr" property on every scenario, and by the engine's
// store differential), so a Func walks exactly the same walk over every
// store holding the same topology; the only thing that changes is what
// the process holds in memory. A Store
// must be immutable while bound; the concurrency guarantees above carry
// over unchanged (the CSR arrays are read-only after load). Over returns
// nil on a store that is not a *graph.Graph for ShortestPathOracle —
// defined by whole-graph knowledge, which a bounded store view cannot
// provide — and for the map-shaped *Ref test references.
//
// Model contracts (k-locality, determinism, statelessness) are enforced
// mechanically on every decision path in this package by the klocalvet
// analyzers — run `make lint`, and see internal/analysis plus DESIGN.md
// §8 "Model contracts as lint". Deliberate exceptions (the
// ShortestPathOracle comparator) carry //klocal:allow annotations with
// their justification.
//
// Hot-path contract. Decision paths are additionally held allocation-
// free by the kalloc analyzer (DESIGN.md §13): routing a message must
// not touch the heap, because the engine pushes millions of decisions
// per run and GC pressure would dominate every benchmark. Every
// algorithm reads G_k(u) from the view cache (p.At) instead of
// extracting it per hop; a decision path that builds a map-shaped view
// (nbhd.Extract, prep.PreprocessRef, ...) is a klocality finding, and
// only the *Ref test references carry an allow for it. Scratch space
// is caller-owned and grown with the exempt self-append idiom. The
// remaining allocations in this package — alg1b's bounded
// bounce-simulation state and cold error paths — are enumerated
// exceptions, each under a //klocal:allow; the zero-alloc rewrite of
// the bounce core is a ROADMAP item, and the allow directives are
// checked for staleness on every `make lint`, so they retire
// automatically when it lands.
//
// The same contracts are also enforced dynamically: internal/fuzz's
// property registry checks delivery at k >= T(n), the Table 2 dilation
// bounds, walk validity, determinism under re-binding, robustness under
// adversarial relabelling, and an engine-vs-netsim differential on
// randomized scenarios — via cmd/klocalcheck, the checked-in corpus
// replayed in `go test`, and the FuzzRouting native harness. See
// DESIGN.md §10.
//
// Reconstruction of the figure-only forwarding rules.
//
// The paper specifies Algorithm 1's forwarding decisions through Figures
// 10–12 and the 1B refinement through Figures 15–16, which are not
// machine-readable. The tables implemented in decideActive were derived
// from the prose constraints and validated against every quantitative
// claim (delivery on exhaustive small graphs, dilation bounds, the exact
// extremal route lengths of Figures 13 and 17):
//
//  1. Lemma 1 forces every local routing function at an uninformed node to
//     be a circular permutation of its neighbours; ranks give the unique
//     canonical choice, so Rule U uses the circular permutation
//     a1→a2→…→ad→a1 of the active neighbours in rank order, entering at
//     a1 from passive components (Algorithm 2's Case 3 states the passive
//     entry explicitly).
//
//  2. Figure 10's red arrow plus Case 2's text fix the origin's first
//     send at a1. Lemma 7's Case 1 requires that "Rules S2 and US2
//     initially forward the message in the opposite direction from that
//     in which the reversal occurs" and that S/US rules are the only
//     reversal points on the repeating cycle; the Figure 13 trace
//     ("clockwise around the cycle back to node s, then counter-clockwise
//     …") pins S2 to: a1→a2, a2→a2 (reversal on the higher-rank
//     arrival). Figure 12's caption fixes the US entry (from the passive
//     component containing s, forward to a1); Lemma 7 Cases 1a/1b use the
//     same reversal shape for US2/US3, giving the general S/US table:
//     circular by rank with the highest-rank arrival reversed.
//
//  3. Lemma 4 identifies S1/U1/US1 as plain reversals at active degree 1,
//     which both tables produce degenerately.
//
//  4. Appendix A's Rules U2b–U2f ("u can determine the imminent
//     application of Rule S2/US2 and applies this rule pre-emptively")
//     are realized as a local simulation (simulatesBounce): from u, walk
//     the would-be trajectory inside u's own routing view through forced
//     U2 nodes only, and check whether it terminates at s (S2) or at a
//     vertex carrying s in a passive branch (US2) with the arrival on the
//     higher-rank side — the rank(c) vs rank(d) test of Cases U2b/c and
//     U2d/e. The constraint-vertex chains in the paper's preconditions
//     are exactly what makes such a walk well-defined from u's partial
//     knowledge; the simulation aborts (keeping plain U2, Rule U2f)
//     whenever the structure is not a provable forced chain. On the
//     Figure 17 construction this reproduces the paper's route length
//     n+2k−6 exactly, with the 3-edge arc of Lemma 16's set I never
//     traversed, while plain Algorithm 1 takes n+2k.
//
// The empirical validation lives in route_test.go (exhaustive graphs up
// to n=7 for every admissible (s,t) pair, randomized families with
// adversarial relabelling, and the extremal constructions).
