package route

// Goroutine-safety contracts (the traffic engine routes messages
// concurrently through shared routing functions; race_test.go audits
// these under -race):
//
//   - A bound Func is safe for concurrent use by any number of
//     goroutines, each handing it its own scratch, provided the
//     underlying bigraph.Store is never mutated (*graph.Graph and
//     *bigraph.CSR are immutable by construction).
//
//   - A Func reads the view the walker hands it, fetched from a
//     prep.Preprocessor whose view cache is lock-free (the baselines at
//     k = 0 also read a second cache of k = 1 views, for their ports, at
//     the handed view's centre). A *prep.View is immutable after
//     publication except for its routing half, which the first decision
//     that finds t outside G_k(u) builds from the view's own G_k(u) and
//     publishes once through an atomic pointer, so readers never observe
//     a partial view or two different halves. Evicted views stay valid
//     for readers holding them.
//
//   - ShortestPathOracle keeps no mutable state. RandomWalk serializes
//     its RNG behind a mutex; concurrent routes interleave draws
//     nondeterministically but never race (bind one RandomWalk per
//     worker with distinct seeds for reproducible concurrent runs).
//
//   - Algorithm values are plain data; copying or binding them
//     concurrently is safe. Each sim.Bind builds an independent
//     preprocessor (memory-heavy); the engine's Snapshot binds once
//     through Over and shares it.
//
// Store contract. The paper's model never lets a routing decision at u
// see more than G_k(u), so the representation of the rest of the graph
// is irrelevant to the algorithm: a walker's preprocessor reads any
// bigraph.Store — a materialized *graph.Graph, an int-indexed CSR array
// store (possibly an mmap'd file too large to materialize), or any other
// implementation — and the views preprocessed over every store are
// identical in every field routing reads (held against the reference
// preprocessing by the klocalcheck "csr" property and the engine's store
// differential). So a Func walks the same walk over every store holding
// the same topology; only what the process holds in memory changes. A
// Store must be immutable while bound. Over returns nil on a store that
// is not a *graph.Graph for ShortestPathOracle, defined by whole-graph
// knowledge, and for the map-shaped *Ref test references.
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
// algorithm reads the view it is handed: the walker fetches G_k(u) from
// the view cache once per hop instead of extracting it, and a decision
// path that builds a map-shaped view (nbhd.Extract, prep.PreprocessRef,
// ...) is a klocality finding, which only the *Ref test references
// carry an allow for. Scratch space is the walker's: a decision builds
// a routing half and runs Algorithm 1B's bounce simulation on the
// prep.Scratch it is handed. The remaining allocations in this package
// are cold error paths, each under a //klocal:allow, and the allow
// directives are checked for staleness on every `make lint`.
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
