package fuzz

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"klocal/internal/bigraph"
	"klocal/internal/churn"
	"klocal/internal/cluster"
	"klocal/internal/engine"
	"klocal/internal/gen"
	"klocal/internal/graph"
	"klocal/internal/netsim"
	"klocal/internal/prep"
	"klocal/internal/route"
	"klocal/internal/sim"
	"klocal/internal/verify"
)

// Property is one executable invariant over scenarios. Check returns
// nil when the scenario satisfies the property (or the property's
// precondition does not apply — e.g. k below threshold for a delivery
// claim), and a descriptive error when the paper's claim is violated.
// Checks must be deterministic functions of the scenario: the shrinker
// re-runs them as its reduction predicate.
type Property struct {
	Name  string
	Doc   string
	Check func(sc *Scenario) error
}

// DifferentialMaxN caps the graph size the differential and cluster
// properties run at; larger scenarios skip them. At k = T(n) every
// origin's flood reaches nearly every node, so netsim's discovery sends
// about 2·n·m announcements and as many acks, and the differential's
// cost grows with n·m: on random graphs (p = 0.15, four seeds, all four
// algorithms at threshold; 2 vCPUs, go 1.24.0) it took 1.2 ms per
// scenario at n = 16 and 8.9 ms at n = 32, where the other properties
// together took 10 ms and 80 ms.
const DifferentialMaxN = 16

// AllProperties returns the full registry in stable order. Each entry
// enforces one row of the contract list in route/doc.go.
func AllProperties() []Property {
	return []Property{
		{
			Name:  "delivery",
			Doc:   "k ≥ T(n) ⇒ every (s, t) message is delivered (Theorems 5–8)",
			Check: checkDelivery,
		},
		{
			Name:  "dilation",
			Doc:   "delivered walks at k ≥ T(n) stay within the Table 2 bound (7/6/3/1)",
			Check: checkDilation,
		},
		{
			Name:  "walk",
			Doc:   "walks are graph walks: start s, end t, edges only, no illegal hop at any k",
			Check: checkWalkValidity,
		},
		{
			Name:  "determinism",
			Doc:   "re-binding and re-routing yields a byte-identical walk (stateless determinism)",
			Check: checkDeterminism,
		},
		{
			Name:  "relabel",
			Doc:   "delivery and dilation survive adversarial vertex-ID relabelling at k ≥ T(n)",
			Check: checkRelabel,
		},
		{
			Name:  "differential",
			Doc:   "the in-memory engine and the fault-free netsim route the same walk",
			Check: checkDifferential,
		},
		{
			Name:  "cluster",
			Doc:   "a fault-free sharded cluster (local views, hop-by-hop handoffs) routes the engine's walk",
			Check: checkCluster,
		},
		{
			Name:  "csr",
			Doc:   "views preprocessed over a CSR store equal the reference preprocessing of the graph in every field routing reads, and store-backed routing walks the graph-backed walk",
			Check: checkCSR,
		},
		{
			Name:  "compact",
			Doc:   "compact-native preprocessing plus the int-indexed decision paths route walk-identically to the map-shaped reference preprocessing plus the retained map-based step",
			Check: checkCompact,
		},
		{
			Name:  "delta",
			Doc:   "after every prefix of a churn schedule, incrementally derived views equal the reference preprocessing in every field routing reads, clean views survive by pointer, and delivery holds on connected snapshots",
			Check: checkDelta,
		},
	}
}

// ResolveProperties maps a comma-separated property list ("" or "all" =
// the full registry) to Property values, rejecting unknown names.
func ResolveProperties(list string) ([]Property, error) {
	all := AllProperties()
	if list == "" || list == "all" {
		return all, nil
	}
	byName := make(map[string]Property, len(all))
	var known []string
	for _, p := range all {
		byName[p.Name] = p
		known = append(known, p.Name)
	}
	sort.Strings(known)
	var props []Property
	for _, raw := range strings.Split(list, ",") {
		name := strings.TrimSpace(raw)
		if name == "" {
			continue
		}
		p, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("fuzz: unknown property %q (%s)", name, strings.Join(known, "|"))
		}
		props = append(props, p)
	}
	if len(props) == 0 {
		return all, nil
	}
	return props, nil
}

// routeScenario binds the scenario's algorithm fresh and walks its
// message.
func routeScenario(sc *Scenario) *sim.Result {
	return sim.Bind(sc.Alg, sc.G, sc.K).Run(sc.S, sc.T)
}

func checkDelivery(sc *Scenario) error {
	if !sc.AtThreshold() {
		return nil
	}
	res := routeScenario(sc)
	if res.Outcome != sim.Delivered {
		return fmt.Errorf("not delivered at k=%d ≥ T(%d)=%d: outcome %v, err %v",
			sc.K, sc.G.N(), sc.Alg.MinK(sc.G.N()), res.Outcome, res.Err)
	}
	return nil
}

func checkDilation(sc *Scenario) error {
	bound := sc.DilationBound()
	if !sc.AtThreshold() || bound == 0 {
		return nil
	}
	res := routeScenario(sc)
	if res.Outcome != sim.Delivered {
		return nil // the delivery property owns that failure
	}
	return verify.CheckDilation(res.Route, sc.G, sc.S, sc.T, bound)
}

func checkWalkValidity(sc *Scenario) error {
	res := routeScenario(sc)
	switch res.Outcome {
	case sim.Delivered:
		return verify.CheckWalk(sc.G, sc.S, sc.T, res.Route, 0)
	case sim.Errored:
		// Typed routing errors (locality too small, no admissible hop)
		// are legitimate below threshold; forwarding to a non-neighbour
		// never is.
		if errors.Is(res.Err, sim.ErrIllegalHop) {
			return fmt.Errorf("illegal hop: %v", res.Err)
		}
	}
	return nil
}

func checkDeterminism(sc *Scenario) error {
	a := routeScenario(sc)
	b := routeScenario(sc)
	if a.Outcome != b.Outcome {
		return fmt.Errorf("re-run changed outcome: %v then %v", a.Outcome, b.Outcome)
	}
	if len(a.Route) != len(b.Route) {
		return fmt.Errorf("re-run changed walk length: %d then %d hops", a.Len(), b.Len())
	}
	for i := range a.Route {
		if a.Route[i] != b.Route[i] {
			return fmt.Errorf("re-run diverged at hop %d: %d vs %d", i, a.Route[i], b.Route[i])
		}
	}
	return nil
}

func checkRelabel(sc *Scenario) error {
	if !sc.AtThreshold() {
		return nil
	}
	rng := rand.New(rand.NewSource(sc.Seed))
	perm := gen.RandomLabelPermutation(rng, sc.G)
	relabeled := &Scenario{
		Algo: sc.Algo, Alg: sc.Alg,
		G: sc.G.PermuteLabels(perm),
		K: sc.K, S: perm[sc.S], T: perm[sc.T],
		Seed: sc.Seed, Family: sc.Family,
	}
	res := routeScenario(relabeled)
	if res.Outcome != sim.Delivered {
		return fmt.Errorf("relabelling defeats delivery at k=%d ≥ T(n): outcome %v, err %v",
			sc.K, res.Outcome, res.Err)
	}
	if bound := sc.DilationBound(); bound > 0 {
		if err := verify.CheckDilation(res.Route, relabeled.G, relabeled.S, relabeled.T, bound); err != nil {
			return fmt.Errorf("relabelling breaks the dilation bound: %w", err)
		}
	}
	return nil
}

// checkCluster is the distributed form of the differential: shard the
// scenario graph across an in-process cluster, let the members discover
// their G_k(u) views over the (fault-free) loop transport, and require
// the hop-by-hop forwarded walk to be hop-identical to the global-graph
// engine's. Every decision on the cluster side runs against a locally
// assembled view, so a mismatch means discovery, view assembly, or the
// forwarder corrupted the routing model.
func checkCluster(sc *Scenario) error {
	if !sc.AtThreshold() || sc.G.N() > DifferentialMaxN {
		return nil
	}
	snap, err := engine.NewSnapshotStore(sc.G, sc.K, sc.Alg, engine.SnapshotOptions{})
	if err != nil {
		return fmt.Errorf("engine snapshot: %v", err)
	}
	mem := snap.Route(sc.S, sc.T, 0)
	if mem.Outcome != sim.Delivered {
		return nil // the delivery property owns in-memory failures
	}

	shards := 3
	if n := sc.G.N(); n < shards {
		shards = n
	}
	members, _, err := cluster.NewLocalCluster(sc.G, cluster.LocalClusterConfig{
		Shards: shards, K: sc.K, Alg: sc.Alg,
	})
	if err != nil {
		return fmt.Errorf("cluster setup: %v", err)
	}
	if err := cluster.Converge(members, 0); err != nil {
		return fmt.Errorf("fault-free cluster discovery failed: %v", err)
	}
	entry := int(sc.Seed%int64(shards)+int64(shards)) % shards
	rep, err := members[entry].Route(context.Background(), sc.S, sc.T, false)
	if err != nil {
		return fmt.Errorf("cluster route: %v", err)
	}
	if !rep.Delivered {
		return fmt.Errorf("engine delivered in %d hops but cluster failed: %s (%s)",
			mem.Len(), rep.Err, rep.ErrKind)
	}
	if len(rep.Route) != len(mem.Route) {
		return fmt.Errorf("walk lengths differ: engine %d hops, cluster %d hops",
			mem.Len(), len(rep.Route)-1)
	}
	for i := range rep.Route {
		if rep.Route[i] != mem.Route[i] {
			return fmt.Errorf("walks diverge at hop %d: engine %d, cluster %d",
				i, mem.Route[i], rep.Route[i])
		}
	}
	return nil
}

// checkCSR is the store differential: the same scenario topology held as
// an int-indexed CSR (internal/bigraph) must produce, at every vertex,
// through the extractor production runs (nbhd.Scratch.Extract behind
// prep.PreprocessStore), the view the map-shaped reference preprocessing
// builds from the graph, in every field routing reads (prep.DiffViews) —
// and the store-bound routing function must then walk hop-for-hop the
// walk the graph-bound one walks. A mismatch means the CSR layout, the
// scratch epochs, or the Store adapters corrupted the locality model.
func checkCSR(sc *Scenario) error {
	c := bigraph.FromGraph(sc.G)
	for _, u := range sc.G.Vertices() {
		want := prep.PreprocessRef(sc.G, u, sc.K, sc.Alg.Policy).Encode()
		if err := prep.DiffViews(prep.PreprocessStore(c, u, sc.K, sc.Alg.Policy), want); err != nil {
			return fmt.Errorf("CSR view G_%d(%d): %w", sc.K, u, err)
		}
	}
	w := sim.Bind(sc.Alg, c, sc.K)
	if w == nil {
		return nil
	}
	mem := routeScenario(sc)
	st := w.Run(sc.S, sc.T)
	if st.Outcome != mem.Outcome {
		return fmt.Errorf("store-backed outcome %v, graph-backed %v (err %v vs %v)",
			st.Outcome, mem.Outcome, st.Err, mem.Err)
	}
	if len(st.Route) != len(mem.Route) {
		return fmt.Errorf("walk lengths differ: graph %d hops, store %d hops", mem.Len(), st.Len())
	}
	for i := range st.Route {
		if st.Route[i] != mem.Route[i] {
			return fmt.Errorf("walks diverge at hop %d: graph %d, store %d", i, mem.Route[i], st.Route[i])
		}
	}
	return nil
}

// refTwin maps a scenario algorithm to its reference build over the
// retained map-based step (route/reference.go), or reports that none
// exists (the deliberately broken variant has no reference twin).
func refTwin(name string) (route.Algorithm, bool) {
	switch name {
	case "alg1":
		return route.Algorithm1Ref(), true
	case "alg1b":
		return route.Algorithm1BRef(), true
	case "alg2":
		return route.Algorithm2Ref(), true
	case "alg3":
		return route.Algorithm3Ref(), true
	default:
		return route.Algorithm{}, false
	}
}

// checkCompact is the compact-view differential: the production pipeline
// (compact-native preprocessing, int-indexed CompactView reads,
// scratch-backed bounce simulation) must behave exactly like the
// map-shaped reference preprocessing driving the retained map-based
// reference step — same outcome, hop-for-hop identical walk — at every
// locality, below threshold included (error cases must agree too). A
// divergence means a preprocessing kernel, the compact encoding, the
// index-order rank argument, or the scratch reuse broke a decision rule.
func checkCompact(sc *Scenario) error {
	ref, ok := refTwin(sc.Algo)
	if !ok {
		return nil
	}
	prod := routeScenario(sc)
	refRes := routeScenario(&Scenario{
		Algo: sc.Algo, Alg: ref,
		G: sc.G, K: sc.K, S: sc.S, T: sc.T,
		Seed: sc.Seed, Family: sc.Family,
	})
	if prod.Outcome != refRes.Outcome {
		return fmt.Errorf("compact outcome %v, reference %v (err %v vs %v)",
			prod.Outcome, refRes.Outcome, prod.Err, refRes.Err)
	}
	if len(prod.Route) != len(refRes.Route) {
		return fmt.Errorf("walk lengths differ: compact %d hops, reference %d hops",
			prod.Len(), refRes.Len())
	}
	for i := range prod.Route {
		if prod.Route[i] != refRes.Route[i] {
			return fmt.Errorf("walks diverge at hop %d: compact %d, reference %d",
				i, prod.Route[i], refRes.Route[i])
		}
	}
	return nil
}

// DeltaSteps is the churn-schedule length the delta property replays.
// Each prefix is checked against a from-scratch rebuild, so the cost is
// DeltaSteps full preprocessing passes plus the incremental chain.
const DeltaSteps = 6

// checkDelta is the incremental-churn differential: replay a
// deterministic (seed-derived) schedule of topology deltas and, after
// every prefix, require the Derive-maintained preprocessor to hold
// views identical — in every field routing reads (prep.DiffViews) — to
// the map-shaped reference preprocessing of the same snapshot.
// Views outside the k-radius dirty set must survive by pointer (the
// locality theorem as a caching contract: a flap at {x, y} can only
// change G_k(u) within distance k of x or y), and on snapshots where
// the endpoints stay connected at threshold locality the incrementally
// maintained views must still deliver.
func checkDelta(sc *Scenario) error {
	k := sc.K
	sched := churn.ScheduleDeltas(sc.G, sc.Seed, DeltaSteps)
	cur := sc.G
	p := prep.NewPreprocessor(sc.G, k, sc.Alg.Policy, prep.CacheOptions{})
	views := prep.NewScratch()
	for i, d := range sched {
		old := make(map[graph.Vertex]*prep.View, cur.N())
		for _, v := range cur.Vertices() {
			old[v] = p.At(v, views)
		}
		post, dirty, err := churn.Apply(cur, d, k)
		if err != nil {
			return fmt.Errorf("delta %d (%s): %v", i, d, err)
		}
		p = p.Derive(post, dirty)
		isDirty := make(map[graph.Vertex]bool, len(dirty))
		for _, v := range dirty {
			isDirty[v] = true
		}
		for _, v := range post.Vertices() {
			got := p.At(v, views)
			if !isDirty[v] {
				if ov, ok := old[v]; ok && got != ov {
					return fmt.Errorf("delta %d (%s): view of clean vertex %d was rebuilt (outside the dirty set)", i, d, v)
				}
			}
			want := prep.PreprocessRef(post, v, k, sc.Alg.Policy).Encode()
			if err := prep.DiffViews(got, want); err != nil {
				return fmt.Errorf("delta %d (%s): derived view of %d differs from the reference preprocessing: %w", i, d, v, err)
			}
		}
		if post.HasVertex(sc.S) && post.HasVertex(sc.T) &&
			k >= sc.Alg.MinK(post.N()) && post.Connected() {
			res := sim.Over(sc.Alg, p).Run(sc.S, sc.T)
			if res.Outcome != sim.Delivered {
				return fmt.Errorf("delta %d (%s): connected snapshot at k=%d ≥ T(%d) but incremental views failed to deliver: %v (%v)",
					i, d, k, post.N(), res.Outcome, res.Err)
			}
		}
		cur = post
	}
	return nil
}

func checkDifferential(sc *Scenario) error {
	if !sc.AtThreshold() || sc.G.N() > DifferentialMaxN {
		return nil
	}
	snap, err := engine.NewSnapshotStore(sc.G, sc.K, sc.Alg, engine.SnapshotOptions{})
	if err != nil {
		return fmt.Errorf("engine snapshot: %v", err)
	}
	mem := snap.Route(sc.S, sc.T, 0)
	if mem.Outcome != sim.Delivered {
		return nil // the delivery property owns in-memory failures
	}

	nw := netsim.New(sc.G, sc.K, sc.Alg)
	nw.Start()
	defer nw.Stop()
	if err := nw.Discover(); err != nil {
		return fmt.Errorf("fault-free discovery failed: %v", err)
	}
	dist, err := nw.Send(sc.S, sc.T)
	if err != nil {
		return fmt.Errorf("engine delivered in %d hops but netsim failed: %v", mem.Len(), err)
	}
	if len(dist) != len(mem.Route) {
		return fmt.Errorf("walk lengths differ: engine %d hops, netsim %d hops", mem.Len(), len(dist)-1)
	}
	for i := range dist {
		if dist[i] != mem.Route[i] {
			return fmt.Errorf("walks diverge at hop %d: engine %d, netsim %d", i, mem.Route[i], dist[i])
		}
	}
	return nil
}
