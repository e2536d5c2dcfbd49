package route

import (
	"fmt"

	"klocal/internal/graph"
	"klocal/internal/nbhd"
	"klocal/internal/prep"
)

// This file preserves the map-based decision logic the compact routing
// core replaced: a direct transcription of the rule tables over
// *graph.Graph views, map distances and component scans, deciding over
// the map-shaped reference preprocessing (prep.RefView). It exists to
// pin the production pipeline end to end — the *Ref algorithms must
// produce hop-for-hop identical walks (TestCompactStepMatchesRef and
// the klocalcheck "compact" property), and any divergence is a bug in
// the compact-native preprocessing or the compact decision paths, not
// in these functions. Nothing here runs on production decision paths.

// caseOneHopRef is the reference Case 1 decision: a fresh BFS through
// the raw view per hop.
func caseOneHopRef(view *prep.RefView, t, u graph.Vertex) graph.Vertex {
	if !view.Raw.Contains(t) {
		return graph.NoVertex
	}
	return view.Raw.G.NextHopToward(u, t)
}

// classifyArrivalRef resolves the predecessor v by scanning components.
func classifyArrivalRef(view *prep.RefView, s, v graph.Vertex, originAware bool) (arrival, int) {
	if v == graph.NoVertex {
		return arrivalFirst, -1
	}
	for i, r := range view.ActiveRoots {
		if r == v {
			return arrivalActive, i
		}
	}
	if originAware {
		if c := view.CompOf(v); c != nil && !c.Active && c.Has(s) {
			return arrivalSPassive, -1
		}
	}
	return arrivalPassive, -1
}

// kindAtRef resolves the rule family by scanning components.
func kindAtRef(view *prep.RefView, s, u graph.Vertex) ruleKind {
	if u == s {
		return rulesS
	}
	if c := view.CompOf(s); c != nil && !c.Active {
		return rulesUS
	}
	return rulesU
}

// refineU2Ref is refineU2 over a reference view.
type refineU2Ref func(view *prep.RefView, s, t, u, v graph.Vertex, roots []graph.Vertex, activeIdx int) graph.Vertex

// stepAwareRef is the reference body of Algorithms 1 and 1B at the
// centre of view.
func stepAwareRef(view *prep.RefView, s, t, v graph.Vertex, refine refineU2Ref) (graph.Vertex, error) {
	u := view.Center
	if hop := caseOneHopRef(view, t, u); hop != graph.NoVertex {
		return hop, nil
	}
	kind := kindAtRef(view, s, u)
	from, idx := classifyArrivalRef(view, s, v, true)
	if kind == rulesU && from == arrivalActive && len(view.ActiveRoots) == 2 && refine != nil {
		if hop := refine(view, s, t, u, v, view.ActiveRoots, idx); hop != graph.NoVertex {
			return hop, nil
		}
	}
	return decideActive(kind, view.ActiveRoots, from, idx)
}

// anticipateU2Ref is the reference Rules U2b–U2f hook over map state.
func anticipateU2Ref(view *prep.RefView, s, _, u, v graph.Vertex, roots []graph.Vertex, activeIdx int) graph.Vertex {
	ds, ok := view.RoutingDist[s]
	if !ok || ds >= view.K || s == u {
		return graph.NoVertex
	}
	target := roots[1-activeIdx]
	comp := view.CompRootedAt(target)
	if comp == nil || !comp.Has(s) {
		return graph.NoVertex
	}
	if simulatesBounceRef(view, s, target) {
		return v
	}
	return graph.NoVertex
}

// simBranchRef is a branch of the routing view around a simulated node.
type simBranchRef struct {
	roots  []graph.Vertex
	active bool
	hasS   bool
}

// simulatesBounceRef is the reference bounce simulation: a graph copy
// and fresh BFS maps per simulated step.
func simulatesBounceRef(view *prep.RefView, s, first graph.Vertex) bool {
	prev, cur := view.Center, first
	for step := 0; step < 4*view.K+4; step++ {
		if view.RoutingDist[cur] >= view.K {
			return false // cannot see past the horizon
		}
		branches := simBranchesRef(view, cur, s)
		var actRoots []graph.Vertex
		sPassive := false
		for _, br := range branches {
			if br.active {
				//klocal:allow reference path: differential pinning only, never routes production traffic
				actRoots = append(actRoots, br.roots...)
			} else if br.hasS {
				sPassive = true
			}
		}
		sortVerts(actRoots)
		if cur == s || sPassive {
			if len(actRoots) != 2 {
				return false
			}
			return prev == actRoots[1]
		}
		if len(actRoots) != 2 {
			return false
		}
		var next graph.Vertex
		switch prev {
		case actRoots[0]:
			next = actRoots[1]
		case actRoots[1]:
			next = actRoots[0]
		default:
			return false
		}
		prev, cur = cur, next
	}
	return false
}

// simBranchesRef classifies the branches around cur within u's routing
// view, the map way.
func simBranchesRef(view *prep.RefView, cur, s graph.Vertex) []simBranchRef {
	without := view.Routing.WithoutVertex(cur)
	distCur := view.Routing.BFS(cur)
	var out []simBranchRef
	for _, vs := range without.Components() {
		br := simBranchRef{}
		//klocal:allow reference path: differential pinning only, never routes production traffic
		vset := make(map[graph.Vertex]bool, len(vs))
		for _, v := range vs {
			vset[v] = true
			if v == s {
				br.hasS = true
			}
			if view.RoutingDist[v] == view.K || distCur[v] >= view.K {
				br.active = true
			}
			if v == view.Center {
				br.active = true
			}
		}
		//klocal:allow reference path: differential pinning only, never routes production traffic
		view.Routing.EachAdj(cur, func(w graph.Vertex) bool {
			if vset[w] {
				//klocal:allow reference path: differential pinning only, never routes production traffic
				br.roots = append(br.roots, w)
			}
			return true
		})
		if len(br.roots) == 0 {
			continue
		}
		sortVerts(br.roots)
		//klocal:allow reference path: differential pinning only, never routes production traffic
		out = append(out, br)
	}
	return out
}

// alg3StepRef is the reference Algorithm 3 decision over a freshly
// extracted map-based view.
func alg3StepRef(view *nbhd.Neighborhood, t, u graph.Vertex) (graph.Vertex, error) {
	if view.Contains(t) {
		hop := view.G.NextHopToward(u, t)
		if hop == graph.NoVertex {
			//klocal:allow reference path: differential pinning only, never routes production traffic
			return graph.NoVertex, fmt.Errorf("%w: t unreachable in view", ErrNoRoute)
		}
		return hop, nil
	}
	var constrained *nbhd.Component
	active := 0
	for _, c := range view.Components() {
		if !c.Active {
			continue
		}
		active++
		if c.Constrained {
			constrained = c
		}
	}
	if active != 1 || constrained == nil {
		//klocal:allow reference path: differential pinning only, never routes production traffic
		return graph.NoVertex, fmt.Errorf("%w: Lemma 12 precondition violated (%d active components)", ErrLocalityTooSmall, active)
	}
	target := graph.NoVertex
	best := -1
	for _, w := range constrained.ConstraintVertices {
		if d := view.Dist[w]; d > best {
			best = d
			target = w
		}
	}
	hop := view.G.NextHopToward(u, target)
	if hop == graph.NoVertex {
		//klocal:allow reference path: differential pinning only, never routes production traffic
		return graph.NoVertex, fmt.Errorf("%w: constraint vertex unreachable", ErrNoRoute)
	}
	return hop, nil
}

// refTwin turns a production algorithm into its reference build: same
// metadata, the map-based step bound over materialized graphs only (Over
// returns nil on any other store), reading its own map-shaped view at
// the handed view's centre.
func refTwin(a Algorithm, name string, bind func(g *graph.Graph, k int) Func) Algorithm {
	a.Name = name
	a.Over = func(p *prep.Preprocessor) Func {
		g, ok := p.Store().(*graph.Graph)
		if !ok {
			return nil
		}
		return bind(g, p.K())
	}
	return a
}

// Algorithm1Ref is the reference build of Algorithm 1 over the map-shaped
// preprocessing and the retained map-based step. Differential tests only.
func Algorithm1Ref() Algorithm {
	a := Algorithm1()
	return refTwin(a, "Algorithm1Ref", func(g *graph.Graph, k int) Func {
		p := prep.NewRefPreprocessor(g, k, a.Policy)
		return func(s, t, v graph.Vertex, view *prep.View, _ *prep.Scratch) (graph.Vertex, error) {
			return stepAwareRef(p.At(view.Center), s, t, v, nil)
		}
	})
}

// Algorithm1BRef is the reference build of Algorithm 1B.
func Algorithm1BRef() Algorithm {
	a := Algorithm1B()
	return refTwin(a, "Algorithm1BRef", func(g *graph.Graph, k int) Func {
		p := prep.NewRefPreprocessor(g, k, a.Policy)
		return func(s, t, v graph.Vertex, view *prep.View, _ *prep.Scratch) (graph.Vertex, error) {
			return stepAwareRef(p.At(view.Center), s, t, v, anticipateU2Ref)
		}
	})
}

// Algorithm2Ref is the reference build of Algorithm 2.
func Algorithm2Ref() Algorithm {
	a := Algorithm2()
	return refTwin(a, "Algorithm2Ref", func(g *graph.Graph, k int) Func {
		p := prep.NewRefPreprocessor(g, k, a.Policy)
		return func(_, t, v graph.Vertex, cv *prep.View, _ *prep.Scratch) (graph.Vertex, error) {
			view := p.At(cv.Center)
			if hop := caseOneHopRef(view, t, cv.Center); hop != graph.NoVertex {
				return hop, nil
			}
			roots := view.ActiveRoots
			if len(roots) > 2 {
				//klocal:allow reference path: differential pinning only, never routes production traffic
				return graph.NoVertex, fmt.Errorf("%w: active degree %d > 2", ErrLocalityTooSmall, len(roots))
			}
			from, idx := classifyArrivalRef(view, graph.NoVertex, v, false)
			return decideActive(rulesU, roots, from, idx)
		}
	})
}

// Algorithm3Ref is the reference build of Algorithm 3.
func Algorithm3Ref() Algorithm {
	return refTwin(Algorithm3(), "Algorithm3Ref", func(g *graph.Graph, k int) Func {
		return func(_, t, _ graph.Vertex, view *prep.View, _ *prep.Scratch) (graph.Vertex, error) {
			//klocal:allow reference path: differential pinning only, never routes production traffic
			return alg3StepRef(nbhd.Extract(g, view.Center, k), t, view.Center)
		}
	})
}
