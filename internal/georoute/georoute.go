// Package georoute implements the position-based routing algorithms the
// paper's Section 3 surveys: greedy routing, compass routing and
// greedy-compass (predecessor-oblivious, origin-oblivious, 1-local —
// each defeated by some planar graph), and FACE-1 face routing, which
// guarantees delivery on plane embeddings at the price of Θ(log n) bits
// of message state (it is not stateless, exactly the trade-off the
// paper's model excludes).
package georoute

import (
	"errors"
	"fmt"

	"klocal/internal/geom"
	"klocal/internal/graph"
	"klocal/internal/prep"
	"klocal/internal/route"
)

// ErrNoProgress is returned by face routing when no face switch closer to
// the destination exists — impossible on connected plane embeddings, so
// it indicates a non-planar input.
var ErrNoProgress = errors.New("georoute: face traversal found no crossing closer to t")

// Greedy returns the greedy position-based router: always forward to the
// neighbour geometrically closest to the destination (ties by label).
// 1-local, stateless and oblivious; defeated by local minima (see
// GreedyTrap).
func Greedy(e *geom.Embedding) route.Algorithm {
	return route.Algorithm{
		Name:             "Greedy",
		OriginAware:      false,
		PredecessorAware: false,
		MinK:             func(int) int { return 0 },
		Over: func(p *prep.Preprocessor) route.Func {
			st := p.Store()
			return func(_, t, _ graph.Vertex, view *prep.View, _ *prep.Scratch) (graph.Vertex, error) {
				u := view.Center
				target := e.Pos[t]
				best := graph.NoVertex
				bestD := 0.0
				//klocal:allow greedy is the 1-local position-based baseline; it reads only edges incident to u, i.e. G_1(u)
				st.EachAdj(u, func(w graph.Vertex) bool {
					if d := e.Pos[w].Dist2(target); best == graph.NoVertex || d < bestD {
						best, bestD = w, d
					}
					return true
				})
				if best == graph.NoVertex {
					//klocal:allow cold error path: fires only on a model-contract violation, never on the measured route
					return graph.NoVertex, fmt.Errorf("georoute: greedy at isolated node %d", u)
				}
				return best, nil
			}
		},
	}
}

// Compass returns compass routing: forward along the edge forming the
// smallest angle with the segment toward the destination (ties by label).
func Compass(e *geom.Embedding) route.Algorithm {
	return route.Algorithm{
		Name:             "Compass",
		OriginAware:      false,
		PredecessorAware: false,
		MinK:             func(int) int { return 0 },
		Over: func(p *prep.Preprocessor) route.Func {
			st := p.Store()
			return func(_, t, _ graph.Vertex, view *prep.View, _ *prep.Scratch) (graph.Vertex, error) {
				u := view.Center
				pu, pt := e.Pos[u], e.Pos[t]
				best := graph.NoVertex
				bestA := 0.0
				//klocal:allow compass is the 1-local position-based baseline; it reads only edges incident to u, i.e. G_1(u)
				st.EachAdj(u, func(w graph.Vertex) bool {
					a := absAngleBetween(pu, pt, e.Pos[w])
					if best == graph.NoVertex || a < bestA-1e-15 {
						best, bestA = w, a
					}
					return true
				})
				if best == graph.NoVertex {
					//klocal:allow cold error path: fires only on a model-contract violation, never on the measured route
					return graph.NoVertex, fmt.Errorf("georoute: compass at isolated node %d", u)
				}
				return best, nil
			}
		},
	}
}

// GreedyCompass returns the greedy-compass hybrid of Bose et al.: among
// the two neighbours angularly adjacent to the segment toward t (the
// closest clockwise and counterclockwise), forward to the one closer to
// t. Succeeds on every triangulation.
func GreedyCompass(e *geom.Embedding) route.Algorithm {
	return route.Algorithm{
		Name:             "GreedyCompass",
		OriginAware:      false,
		PredecessorAware: false,
		MinK:             func(int) int { return 0 },
		Over: func(p *prep.Preprocessor) route.Func {
			st := p.Store()
			return func(_, t, _ graph.Vertex, view *prep.View, _ *prep.Scratch) (graph.Vertex, error) {
				u := view.Center
				//klocal:allow greedy-compass is 1-local; degree of u is part of G_1(u)
				if st.Deg(u) == 0 {
					//klocal:allow cold error path: fires only on a model-contract violation, never on the measured route
					return graph.NoVertex, fmt.Errorf("georoute: greedy-compass at isolated node %d", u)
				}
				//klocal:allow greedy-compass is 1-local; incidence of {u,t} is part of G_1(u)
				if st.HasEdge(u, t) {
					// The destination sits exactly on the reference ray,
					// which the rotational successors exclude.
					return t, nil
				}
				ccw := e.NextCCWFromPoint(u, e.Pos[t])
				cw := e.NextCWFromPoint(u, e.Pos[t])
				target := e.Pos[t]
				if e.Pos[ccw].Dist2(target) <= e.Pos[cw].Dist2(target) {
					return ccw, nil
				}
				return cw, nil
			}
		},
	}
}

// absAngleBetween returns the absolute angle at apex between the rays
// apex→a and apex→b, in [0, π].
func absAngleBetween(apex, a, b Point) float64 {
	d := angleDiff(apex.Angle(a), apex.Angle(b))
	return d
}

// Point aliases geom.Point for internal brevity.
type Point = geom.Point

func angleDiff(a, b float64) float64 {
	d := a - b
	for d > 3.141592653589793 {
		d -= 2 * 3.141592653589793
	}
	for d < -3.141592653589793 {
		d += 2 * 3.141592653589793
	}
	if d < 0 {
		return -d
	}
	return d
}

// FaceResult is the outcome of a FACE-1 run.
//
// Len returns the route length in edges; see the method below.
type FaceResult struct {
	// Route is the walk from s; it ends at t iff Delivered.
	Route []graph.Vertex
	// Delivered reports successful delivery.
	Delivered bool
	// FaceSwitches counts how many faces were traversed.
	FaceSwitches int
	// StateBits is the message overhead face routing needs: the progress
	// point p on the segment st (two coordinates) plus the traversal
	// bookkeeping — Θ(log n) bits, the paper's point about face routing
	// not being stateless.
	StateBits int
}

// Len returns the route length in edges.
func (r *FaceResult) Len() int {
	if len(r.Route) == 0 {
		return 0
	}
	return len(r.Route) - 1
}

// FaceRoute runs FACE-1 face routing on a plane embedding from s to t:
// traverse the boundary of the face containing the current progress
// point toward t, remember the boundary crossing with segment (p, t)
// closest to t, walk to it, cross, repeat. Guarantees delivery on
// connected plane embeddings (Kranakis, Singh, Urrutia; Bose et al.).
func FaceRoute(e *geom.Embedding, s, t graph.Vertex) (*FaceResult, error) {
	//klocal:allow face routing is the stateful comparator outside the paper's model (Section 3); endpoint validation reads the embedding's graph
	if !e.G.HasVertex(s) || !e.G.HasVertex(t) {
		return nil, fmt.Errorf("georoute: unknown endpoint")
	}
	//klocal:allow FaceRoute returns a freshly built per-call route trace by API design
	res := &FaceResult{Route: []graph.Vertex{s}, StateBits: 2*64 + 2}
	if s == t {
		res.Delivered = true
		return res, nil
	}
	target := e.Pos[t]
	// The face containing the germ of the ray s→t is the face to the left
	// of the directed edge (s, w) where w is s's first neighbour clockwise
	// from the ray; FaceWalkNext walks exactly the left faces. After each
	// crossing of an edge {x, y} (traversed x→y), the segment continues
	// into the face on the other side, which is the face left of (y, x).
	startU, startV := s, e.NextCWFromPoint(s, target)
	if startV == graph.NoVertex {
		//klocal:allow cold error path: fires only on a model-contract violation, never on the measured route
		return nil, fmt.Errorf("georoute: node %d has no neighbours", s)
	}
	p := e.Pos[s]
	//klocal:allow face routing's switch budget is a global bound (2m+4); the algorithm is the out-of-model comparator
	maxSwitches := 2*e.G.M() + 4
	for iter := 0; iter < maxSwitches; iter++ {
		delivered, nextU, nextV, crossing, err := traverseFace(e, startU, startV, p, target, t, &res.Route)
		if err != nil {
			return res, err
		}
		if delivered {
			res.Delivered = true
			return res, nil
		}
		res.FaceSwitches++
		startU, startV = nextU, nextV
		p = crossing
	}
	//klocal:allow cold error path: fires only on a model-contract violation, never on the measured route
	return res, fmt.Errorf("georoute: face routing exceeded %d face switches (non-planar input?)", maxSwitches)
}

// traverseFace walks the face to the left of the directed edge
// (startU, startV), which intersects the open segment (p, target): a full
// scouting loop recording the boundary crossing closest to the target,
// then a second partial walk to the crossing edge {x, y}, which the
// message crosses (ending at y). It returns (delivered, next start
// directed edge (y, x), new progress point). The route slice is extended
// with every physical hop.
func traverseFace(e *geom.Embedding, startU, startV graph.Vertex, p, target Point, t graph.Vertex, routeOut *[]graph.Vertex) (bool, graph.Vertex, graph.Vertex, Point, error) {
	// Phase 1: scout the whole face (no physical movement yet).
	type dirEdge struct{ a, b graph.Vertex }
	var (
		bestQ    Point
		bestEdge dirEdge
		found    bool
	)
	bestD := p.Dist2(target)
	cu, cv := startU, startV
	for {
		if q, hit := geom.SegmentsIntersect(e.Pos[cu], e.Pos[cv], p, target); hit {
			if d := q.Dist2(target); d < bestD-1e-15 {
				bestD, bestQ, bestEdge, found = d, q, dirEdge{cu, cv}, true
			}
		}
		cu, cv = e.FaceWalkNext(cu, cv)
		if cu == startU && cv == startV {
			break
		}
	}
	if !found {
		return false, graph.NoVertex, graph.NoVertex, p, ErrNoProgress
	}
	// Phase 2: physically walk the face until the crossing edge, visiting
	// t early if the boundary passes through it.
	cu, cv = startU, startV
	for {
		*routeOut = append(*routeOut, cv)
		if cv == t {
			return true, graph.NoVertex, graph.NoVertex, p, nil
		}
		if cu == bestEdge.a && cv == bestEdge.b {
			// The crossing edge has been traversed; the message is now at
			// its far endpoint y = cv; the segment continues in the face
			// to the left of (y, x).
			return false, cv, cu, bestQ, nil
		}
		cu, cv = e.FaceWalkNext(cu, cv)
		if cu == startU && cv == startV {
			return false, graph.NoVertex, graph.NoVertex, p, fmt.Errorf("georoute: crossing edge not reached on second walk")
		}
	}
}

// FaceRouteAlgorithm wraps FaceRoute as a route.Algorithm whose bound
// function replays the precomputed stateful walk hop by hop — useful for
// plugging face routing into the common simulator and experiment
// harness. The walk is recomputed per (s, t) pair; the statefulness that
// the paper's model forbids lives inside the closure.
func FaceRouteAlgorithm(e *geom.Embedding) route.Algorithm {
	return route.Algorithm{
		Name:             "FaceRouting",
		OriginAware:      true, // the segment (s, t) is part of the state
		PredecessorAware: true,
		// Face routes legitimately revisit walk states (a face can be
		// re-traversed after the progress point advances), so
		// repetition-based livelock detection must stay off — the same
		// flag randomized algorithms use.
		Randomized: true,
		MinK:       func(int) int { return 0 },
		Over: func(*prep.Preprocessor) route.Func {
			type key struct{ s, t graph.Vertex }
			walks := make(map[key][]graph.Vertex)
			positions := make(map[key]int)
			return func(s, t, _ graph.Vertex, view *prep.View, _ *prep.Scratch) (graph.Vertex, error) {
				u := view.Center
				kk := key{s, t}
				walk, ok := walks[kk]
				if !ok {
					res, err := FaceRoute(e, s, t)
					if err != nil {
						return graph.NoVertex, err
					}
					if !res.Delivered {
						return graph.NoVertex, ErrNoProgress
					}
					walk = res.Route
					//klocal:allow face routing is deliberately stateful (Θ(log n) bits per message, Section 3); the walk cache is that state
					walks[kk] = walk
					//klocal:allow face routing is deliberately stateful; the walk position is the Θ(log n)-bit message state
					positions[kk] = 0
				}
				i := positions[kk]
				if i >= len(walk)-1 || walk[i] != u {
					// Resynchronize (the simulator may probe states).
					i = -1
					for j, w := range walk[:len(walk)-1] {
						if w == u {
							i = j
							break
						}
					}
					if i < 0 {
						//klocal:allow cold error path: fires only on a model-contract violation, never on the measured route
						return graph.NoVertex, fmt.Errorf("georoute: node %d not on the face route", u)
					}
				}
				//klocal:allow face routing is deliberately stateful; advancing the walk position is the point of the comparator
				positions[kk] = i + 1
				return walk[i+1], nil
			}
		},
	}
}
