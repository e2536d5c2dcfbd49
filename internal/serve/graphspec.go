package serve

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"klocal/internal/bigraph"
	"klocal/internal/churn"
	"klocal/internal/gen"
	"klocal/internal/graph"
	"klocal/internal/route"
)

// GraphSpec describes a topology the daemon can build — one of the
// named generators (the same family cmd/loadgen exposes), an explicit
// edge list, or a graph file on disk (kind "file"). It is the JSON body
// of PUT /graph and the parsed form of klocald's -graph/-size/-seed/-p
// and -graph-file flags.
type GraphSpec struct {
	// Kind selects the generator: lollipop|cycle|path|grid|spider|wheel|
	// barbell|complete|random|tree, "edges" for an explicit topology, or
	// "file" for an on-disk graph (see Path). Empty means lollipop, or
	// "file" when Path is set.
	Kind string `json:"kind,omitempty"`
	// Size is the number of nodes for generated topologies (default 48).
	Size int `json:"size,omitempty"`
	// Seed drives the random generators (default 1).
	Seed int64 `json:"seed,omitempty"`
	// P is the extra-edge probability for Kind "random" (default 0.1).
	P float64 `json:"p,omitempty"`
	// Edges is the explicit topology for Kind "edges" (or whenever
	// non-empty): pairs of vertex labels. The graph must be connected.
	Edges [][2]int64 `json:"edges,omitempty"`
	// Path is the on-disk graph for Kind "file": a binary ".csr" file
	// (mmap'd — the million-node path, see DESIGN.md §12) or an edge
	// list (".txt", ".txt.gz"). File topologies deploy store-backed:
	// routing works as usual but hop traces and exact s–t distances
	// (stretch) are unavailable.
	Path string `json:"path,omitempty"`
}

// withDefaults fills the zero values.
func (sp GraphSpec) withDefaults() GraphSpec {
	if sp.Kind == "" {
		switch {
		case sp.Path != "":
			sp.Kind = "file"
		case len(sp.Edges) > 0:
			sp.Kind = "edges"
		default:
			sp.Kind = "lollipop"
		}
	}
	if sp.Size <= 0 {
		sp.Size = 48
	}
	if sp.Seed == 0 {
		sp.Seed = 1
	}
	if sp.P <= 0 {
		sp.P = 0.1
	}
	return sp
}

// String renders the spec for logs and report names.
func (sp GraphSpec) String() string {
	sp = sp.withDefaults()
	switch sp.Kind {
	case "edges":
		return fmt.Sprintf("edges(m=%d)", len(sp.Edges))
	case "file":
		return fmt.Sprintf("file(%s)", sp.Path)
	}
	return fmt.Sprintf("%s(n=%d seed=%d)", sp.Kind, sp.Size, sp.Seed)
}

// BuildStore constructs the graph store the spec describes: a loaded
// (mmap'd when possible) CSR for Kind "file", a materialized
// *graph.Graph for every generator kind. File topologies skip the
// connectivity check — a full-graph BFS at every deploy defeats the
// point of the mmap path; csrgen-produced families are connected by
// construction.
func (sp GraphSpec) BuildStore() (bigraph.Store, error) {
	sp = sp.withDefaults()
	if sp.Kind == "file" {
		if sp.Path == "" {
			return nil, fmt.Errorf("serve: kind \"file\" needs a path")
		}
		return bigraph.LoadFile(sp.Path)
	}
	g, err := sp.Build()
	if err != nil {
		return nil, err
	}
	return g, nil
}

// maxSpecEdges caps the edges a generator spec may ask for. It admits a
// 1000×1000 grid (≈2·10⁶ edges) and refuses, before any allocation,
// the specs whose generators would exhaust memory, such as a complete
// graph on 10⁶ vertices (≈5·10¹¹ edges).
const maxSpecEdges = 1 << 22

// ErrSpecBounds rejects a generator spec whose size is below the
// smallest graph its kind can build or whose edge count would exceed
// maxSpecEdges. PUT /graph answers it with a 400 and keeps serving the
// current deployment.
var ErrSpecBounds = errors.New("serve: graph spec out of bounds")

// specBounds returns the smallest size a generator kind builds and the
// number of edges it asks for at size n, in float64 so no size
// overflows. "random" draws once per vertex pair whatever its p, so it
// counts every pair. Unknown kinds report ok = false.
func specBounds(kind string, n int) (minSize int, edges float64, ok bool) {
	x := float64(n)
	switch kind {
	case "lollipop":
		return 4, x, true // cycle n−n/3 ≥ 3 plus its tail
	case "cycle":
		return 3, x, true
	case "path", "tree":
		return 2, x - 1, true
	case "grid":
		side := math.Ceil(math.Sqrt(x))
		return 2, 2 * side * (side - 1), true
	case "spider":
		return 5, x - 1, true // four arms of (n−1)/4 ≥ 1 vertices
	case "wheel":
		return 4, 2 * (x - 1), true
	case "barbell":
		c := math.Floor((x - 2) / 2)
		return 6, c*(c-1) + x, true // two cliques of (n−2)/2 ≥ 2 and a bridge
	case "complete", "random":
		return 2, x * (x - 1) / 2, true
	}
	return 0, 0, false
}

// Build constructs the (deterministic) graph the spec describes. Kind
// "file" has no materialized graph — use BuildStore. A generator size
// outside its kind's bounds fails with ErrSpecBounds before generating.
func (sp GraphSpec) Build() (*graph.Graph, error) {
	sp = sp.withDefaults()
	if sp.Kind == "file" {
		return nil, fmt.Errorf("serve: kind \"file\" is store-backed; use BuildStore")
	}
	if minSize, edges, ok := specBounds(sp.Kind, sp.Size); ok {
		if sp.Size < minSize {
			return nil, fmt.Errorf("%w: %s needs size >= %d, got %d", ErrSpecBounds, sp.Kind, minSize, sp.Size)
		}
		if edges > maxSpecEdges {
			return nil, fmt.Errorf("%w: %s asks for %.3g edges (max %d)", ErrSpecBounds, sp, edges, maxSpecEdges)
		}
	}
	rng := rand.New(rand.NewSource(sp.Seed))
	var g *graph.Graph
	switch sp.Kind {
	case "edges":
		if len(sp.Edges) == 0 {
			return nil, fmt.Errorf("serve: kind \"edges\" needs a non-empty edge list")
		}
		b := graph.NewBuilder()
		for _, e := range sp.Edges {
			if e[0] == e[1] {
				return nil, fmt.Errorf("serve: self-loop {%d, %d} rejected", e[0], e[1])
			}
			if graph.Vertex(e[0]) == graph.NoVertex || graph.Vertex(e[1]) == graph.NoVertex {
				return nil, fmt.Errorf("serve: edge {%d, %d}: %w", e[0], e[1], churn.ErrReservedLabel)
			}
			b.AddEdge(graph.Vertex(e[0]), graph.Vertex(e[1]))
		}
		g = b.Build()
	case "lollipop":
		g = gen.Lollipop(sp.Size-sp.Size/3, sp.Size/3)
	case "cycle":
		g = gen.Cycle(sp.Size)
	case "path":
		g = gen.Path(sp.Size)
	case "grid":
		side := 1
		for side*side < sp.Size {
			side++
		}
		g = gen.Grid(side, side)
	case "spider":
		g = gen.Spider(4, (sp.Size-1)/4)
	case "wheel":
		g = gen.Wheel(sp.Size)
	case "barbell":
		c := (sp.Size - 2) / 2
		g = gen.Barbell(c, sp.Size-2*c)
	case "complete":
		g = gen.Complete(sp.Size)
	case "random":
		g = gen.RandomConnected(rng, sp.Size, sp.P)
	case "tree":
		g = gen.RandomTree(rng, sp.Size)
	default:
		return nil, fmt.Errorf("serve: unknown graph kind %q", sp.Kind)
	}
	if !g.Connected() {
		return nil, fmt.Errorf("serve: %s is not connected", sp)
	}
	return g, nil
}

// AlgorithmByName resolves one of the paper's Table 2 algorithms.
func AlgorithmByName(name string) (route.Algorithm, error) {
	switch name {
	case "alg1":
		return route.Algorithm1(), nil
	case "alg1b":
		return route.Algorithm1B(), nil
	case "alg2":
		return route.Algorithm2(), nil
	case "alg3":
		return route.Algorithm3(), nil
	default:
		return route.Algorithm{}, fmt.Errorf("serve: unknown algorithm %q (alg1|alg1b|alg2|alg3)", name)
	}
}

// DilationBound returns the paper's dilation guarantee for a Table 2
// algorithm at or above its threshold (Theorems 5–8), or 0 when no
// finite bound applies.
func DilationBound(name string) float64 {
	switch name {
	case "alg1":
		return 7
	case "alg1b":
		return 6
	case "alg2":
		return 3
	case "alg3":
		return 1
	default:
		return 0
	}
}
