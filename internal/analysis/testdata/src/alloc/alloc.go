// Package alloc seeds kalloc violations: heap allocation inside
// decision paths and //klocal:hotpath functions, next to the
// caller-owned scratch idiom that must pass silently.
package alloc

import (
	"errors"

	"klocal/internal/graph"
	"klocal/internal/prep"
)

// Scratch is a caller-owned buffer in the bigraph style.
type Scratch struct {
	Verts []int32
	Seen  []bool
}

// Hot is held to the zero-allocation contract.
//
//klocal:hotpath
func Hot(sc *Scratch, n int, name string, suffix string) {
	buf := make([]int32, n)   // want "kalloc: hot path allocates with make"
	tmp := []int32{1, 2, 3}   // want "kalloc: hot path allocates a slice literal"
	m := map[int]int{}        // want "kalloc: hot path allocates a map literal"
	p := &Scratch{}           // want "kalloc: hot path heap-allocates &alloc.Scratch"
	bs := []byte(name)        // want "kalloc: hot path converts between string and slice"
	label := name + suffix    // want "kalloc: hot path concatenates strings"
	f := func() int32 {       // want "kalloc: hot path allocates a closure capturing n"
		return int32(n)
	}
	sink(1, 2)                // want "kalloc: hot path variadic call to sink allocates its argument slice"
	box(n)                    // want "kalloc: hot path boxes a int into an interface argument of box"

	// The caller-owned scratch idiom is exempt: self-appends rooted in a
	// parameter grow to a high-water mark once, then reuse storage.
	sc.Verts = append(sc.Verts, 7)
	sc.Verts = append(sc.Verts[:0], 8)
	appendPtr(&sc.Seen)

	// A growing append into a local is not.
	var local []int32
	local = append(local, 9) // want "kalloc: hot path append may grow its backing array"

	_, _, _, _, _, _, _, _ = buf, tmp, m, p, bs, label, f, local
}

func sink(xs ...int32) {}

// appendPtr self-appends through a pointer parameter: still the
// caller-owned idiom, still exempt.
//
//klocal:hotpath
func appendPtr(out *[]bool) {
	*out = append(*out, true)
}

func box(v any) {}

var errMiss = errors.New("miss")

// Decide has the routing-function shape, so it is a kalloc scope with
// no mark needed; its helper joins transitively.
func Decide(s, t, v graph.Vertex, view *prep.View, sc *prep.Scratch) (graph.Vertex, error) {
	hops := make([]graph.Vertex, 0, 4) // want "kalloc: hot path allocates with make"
	_ = hops
	return helper(t)
}

func helper(t graph.Vertex) (graph.Vertex, error) {
	if t == graph.NoVertex {
		return graph.NoVertex, errMiss
	}
	box(struct{ x int }{1}) // want "kalloc: hot path boxes a struct"
	return t, nil
}

// Cold has no mark and no decision shape: it may allocate freely.
func Cold(n int) []int32 {
	out := make([]int32, n)
	return append(out, []int32{1, 2}...)
}

// Arrays and constant expressions do not allocate.
//
//klocal:hotpath
func HotClean(sc *Scratch) int32 {
	var window [4]int32
	const label = "k" + "local"
	box(nil)
	_ = label
	for i := range window {
		window[i] = int32(i)
	}
	if len(sc.Verts) > 0 {
		return sc.Verts[0]
	}
	return 0
}
