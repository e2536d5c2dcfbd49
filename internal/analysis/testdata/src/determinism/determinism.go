// Package determinism seeds kdeterminism violations: sources of
// nondeterminism inside decision paths.
package determinism

import (
	"math/rand"
	"time"

	"klocal/internal/graph"
	"klocal/internal/prep"
)

// Bad draws on every nondeterminism source the analyzer knows.
func Bad(ch1, ch2 chan graph.Vertex, seen map[graph.Vertex]bool) func(s, t, v graph.Vertex, view *prep.View, sc *prep.Scratch) (graph.Vertex, error) {
	return func(s, t, v graph.Vertex, view *prep.View, sc *prep.Scratch) (graph.Vertex, error) {
		for w := range seen { // want "kdeterminism: decision path ranges over a map"
			_ = w
		}
		_ = rand.Intn(4) // want "kdeterminism: decision path draws from math/rand's global generator"
		_ = time.Now()   // want "kdeterminism: decision path reads the clock"
		select {         // want "kdeterminism: decision path selects over multiple ready cases"
		case w := <-ch1:
			return w, nil
		case w := <-ch2:
			return w, nil
		}
	}
}

// Good keeps randomness explicit and seeded, iterates slices, and uses
// single-channel receives: all reproducible.
func Good(ch chan graph.Vertex, order []graph.Vertex) func(s, t, v graph.Vertex, view *prep.View, sc *prep.Scratch) (graph.Vertex, error) {
	rng := rand.New(rand.NewSource(1))
	return func(s, t, v graph.Vertex, view *prep.View, sc *prep.Scratch) (graph.Vertex, error) {
		for _, w := range order {
			if w == t {
				return w, nil
			}
		}
		if len(order) > 0 {
			return order[rng.Intn(len(order))], nil
		}
		select {
		case w := <-ch:
			return w, nil
		}
	}
}
