package tables

import (
	"math/rand"
	"testing"

	"klocal/internal/gen"
	"klocal/internal/graph"
	"klocal/internal/sim"
)

func TestFullTablesShortestEverywhere(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 15; trial++ {
		g := gen.RandomConnected(rng, 4+rng.Intn(20), 0.2)
		ft, err := BuildFullTables(g)
		if err != nil {
			t.Fatal(err)
		}
		alg := ft.Algorithm()
		f := sim.Bind(alg, g, 0)
		for _, s := range g.Vertices() {
			for _, dst := range g.Vertices() {
				if s == dst {
					continue
				}
				res := f.Run(s, dst)
				if res.Outcome != sim.Delivered || res.Len() != res.Dist {
					t.Fatalf("full tables %d->%d: %v len=%d dist=%d", s, dst, res.Outcome, res.Len(), res.Dist)
				}
			}
		}
	}
}

func TestFullTablesMemoryIsThetaNLogN(t *testing.T) {
	g := gen.Cycle(64)
	ft, err := BuildFullTables(g)
	if err != nil {
		t.Fatal(err)
	}
	want := (64 - 1) * 2 * 6 // 63 entries × 2 labels × ⌈log₂ 64⌉
	if got := ft.MaxBits(); got != want {
		t.Errorf("MaxBits = %d, want %d", got, want)
	}
}

func TestFullTablesDisconnected(t *testing.T) {
	g := graph.NewBuilder().AddEdge(0, 1).AddEdge(2, 3).Build()
	if _, err := BuildFullTables(g); err == nil {
		t.Error("expected error on disconnected network")
	}
}

func TestTreeIntervalDeliversEverywhere(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	for trial := 0; trial < 15; trial++ {
		g := gen.RandomConnected(rng, 4+rng.Intn(20), 0.2)
		ti, err := BuildTreeInterval(g, g.Vertices()[0])
		if err != nil {
			t.Fatal(err)
		}
		alg := ti.Algorithm()
		f := sim.Bind(alg, g, 0)
		for _, s := range g.Vertices() {
			for _, dst := range g.Vertices() {
				if s == dst {
					continue
				}
				res := f.Run(s, dst)
				if res.Outcome != sim.Delivered {
					t.Fatalf("interval routing %d->%d: %v err=%v", s, dst, res.Outcome, res.Err)
				}
			}
		}
	}
}

func TestTreeIntervalAddressesArePermutation(t *testing.T) {
	g := gen.Grid(3, 4)
	ti, err := BuildTreeInterval(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for _, v := range g.Vertices() {
		a := ti.Addr(v)
		if a < 0 || a >= g.N() || seen[a] {
			t.Fatalf("bad address %d for %d", a, v)
		}
		seen[a] = true
	}
	if ti.Addr(0) != 0 {
		t.Errorf("root address = %d, want 0", ti.Addr(0))
	}
}

func TestTreeIntervalMemoryIsDegLogN(t *testing.T) {
	g := gen.Star(33) // centre degree 32, leaves degree 1
	ti, err := BuildTreeInterval(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Centre: 32 ports × 2 + own address, 6-bit labels (n=33).
	if got, want := ti.BitsAt(0), (2*32+1)*6; got != want {
		t.Errorf("centre bits = %d, want %d", got, want)
	}
	// Leaf: 1 port (parent).
	if got, want := ti.BitsAt(5), (2*1+1)*6; got != want {
		t.Errorf("leaf bits = %d, want %d", got, want)
	}
	if ti.MaxBits() != ti.BitsAt(0) {
		t.Error("MaxBits should be the centre's")
	}
}

func TestTreeIntervalRoutesOnTreeAreShortest(t *testing.T) {
	// On a tree the spanning tree is the graph: dilation exactly 1.
	rng := rand.New(rand.NewSource(83))
	g := gen.RandomTree(rng, 25)
	ti, err := BuildTreeInterval(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s := ti.TreeStretch(); s != 1 {
		t.Errorf("tree stretch on a tree = %v, want 1", s)
	}
}

func TestTreeIntervalStretchOnCycle(t *testing.T) {
	// On C_n the spanning tree is a path: the worst pair (the two path
	// ends, graph distance 1) pays stretch n−1.
	g := gen.Cycle(12)
	ti, err := BuildTreeInterval(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s := ti.TreeStretch(); s != 11 {
		t.Errorf("cycle stretch = %v, want 11", s)
	}
}

func TestTreeIntervalErrors(t *testing.T) {
	g := graph.NewBuilder().AddEdge(0, 1).AddEdge(2, 3).Build()
	if _, err := BuildTreeInterval(g, 0); err == nil {
		t.Error("expected error on disconnected network")
	}
	conn := gen.Path(4)
	if _, err := BuildTreeInterval(conn, 99); err == nil {
		t.Error("expected error on unknown root")
	}
	ti, err := BuildTreeInterval(conn, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ti.NextHop(2, 2); err == nil {
		t.Error("NextHop at destination must error")
	}
	if _, err := ti.NextHop(2, 99); err == nil {
		t.Error("NextHop to unknown destination must error")
	}
}

func TestKLocalBitsGrowsWithK(t *testing.T) {
	g := gen.Grid(6, 6)
	b1 := KLocalBits(g, 14, 1)
	b3 := KLocalBits(g, 14, 3)
	bAll := KLocalBits(g, 14, 12)
	if !(b1 < b3 && b3 < bAll) {
		t.Errorf("bits should grow with k: %d, %d, %d", b1, b3, bAll)
	}
	// At k covering the whole graph the memory is the full topology.
	want := (g.N() + 2*g.M()) * bitsPerLabel(g.N())
	if bAll != want {
		t.Errorf("full-graph bits = %d, want %d", bAll, want)
	}
}
