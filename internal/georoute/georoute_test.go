package georoute

import (
	"math/rand"
	"testing"

	"klocal/internal/geom"
	"klocal/internal/sim"
)

func TestGreedyDeliversOnDenseUDG(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	pos := geom.RandomPoints(rng, 40)
	g := geom.UnitDiskGraph(pos, 0.5) // dense: greedy should mostly work
	if !g.Connected() {
		t.Skip("sparse draw")
	}
	emb, err := geom.NewEmbedding(g, pos)
	if err != nil {
		t.Fatal(err)
	}
	alg := Greedy(emb)
	f := sim.Bind(alg, g, 1)
	delivered := 0
	vs := g.Vertices()
	for i := 0; i < 60; i++ {
		s := vs[rng.Intn(len(vs))]
		dst := vs[rng.Intn(len(vs))]
		if s == dst {
			continue
		}
		res := f.Run(s, dst)
		if res.Outcome == sim.Delivered {
			delivered++
		}
	}
	if delivered == 0 {
		t.Error("greedy should deliver on most dense-UDG pairs")
	}
}

func TestGreedyTrapDefeatsGreedyAndCompass(t *testing.T) {
	trap := GreedyTrap()
	g := trap.Emb.G
	if !g.Connected() {
		t.Fatal("trap must be connected")
	}
	if !trap.Emb.IsPlaneEmbedding() {
		t.Fatal("trap must be a plane embedding")
	}
	greedy := Greedy(trap.Emb)
	res := sim.Bind(greedy, g, 1).Run(trap.S, trap.T)
	if res.Outcome != sim.Looped {
		t.Errorf("greedy on the trap: %v (route %v), want looped", res.Outcome, res.Route)
	}
	compass := Compass(trap.Emb)
	res = sim.Bind(compass, g, 1).Run(trap.S, trap.T)
	if res.Outcome != sim.Looped {
		t.Errorf("compass on the trap: %v (route %v), want looped", res.Outcome, res.Route)
	}
}

func TestFaceRouteDeliversOnTrap(t *testing.T) {
	trap := GreedyTrap()
	res, err := FaceRoute(trap.Emb, trap.S, trap.T)
	if err != nil || !res.Delivered {
		t.Fatalf("face routing on the trap: delivered=%v err=%v route=%v", res.Delivered, err, res.Route)
	}
	if res.Route[len(res.Route)-1] != trap.T {
		t.Errorf("route must end at t: %v", res.Route)
	}
	if res.StateBits <= 0 {
		t.Error("face routing must account for its message state")
	}
}

func TestFaceRouteSelf(t *testing.T) {
	trap := GreedyTrap()
	res, err := FaceRoute(trap.Emb, trap.S, trap.S)
	if err != nil || !res.Delivered || len(res.Route) != 1 {
		t.Errorf("self route: %+v err=%v", res, err)
	}
	if _, err := FaceRoute(trap.Emb, 99, trap.T); err == nil {
		t.Error("unknown endpoint must error")
	}
}

func TestFaceRouteAllPairsOnGabrielGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < 8; trial++ {
		pos := geom.RandomPoints(rng, 10+rng.Intn(15))
		g := geom.GabrielGraph(pos)
		emb, err := geom.NewEmbedding(g, pos)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range g.Vertices() {
			for _, dst := range g.Vertices() {
				if s == dst {
					continue
				}
				res, err := FaceRoute(emb, s, dst)
				if err != nil || !res.Delivered {
					t.Fatalf("face routing failed %d->%d on %v: err=%v route=%v",
						s, dst, g, err, res.Route)
				}
				// The walk must follow edges.
				for i := 1; i < len(res.Route); i++ {
					if !g.HasEdge(res.Route[i-1], res.Route[i]) {
						t.Fatalf("route uses non-edge %d-%d", res.Route[i-1], res.Route[i])
					}
				}
			}
		}
	}
}

func TestFaceRouteAllPairsOnPlanarizedUDG(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	tried := 0
	for trial := 0; trial < 20 && tried < 5; trial++ {
		pos := geom.RandomPoints(rng, 25)
		udg := geom.UnitDiskGraph(pos, 0.35)
		if !udg.Connected() {
			continue
		}
		tried++
		sub := geom.GabrielSubgraph(udg, pos)
		emb, err := geom.NewEmbedding(sub, pos)
		if err != nil {
			t.Fatal(err)
		}
		vs := sub.Vertices()
		for i := 0; i < 40; i++ {
			s := vs[rng.Intn(len(vs))]
			dst := vs[rng.Intn(len(vs))]
			if s == dst {
				continue
			}
			res, err := FaceRoute(emb, s, dst)
			if err != nil || !res.Delivered {
				t.Fatalf("face routing failed %d->%d: err=%v", s, dst, err)
			}
		}
	}
	if tried == 0 {
		t.Skip("no connected UDG draws")
	}
}

func TestFaceRouteAlgorithmAdapter(t *testing.T) {
	trap := GreedyTrap()
	alg := FaceRouteAlgorithm(trap.Emb)
	res := sim.Bind(alg, trap.Emb.G, 1).RunScratch(trap.S, trap.T, 1000, sim.NewScratch())
	if res.Outcome != sim.Delivered {
		t.Fatalf("adapter outcome: %v err=%v", res.Outcome, res.Err)
	}
}

func TestGreedyCompassDeliversOnTrapAndGabriel(t *testing.T) {
	// Greedy-compass escapes the simple trap (it probes both angular
	// sides), and works broadly on Gabriel graphs even though it has no
	// universal guarantee there.
	trap := GreedyTrap()
	alg := GreedyCompass(trap.Emb)
	res := sim.Bind(alg, trap.Emb.G, 1).Run(trap.S, trap.T)
	if res.Outcome != sim.Delivered {
		t.Errorf("greedy-compass on the trap: %v route=%v", res.Outcome, res.Route)
	}
}

func TestCompassAndGreedyDeliverAdjacent(t *testing.T) {
	trap := GreedyTrap()
	g := trap.Emb.G
	greedy := Greedy(trap.Emb)
	res := sim.Bind(greedy, g, 1).Run(2, 5)
	if res.Outcome != sim.Delivered || res.Len() != 1 {
		t.Errorf("greedy adjacent hop: %v len=%d", res.Outcome, res.Len())
	}
	compass := Compass(trap.Emb)
	res = sim.Bind(compass, g, 1).Run(4, 5)
	if res.Outcome != sim.Delivered || res.Len() != 1 {
		t.Errorf("compass adjacent hop: %v len=%d", res.Outcome, res.Len())
	}
}

func TestFaceSwitchCountBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	pos := geom.RandomPoints(rng, 20)
	g := geom.GabrielGraph(pos)
	emb, _ := geom.NewEmbedding(g, pos)
	vs := g.Vertices()
	for i := 0; i < 30; i++ {
		s := vs[rng.Intn(len(vs))]
		dst := vs[rng.Intn(len(vs))]
		if s == dst {
			continue
		}
		res, err := FaceRoute(emb, s, dst)
		if err != nil {
			t.Fatal(err)
		}
		if res.FaceSwitches > 2*g.M() {
			t.Errorf("face switches %d exceed 2m=%d", res.FaceSwitches, 2*g.M())
		}
	}
}
