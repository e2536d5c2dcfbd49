package exper

import (
	"reflect"
	"strings"
	"testing"

	"klocal/internal/route"
)

func TestDegradeSweep(t *testing.T) {
	alg := route.Algorithm3()
	n := 16
	k := alg.MinK(n)
	res, err := Degrade(7, n, alg, []float64{0, 0.2}, []int{k}, 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(res.Cells))
	}
	perfect, lossy := res.Cells[0], res.Cells[1]

	if perfect.Pairs == 0 {
		t.Fatal("baseline delivered no pairs at k = T(n)")
	}
	if perfect.DeliveryRate() != 1 {
		t.Errorf("zero-loss delivery rate %.3f, want 1.0", perfect.DeliveryRate())
	}
	// Discovery counts are exact, so a zero-loss run costs exactly its
	// fault-free baseline.
	if ov := perfect.Overhead(); ov != 1 {
		t.Errorf("zero-loss overhead %v, want exactly 1", ov)
	}
	if perfect.MeanStretch != 1 {
		t.Errorf("zero-loss stretch %.3f, want exactly 1.0", perfect.MeanStretch)
	}

	// Acceptance bar: at 20% loss with k >= T(n), every baseline pair is
	// still delivered, at a real retransmission cost.
	if lossy.DeliveryRate() != 1 {
		t.Errorf("20%% loss delivery rate %.3f, want 1.0 (delivered %d/%d)",
			lossy.DeliveryRate(), lossy.Delivered, lossy.Pairs)
	}
	if lossy.Overhead() <= 1 {
		t.Errorf("20%% loss overhead %.3f, want > 1 (retransmissions + acks)", lossy.Overhead())
	}
	if lossy.MeanStretch < 1 {
		t.Errorf("stretch %.3f < 1: lossy routes shorter than fault-free?", lossy.MeanStretch)
	}

	var sb strings.Builder
	res.Render(&sb)
	out := sb.String()
	for _, want := range []string{"Degradation sweep", "overhead", "0.20"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestDegradeIsReproducible(t *testing.T) {
	alg := route.Algorithm3()
	n := 16
	k := alg.MinK(n)
	a, err := Degrade(3, n, alg, []float64{0, 0.15}, []int{k}, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Degrade(3, n, alg, []float64{0, 0.15}, []int{k}, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Delivery, stretch and every protocol count derive from the seed.
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed, different sweeps:\n%+v\n%+v", a.Cells, b.Cells)
	}
}
