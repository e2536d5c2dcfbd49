package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestBucketLayout(t *testing.T) {
	// Every representable value must land in a bucket whose bounds
	// contain it, and bucket indices must be monotone in the value.
	vals := []int64{0, 1, 2, 15, 16, 17, 31, 32, 100, 1023, 1024, 1 << 20, 1 << 40, math.MaxInt64}
	prev := -1
	for _, v := range vals {
		i := bucketOf(v)
		if i < prev {
			t.Fatalf("bucket index not monotone at %d: %d < %d", v, i, prev)
		}
		prev = i
		lo, hi := bucketBounds(i)
		if v != math.MaxInt64 && (v < lo || v >= hi) {
			t.Fatalf("value %d outside bucket %d bounds [%d, %d)", v, i, lo, hi)
		}
	}
}

func TestHistogramExactSmallValues(t *testing.T) {
	var h Histogram
	for v := int64(0); v < 16; v++ {
		h.Observe(v)
	}
	if h.Count() != 16 || h.Sum() != 120 || h.Min() != 0 || h.Max() != 15 {
		t.Fatalf("count/sum/min/max = %d/%d/%d/%d", h.Count(), h.Sum(), h.Min(), h.Max())
	}
	// Small values get exact buckets, so the median of 0..15 sits in
	// bucket 8's [8, 9) range.
	if p := h.Quantile(0.5); p < 7 || p > 9 {
		t.Fatalf("p50 of 0..15 = %v, want ~8", p)
	}
}

func TestHistogramQuantileAgainstSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h Histogram
	samples := make([]int64, 0, 10000)
	for i := 0; i < 10000; i++ {
		v := int64(rng.ExpFloat64() * 5000)
		samples = append(samples, v)
		h.Observe(v)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, q := range []float64{0.5, 0.9, 0.99} {
		exact := float64(samples[int(q*float64(len(samples)))-1])
		got := h.Quantile(q)
		// Log-scale buckets guarantee ≤ 12.5% relative error.
		if exact > 16 && math.Abs(got-exact) > 0.13*exact+1 {
			t.Errorf("q=%.2f: got %.1f, exact %.1f (err > 12.5%%)", q, got, exact)
		}
	}
}

func TestHistogramMergeEquivalence(t *testing.T) {
	// Recording samples across shards and merging must equal recording
	// them all into one histogram.
	rng := rand.New(rand.NewSource(3))
	var whole Histogram
	parts := []*Histogram{{}, {}, {}, {}}
	for i := 0; i < 5000; i++ {
		v := int64(rng.Intn(1 << 16))
		whole.Observe(v)
		parts[i%len(parts)].Observe(v)
	}
	var merged Histogram
	for _, p := range parts {
		merged.Merge(p)
	}
	if merged.Count() != whole.Count() || merged.Sum() != whole.Sum() ||
		merged.Min() != whole.Min() || merged.Max() != whole.Max() {
		t.Fatalf("merge summary mismatch: %+v vs %+v", merged, whole)
	}
	if merged.buckets != whole.buckets {
		t.Fatal("merged buckets differ from whole-recorded buckets")
	}
	for _, q := range []float64{0.25, 0.5, 0.9, 0.999} {
		if merged.Quantile(q) != whole.Quantile(q) {
			t.Fatalf("quantile %v differs after merge", q)
		}
	}
}

func TestMergeEmptyAndClone(t *testing.T) {
	var a, b Histogram
	a.Observe(42)
	b.Merge(nil)
	b.Merge(&Histogram{})
	b.Merge(&a)
	if b.Count() != 1 || b.Min() != 42 || b.Max() != 42 {
		t.Fatalf("merge into empty: %+v", b)
	}
	c := b.Clone()
	c.Observe(1)
	if b.Count() != 1 || c.Count() != 2 {
		t.Fatal("clone is not independent")
	}
}

func TestCounterConcurrent(t *testing.T) {
	var sc Schema
	c := sc.Counter("requests")
	sh := NewShard(&sc)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				sh.Add(c, 1)
			}
		}()
	}
	wg.Wait()
	if sh.Counter(c) != 8000 {
		t.Fatalf("counter = %d, want 8000", sh.Counter(c))
	}
}

func TestShardMergeAndReport(t *testing.T) {
	var sc Schema
	delivered := sc.Counter("delivered")
	hops := sc.Histogram("hops")
	shards := []*Shard{NewShard(&sc), NewShard(&sc)}
	for i, s := range shards {
		s.Add(delivered, int64(10*(i+1)))
		for v := int64(0); v < 100; v++ {
			s.Observe(hops, v)
		}
	}
	merged := MergeShards(shards...)
	if merged.Counter(delivered) != 30 {
		t.Fatalf("merged counter = %d", merged.Counter(delivered))
	}
	rep := merged.Snapshot()
	rep.Name = "test"
	rep.Put("delivery_rate", 1.0)
	if rep.Counter("delivered") != 30 || rep.Histograms["hops"].Count != 200 {
		t.Fatalf("report: %+v", rep)
	}

	var text bytes.Buffer
	rep.WriteText(&text)
	for _, want := range []string{"delivered", "delivery_rate", "hops", "p99"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("text report missing %q:\n%s", want, text.String())
		}
	}

	var js bytes.Buffer
	if err := rep.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(js.Bytes(), &back); err != nil {
		t.Fatalf("JSON round-trip: %v", err)
	}
	if back.Counters["delivered"] != 30 || back.Gauges["delivery_rate"] != 1.0 {
		t.Fatalf("round-tripped report: %+v", back)
	}
}
