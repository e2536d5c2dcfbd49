package metrics

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// TestBucketBoundsRoundTrip pins the mutual consistency of bucketOf and
// bucketBounds across the whole layout: every bucket's [lo, hi) maps
// back to itself, buckets tile the axis with no gaps, and past the exact
// range the relative bucket width (the quantile error bound) stays
// ≤ 12.5%.
func TestBucketBoundsRoundTrip(t *testing.T) {
	for i := 0; i < numBuckets; i++ {
		lo, hi := bucketBounds(i)
		if got := bucketOf(lo); got != i {
			t.Fatalf("bucketOf(lo=%d) = %d, want bucket %d", lo, got, i)
		}
		if i == numBuckets-1 {
			// The top bucket's exclusive bound is 1<<63, which overflows
			// int64; it is open-ended by construction.
			if hi > lo {
				t.Fatalf("top bucket: expected overflowed hi, got [%d, %d)", lo, hi)
			}
			continue
		}
		if hi <= lo {
			t.Fatalf("bucket %d: empty or inverted bounds [%d, %d)", i, lo, hi)
		}
		if got := bucketOf(hi - 1); got != i {
			t.Fatalf("bucketOf(hi-1=%d) = %d, want bucket %d", hi-1, got, i)
		}
		if nextLo, _ := bucketBounds(i + 1); nextLo != hi {
			t.Fatalf("gap between buckets %d and %d: hi=%d, next lo=%d", i, i+1, hi, nextLo)
		}
		if i >= exactBuckets {
			if width := hi - lo; 8*width > lo {
				t.Fatalf("bucket %d: width %d exceeds 12.5%% of lo %d", i, width, lo)
			}
		}
	}
}

// TestBucketOfFullRange draws values across every magnitude of the
// non-negative int64 range (plus the boundary values themselves) and
// asserts each lands in a bucket whose bounds contain it.
func TestBucketOfFullRange(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	check := func(v int64) {
		t.Helper()
		i := bucketOf(v)
		if i < 0 || i >= numBuckets {
			t.Fatalf("bucketOf(%d) = %d out of layout [0, %d)", v, i, numBuckets)
		}
		lo, hi := bucketBounds(i)
		if v < lo {
			t.Fatalf("value %d below its bucket %d = [%d, %d)", v, i, lo, hi)
		}
		// hi ≤ lo means the open-ended top bucket (overflowed bound).
		if hi > lo && v >= hi {
			t.Fatalf("value %d beyond its bucket %d = [%d, %d)", v, i, lo, hi)
		}
	}
	for v := int64(0); v < 4096; v++ {
		check(v)
	}
	check(math.MaxInt64)
	check(math.MaxInt64 - 1)
	check(1 << 62)
	check(1<<62 - 1)
	for shift := uint(4); shift < 63; shift++ {
		check(int64(1) << shift)
		check(int64(1)<<shift - 1)
		check(int64(1)<<shift + 1)
		for draw := 0; draw < 200; draw++ {
			check(int64(1)<<shift | rng.Int63n(int64(1)<<shift))
		}
	}
}

// TestMergeRandomSplitsExact asserts the merge identity the shard design
// rests on: a sample stream split arbitrarily across histograms and
// re-merged is bit-for-bit the histogram of the unsplit stream — same
// counts, same buckets, and therefore identical quantile estimates.
func TestMergeRandomSplitsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		parts := 1 + rng.Intn(7)
		split := make([]*Histogram, parts)
		for i := range split {
			split[i] = &Histogram{}
		}
		whole := &Histogram{}
		n := 1 + rng.Intn(5000)
		for i := 0; i < n; i++ {
			// Log-uniform magnitudes so every octave sees traffic.
			v := rng.Int63n(int64(1) << uint(1+rng.Intn(62)))
			whole.Observe(v)
			split[rng.Intn(parts)].Observe(v)
		}
		merged := &Histogram{}
		for _, h := range split {
			merged.Merge(h)
		}
		if !reflect.DeepEqual(merged, whole) {
			t.Fatalf("trial %d: merged histogram differs from unsplit (count %d vs %d, sum %d vs %d)",
				trial, merged.Count(), whole.Count(), merged.Sum(), whole.Sum())
		}
		for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
			if merged.Quantile(q) != whole.Quantile(q) {
				t.Fatalf("trial %d: quantile %.2f differs after merge", trial, q)
			}
		}
	}
}

// TestShardLiveClone exercises the live-read contract: a recording
// goroutine keeps observing while another clones and live-merges, and
// every snapshot is internally consistent (histogram count matches the
// request counter at clone time). Run under -race this also proves the
// lock discipline.
func TestShardLiveClone(t *testing.T) {
	var sc Schema
	requests := sc.Counter("requests")
	latency := sc.Histogram("latency_ns")
	sh := NewShard(&sc)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			sh.Add(requests, 1)
			sh.Observe(latency, i%4096)
		}
	}()
	for i := 0; i < 200; i++ {
		c := sh.Clone()
		if got, want := c.Histogram(latency).Count(), c.Counter(requests); got > want {
			t.Fatalf("torn clone: %d observations vs %d counted requests", got, want)
		}
		m := MergeShardsLive(sh, NewShard(&sc))
		if m.Counter(requests) < c.Counter(requests) {
			t.Fatal("live merge went backwards against an earlier clone")
		}
	}
	close(stop)
	wg.Wait()
	final := MergeShards(sh)
	if final.Histogram(latency).Count() != final.Counter(requests) {
		t.Fatal("post-quiesce merge lost samples")
	}
}

// TestShardConcurrentWriters records into one shard from four
// goroutines at once, as a cluster member's walks do, while another
// goroutine live-merges it. Every copy must be consistent: each
// histogram's buckets sum to its count, no histogram holds more samples
// than the counter of its events, a dependent counter (delivered) never
// exceeds its base (requests), in a copy or in a live Snapshot, and
// nothing goes backwards. After the writers quiesce the totals are
// exact. make race runs it ten times.
func TestShardConcurrentWriters(t *testing.T) {
	const writers, perWriter = 4, 5000
	var sc Schema
	requests := sc.Counter("requests")
	delivered := sc.Counter("delivered")
	hops := sc.Counter("hops_total")
	idle := sc.Counter("idle")
	latency := sc.Histogram("latency_ns")
	sizes := sc.Histogram("size")
	sh := NewShard(&sc)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int64(0); i < perWriter; i++ {
				sh.Add(requests, 1)
				sh.Add(delivered, 1)
				sh.Add(hops, i%7)
				sh.Observe(latency, i*int64(w+1))
				sh.Observe(sizes, i%300)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	consistent := func(m *Shard) (reqs int64) {
		t.Helper()
		reqs = m.Counter(requests)
		if d := m.Counter(delivered); d > reqs {
			t.Fatalf("skewed copy: %d delivered vs %d requests", d, reqs)
		}
		for _, id := range []HistogramID{latency, sizes} {
			h := m.Histogram(id)
			var inBuckets int64
			for _, b := range h.Buckets() {
				inBuckets += b.Count
			}
			if inBuckets != h.Count() {
				t.Fatalf("torn histogram: buckets hold %d samples, count %d", inBuckets, h.Count())
			}
			if h.Count() > reqs {
				t.Fatalf("torn copy: %d samples vs %d counted requests", h.Count(), reqs)
			}
		}
		return reqs
	}
	var last int64
	for merging := true; merging; {
		select {
		case <-done:
			merging = false
		default:
		}
		reqs := consistent(MergeShardsLive(sh))
		if rep := sh.Snapshot(); rep.Counters["delivered"] > rep.Counters["requests"] {
			t.Fatalf("skewed snapshot: %d delivered vs %d requests", rep.Counters["delivered"], rep.Counters["requests"])
		}
		if reqs < last {
			t.Fatalf("live merge went backwards: %d after %d", reqs, last)
		}
		last = reqs
	}
	final := MergeShards(sh)
	consistent(final)
	var wantHops int64
	for i := int64(0); i < perWriter; i++ {
		wantHops += i % 7
	}
	if got := final.Counter(requests); got != writers*perWriter {
		t.Fatalf("requests = %d, want %d", got, writers*perWriter)
	}
	if got := final.Counter(delivered); got != writers*perWriter {
		t.Fatalf("delivered = %d, want %d", got, writers*perWriter)
	}
	if got := final.Counter(hops); got != writers*wantHops {
		t.Fatalf("hops_total = %d, want %d", got, writers*wantHops)
	}
	for _, id := range []HistogramID{latency, sizes} {
		if got := final.Histogram(id).Count(); got != writers*perWriter {
			t.Fatalf("histogram %d holds %d samples, want %d", id, got, writers*perWriter)
		}
	}
	rep := final.Snapshot()
	if _, ok := rep.Counters["idle"]; ok {
		t.Fatal("a counter never added to is in the report")
	}
	sh.Add(idle, 0)
	if got, ok := MergeShards(sh).Snapshot().Counters["idle"]; !ok || got != 0 {
		t.Fatalf("a counter added 0 reads %d, listed %v; want 0, listed", got, ok)
	}
}
