// Package metrics provides the measurement layer of the traffic engine
// and the cluster: per-writer shards of named counters and fixed-bucket
// log-scale histograms that merge exactly. A Report snapshots a merged
// view and renders it as plain text or JSON.
//
// Concurrency model. A subsystem registers its metric names once, in a
// Schema, and keeps the returned handles; recording through a handle
// indexes a slot fixed when the shard was built, so no recording path
// hashes a name or touches a map. A counter slot is an atomic add, safe
// from any number of goroutines: a cluster member's walks all count
// into the member's one shard. A histogram slot has its own mutex, so
// a writer holds only that slot, and only for one Observe, while
// Clone/MergeShardsLive copy each histogram whole — the daemon's
// /metrics endpoint reads without ever quiescing the writers. A copy
// reads every histogram before any counter, and the counters in
// reverse registration order. Writers count an event before they
// observe its samples, and add an event's base counter (requests)
// before its dependent ones (delivered, failed_<kind>), which a schema
// registers after it; so no copied histogram holds more samples than
// the counter of its events, and no copied dependent counter exceeds
// its base. MergeShards keeps the
// historical post-quiesce contract (and is equally safe on live
// shards). This mirrors the paper's locality discipline: record
// locally, aggregate globally.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Histogram bucket layout: values 0..15 get exact buckets; larger values
// share eight sub-buckets per power-of-two octave (relative error ≤ 12.5%).
// The layout is fixed so histograms recorded independently always merge
// bucket-by-bucket.
const (
	exactBuckets     = 16
	subBucketsPerOct = 8
	// maxOctave is the octave of the largest representable value
	// (1<<62); values beyond clamp into the top bucket.
	maxOctave  = 62
	numBuckets = exactBuckets + (maxOctave-3)*subBucketsPerOct
)

// bucketOf maps a non-negative value to its bucket index.
func bucketOf(v int64) int {
	if v < exactBuckets {
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1 // floor(log2 v), ≥ 4
	if e > maxOctave {
		e = maxOctave
	}
	sub := (uint64(v) >> uint(e-3)) & (subBucketsPerOct - 1)
	i := exactBuckets + (e-4)*subBucketsPerOct + int(sub)
	if i >= numBuckets {
		i = numBuckets - 1
	}
	return i
}

// bucketBounds returns the inclusive lower and exclusive upper value
// bounds of bucket i.
func bucketBounds(i int) (lo, hi int64) {
	if i < exactBuckets {
		return int64(i), int64(i) + 1
	}
	oct := (i-exactBuckets)/subBucketsPerOct + 4
	sub := int64((i - exactBuckets) % subBucketsPerOct)
	width := int64(1) << uint(oct-3)
	lo = int64(1)<<uint(oct) + sub*width
	return lo, lo + width
}

// Histogram is a fixed log-scale-bucket histogram of non-negative int64
// samples. It is not safe for concurrent use; a Shard guards each of
// its histograms. The zero value is ready to use.
type Histogram struct {
	count   int64
	sum     int64
	min     int64
	max     int64
	buckets [numBuckets]int64
}

// Observe records one sample. Negative samples clamp to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[bucketOf(v)]++
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() int64 { return h.count }

// Sum returns the sum of recorded samples.
func (h *Histogram) Sum() int64 { return h.sum }

// Min returns the smallest recorded sample (0 when empty).
func (h *Histogram) Min() int64 { return h.min }

// Max returns the largest recorded sample (0 when empty).
func (h *Histogram) Max() int64 { return h.max }

// Mean returns the arithmetic mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Merge adds other's samples into h. Histograms share a fixed bucket
// layout, so merging is exact bucket addition.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.count == 0 {
		return
	}
	if h.count == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	h.count += other.count
	h.sum += other.sum
	for i, n := range other.buckets {
		h.buckets[i] += n
	}
}

// Clone returns an independent copy of h.
func (h *Histogram) Clone() *Histogram {
	c := *h
	return &c
}

// Quantile returns an estimate of the q-quantile (q in [0, 1]): the
// sample value below which a fraction q of the recorded samples fall,
// linearly interpolated inside the containing bucket. Exact for values
// < 16; relative error ≤ 12.5% beyond. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return float64(h.min)
	}
	if q >= 1 {
		return float64(h.max)
	}
	rank := q * float64(h.count)
	var cum float64
	for i, n := range h.buckets {
		if n == 0 {
			continue
		}
		next := cum + float64(n)
		if next >= rank {
			lo, hi := bucketBounds(i)
			// Clamp the bucket to the observed extremes so estimates
			// never leave [min, max].
			flo, fhi := float64(lo), float64(hi)
			if flo < float64(h.min) {
				flo = float64(h.min)
			}
			if fhi > float64(h.max)+1 {
				fhi = float64(h.max) + 1
			}
			frac := (rank - cum) / float64(n)
			return flo + frac*(fhi-flo)
		}
		cum = next
	}
	return float64(h.max)
}

// Buckets returns the non-empty buckets as (lower bound, count) pairs in
// increasing value order — the export format.
func (h *Histogram) Buckets() []BucketCount {
	var out []BucketCount
	for i, n := range h.buckets {
		if n == 0 {
			continue
		}
		lo, _ := bucketBounds(i)
		out = append(out, BucketCount{Lo: lo, Count: n})
	}
	return out
}

// BucketCount is one exported histogram bucket.
type BucketCount struct {
	Lo    int64 `json:"lo"`
	Count int64 `json:"count"`
}

// Schema is the fixed set of metric names one subsystem records. The
// subsystem registers each name once, at start-up, and records through
// the returned handles; every shard built from the schema holds one
// slot per handle, so recording indexes a slice and never looks a name
// up. Register every name before the first NewShard over the schema.
type Schema struct {
	counters []string
	hists    []string
}

// CounterID is a registered counter's handle: its slot in every shard
// of the schema.
type CounterID int

// HistogramID is a registered histogram's handle.
type HistogramID int

// Counter registers a counter name and returns its handle.
func (sc *Schema) Counter(name string) CounterID {
	sc.counters = register(sc.counters, "counter", name)
	return CounterID(len(sc.counters) - 1)
}

// Histogram registers a histogram name and returns its handle.
func (sc *Schema) Histogram(name string) HistogramID {
	sc.hists = register(sc.hists, "histogram", name)
	return HistogramID(len(sc.hists) - 1)
}

func register(names []string, kind, name string) []string {
	for _, n := range names {
		if n == name {
			panic(fmt.Sprintf("metrics: %s %q registered twice", kind, name))
		}
	}
	return append(names, name)
}

// Shard is one writer's metric set over a schema. Counters are atomic,
// so any number of goroutines add to them at once; each histogram has
// its own guard, so a live Clone or MergeShardsLive never copies one
// torn. The zero Shard has no schema and holds nothing.
type Shard struct {
	schema   *Schema
	counters []counterSlot
	hists    []histSlot
}

// counterSlot is one counter. A report lists a counter once anything
// was added to it; zero records an add of nothing, which leaves the
// value at 0 but still lists it.
type counterSlot struct {
	v    atomic.Int64
	zero atomic.Bool
}

func (c *counterSlot) listed() bool { return c.v.Load() != 0 || c.zero.Load() }

type histSlot struct {
	mu sync.Mutex
	h  Histogram
}

// NewShard returns an empty shard with one slot per name registered in
// sc so far.
func NewShard(sc *Schema) *Shard {
	return &Shard{
		schema:   sc,
		counters: make([]counterSlot, len(sc.counters)),
		hists:    make([]histSlot, len(sc.hists)),
	}
}

// Add adds n to the counter.
func (s *Shard) Add(c CounterID, n int64) {
	sl := &s.counters[c]
	if n == 0 {
		sl.zero.Store(true)
		return
	}
	sl.v.Add(n)
}

// Counter returns the counter's current value.
func (s *Shard) Counter(c CounterID) int64 { return s.counters[c].v.Load() }

// Observe records v into the histogram.
func (s *Shard) Observe(h HistogramID, v int64) {
	sl := &s.hists[h]
	sl.mu.Lock()
	sl.h.Observe(v)
	sl.mu.Unlock()
}

// Histogram returns a copy of the histogram, taken under its guard.
func (s *Shard) Histogram(h HistogramID) *Histogram {
	sl := &s.hists[h]
	sl.mu.Lock()
	defer sl.mu.Unlock()
	return sl.h.Clone()
}

// Clone returns a deep copy of the shard — the live-read primitive:
// writers keep recording while an observer takes a consistent copy.
func (s *Shard) Clone() *Shard { return MergeShards(s) }

// MergeShards combines shards of one schema into a new shard. Nil
// shards and the zero Shard contribute nothing; shards of two different
// schemas cannot merge, and mixing them panics. Each input is read
// histograms first, each under its guard, then counters, last
// registered first. A writer counts an event before it observes the
// event's samples, and adds a base counter before the dependent
// counters registered after it, so even while writers record a merged
// histogram never holds more samples than the counter of its events
// and a dependent counter never exceeds its base; call it after the
// writers quiesce when a globally exact total is required.
func MergeShards(shards ...*Shard) *Shard {
	out := &Shard{}
	for _, s := range shards {
		if s == nil || s.schema == nil {
			continue
		}
		if out.schema == nil {
			out = NewShard(s.schema)
		} else if s.schema != out.schema {
			panic("metrics: merging shards of different schemas")
		}
		for i := range s.hists {
			sl := &s.hists[i]
			sl.mu.Lock()
			out.hists[i].h.Merge(&sl.h)
			sl.mu.Unlock()
		}
		for i := len(s.counters) - 1; i >= 0; i-- {
			from, to := &s.counters[i], &out.counters[i]
			to.v.Add(from.v.Load())
			if from.zero.Load() {
				to.zero.Store(true)
			}
		}
	}
	return out
}

// MergeShardsLive is MergeShards for shards still receiving writes: it
// never blocks a recording writer for longer than one histogram copy,
// and the merged result is consistent within each shard (cross-shard
// skew is bounded by the scrape instant). This is the /metrics read
// path — the writers are never quiesced.
func MergeShardsLive(shards ...*Shard) *Shard {
	return MergeShards(shards...)
}

// Snapshot freezes the shard into a Report under the schema's names,
// reading it in MergeShards' order, so a live shard's report is as
// consistent as its copy. A counter nothing was added to and a
// histogram with no samples are absent. Extra key/value pairs (e.g. derived rates) may be attached
// afterwards via Report.Put.
func (s *Shard) Snapshot() *Report {
	r := &Report{
		Counters:   make(map[string]int64, len(s.counters)),
		Histograms: make(map[string]HistogramSnapshot, len(s.hists)),
	}
	for i := range s.hists {
		sl := &s.hists[i]
		sl.mu.Lock()
		if sl.h.Count() > 0 {
			r.Histograms[s.schema.hists[i]] = snapshotHistogram(&sl.h)
		}
		sl.mu.Unlock()
	}
	for i := len(s.counters) - 1; i >= 0; i-- {
		if c := &s.counters[i]; c.listed() {
			r.Counters[s.schema.counters[i]] = c.v.Load()
		}
	}
	return r
}

// HistogramSnapshot is the frozen, export-ready view of a histogram.
type HistogramSnapshot struct {
	Count   int64         `json:"count"`
	Sum     int64         `json:"sum"`
	Min     int64         `json:"min"`
	Max     int64         `json:"max"`
	Mean    float64       `json:"mean"`
	P50     float64       `json:"p50"`
	P90     float64       `json:"p90"`
	P99     float64       `json:"p99"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

func snapshotHistogram(h *Histogram) HistogramSnapshot {
	return HistogramSnapshot{
		Count:   h.Count(),
		Sum:     h.Sum(),
		Min:     h.Min(),
		Max:     h.Max(),
		Mean:    round3(h.Mean()),
		P50:     round3(h.Quantile(0.50)),
		P90:     round3(h.Quantile(0.90)),
		P99:     round3(h.Quantile(0.99)),
		Buckets: h.Buckets(),
	}
}

func round3(v float64) float64 { return math.Round(v*1000) / 1000 }

// sortedKeys returns map keys in lexical order for stable rendering.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Gauge formats a float for text reports, trimming to three decimals.
func gauge(v float64) string { return fmt.Sprintf("%.3f", v) }
