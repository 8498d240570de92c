package obs

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Fixed bucket layouts (upper bounds, seconds or counts). Fixed layouts —
// rather than adaptive ones — keep exposition output stable across runs
// and keep Observe allocation-free after the first touch of a series.
var (
	// LatencyBuckets covers microseconds-to-seconds spans: decode stages
	// run in the 0.1–10 ms band, sweep points in the 10 ms–10 s band.
	LatencyBuckets = []float64{
		0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
		0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
	}
	// CountBuckets covers small nonnegative tallies (locator misses,
	// pool occupancy).
	CountBuckets = []float64{0, 1, 2, 4, 8, 16, 32, 64, 128}
)

// BucketsFor is the default layout rule: duration histograms (… "_seconds"
// suffix, labels stripped) get LatencyBuckets, everything else
// CountBuckets.
func BucketsFor(name string) []float64 {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		name = name[:i]
	}
	if strings.HasSuffix(name, "_seconds") {
		return LatencyBuckets
	}
	return CountBuckets
}

// Memory is the in-memory Recorder: series sharded by name hash, counter
// increments lock-free after first touch, histogram observations under a
// per-shard mutex. Safe for concurrent use.
type Memory struct {
	clock  Clock
	shards [numShards]shard
}

const numShards = 16

type shard struct {
	mu       sync.Mutex
	counters map[string]*int64
	hists    map[string]*histogram
}

type histogram struct {
	bounds []float64
	counts []int64 // len(bounds)+1; last is the +Inf overflow bucket
	sum    float64
	n      int64
}

// NewMemory returns an empty in-memory Recorder that times spans with the
// wall clock — construct it at the edge (CLI, test) and inject it into the
// pipeline, never inside a contract package (RB-O1).
func NewMemory() *Memory {
	return &Memory{clock: NewWallClock()}
}

// fnv1a hashes the series name to a shard.
func fnv1a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

func (m *Memory) shard(name string) *shard {
	return &m.shards[fnv1a(name)%numShards]
}

// Inc implements Recorder.
func (m *Memory) Inc(name string, delta int64) {
	s := m.shard(name)
	s.mu.Lock()
	c := s.counters[name]
	if c == nil {
		if s.counters == nil {
			s.counters = make(map[string]*int64)
		}
		c = new(int64)
		s.counters[name] = c
	}
	s.mu.Unlock()
	atomic.AddInt64(c, delta)
}

// Observe implements Recorder.
func (m *Memory) Observe(name string, v float64) {
	s := m.shard(name)
	s.mu.Lock()
	h := s.hists[name]
	if h == nil {
		if s.hists == nil {
			s.hists = make(map[string]*histogram)
		}
		bounds := BucketsFor(name)
		h = &histogram{bounds: bounds, counts: make([]int64, len(bounds)+1)}
		s.hists[name] = h
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	h.sum += v
	h.n++
	s.mu.Unlock()
}

// Span implements Recorder.
func (m *Memory) Span(name string) func() {
	start := m.clock.Now()
	return func() {
		m.Observe(name, (m.clock.Now() - start).Seconds())
	}
}

// Series is one snapshot entry: a counter (Kind "counter", Value set) or a
// histogram (Kind "histogram", Count/Sum/Buckets set). Bucket counts are
// per-bucket, not cumulative; exposition cumulates.
type Series struct {
	Name  string
	Kind  string
	Value int64
	Count int64
	Sum   float64
	// Bounds are the histogram's upper bounds; Buckets[i] counts
	// observations in (Bounds[i-1], Bounds[i]], Buckets[len(Bounds)] the
	// +Inf overflow.
	Bounds  []float64
	Buckets []int64
}

// Snapshot returns every series sorted by name. The snapshot is a deep
// copy; the Memory keeps accumulating.
func (m *Memory) Snapshot() []Series {
	var out []Series
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.Lock()
		for name, c := range s.counters {
			out = append(out, Series{Name: name, Kind: "counter", Value: atomic.LoadInt64(c)})
		}
		for name, h := range s.hists {
			buckets := make([]int64, len(h.counts))
			copy(buckets, h.counts)
			out = append(out, Series{
				Name: name, Kind: "histogram",
				Count: h.n, Sum: h.sum,
				Bounds: h.bounds, Buckets: buckets,
			})
		}
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
