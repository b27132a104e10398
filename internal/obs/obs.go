// Package obs is the reproduction's zero-dependency, allocation-lean
// metrics layer: atomic counters, gauges, and fixed-bucket histograms in a
// named registry, plus a deterministic run-report snapshot (snapshot.go), a
// live HTTP endpoint (http.go), and a periodic progress reporter
// (progress.go); timed phases are flight.Meter spans counting into it.
//
// Design rules (DESIGN.md, "Observability"):
//
//   - Handles, not names, on hot paths. Looking a metric up by name takes
//     the registry lock; callers resolve a *Counter/*Gauge/*Histogram once
//     (package-level var or struct field) and afterwards every update is a
//     single atomic add with no lock, no map, no allocation.
//   - Per-event hot paths never touch the registry at all. Observers count
//     into plain struct fields (they are single-goroutine per run) and
//     flush the totals into registry handles once per analysis.
//   - Everything is monotonic or a high-water mark, so concurrent flushes
//     from parallel workers need no coordination beyond the atomics.
//
// The package-level Default registry is what the CLI tools snapshot for
// `-telemetry`, serve on `-metrics-addr`, and narrate with `-progress`.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value. Unlike a Counter it can go down,
// and SetMax turns it into a high-water mark.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by delta (which may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// SetMax raises the gauge to v if v is larger (high-water mark semantics);
// safe under concurrent use.
func (g *Gauge) SetMax(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Histogram counts observations into fixed buckets. Bucket i counts
// observations v <= bounds[i] (and greater than bounds[i-1]); one implicit
// overflow bucket past the last bound catches the rest. Bounds are fixed at
// registration, so Observe is a search plus one atomic add.
type Histogram struct {
	bounds  []int64
	buckets []atomic.Int64 // len(bounds)+1; last is overflow
	count   atomic.Int64
	sum     atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Registry is a named collection of metrics. Lookups (Counter, Gauge,
// Histogram) are create-or-get under one lock and are meant to run once per
// metric per package — hold on to the returned handle.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Default is the process-wide registry the CLI tools report from.
var Default = NewRegistry()

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// ascending upper bounds on first use. Later calls return the existing
// histogram regardless of bounds (first registration wins).
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		b := make([]int64, len(bounds))
		copy(b, bounds)
		h = &Histogram{bounds: b, buckets: make([]atomic.Int64, len(b)+1)}
		r.histograms[name] = h
	}
	return h
}

// PowersOf returns the bounds base, base*factor, ... with n entries — the
// standard exponential bucket layout for counts and durations.
func PowersOf(base, factor int64, n int) []int64 {
	out := make([]int64, n)
	v := base
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}
