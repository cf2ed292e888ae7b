package telemetry

import (
	"fmt"
	"io"
	"sort"
	"sync"
)

// Histogram is a fixed-bucket histogram. For ascending edges e_0 < … < e_k
// there are k+2 buckets:
//
//	bucket 0:    v < e_0
//	bucket i:    e_{i-1} <= v < e_i   (1 <= i <= k)
//	bucket k+1:  v >= e_k
//
// A value exactly on an edge lands in the bucket that STARTS at that edge.
// Edges are fixed at construction, so merged or compared histograms from
// different runs always line up.
type Histogram struct {
	Edges  []float64 `json:"edges"`
	Counts []int64   `json:"counts"`
	Sum    float64   `json:"sum"`
	N      int64     `json:"n"`
}

// NewHistogram builds an empty histogram over the given ascending edges.
func NewHistogram(edges ...float64) *Histogram {
	for i := 1; i < len(edges); i++ {
		if edges[i] <= edges[i-1] {
			panic(fmt.Sprintf("telemetry: histogram edges not ascending: %v", edges))
		}
	}
	return &Histogram{
		Edges:  append([]float64(nil), edges...),
		Counts: make([]int64, len(edges)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.Edges, v)
	// SearchFloat64s returns the first index with Edges[i] >= v; an exact
	// edge hit must land in the bucket starting at that edge (one past).
	if i < len(h.Edges) && h.Edges[i] == v {
		i++
	}
	h.Counts[i]++
	h.Sum += v
	h.N++
}

// Registry aggregates named counters and histograms. Snapshots iterate in
// sorted name order, never map order, so rendered output is deterministic.
// The zero value is not ready; use NewRegistry.
type Registry struct {
	mu       sync.Mutex
	counters map[string]int64
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]int64),
		hists:    make(map[string]*Histogram),
	}
}

// Inc adds delta to the named counter.
func (r *Registry) Inc(name string, delta int64) {
	r.mu.Lock()
	r.counters[name] += delta
	r.mu.Unlock()
}

// Counter returns the named counter's current value (0 when absent).
func (r *Registry) Counter(name string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name]
}

// Observe records a value into the named histogram, creating it with the
// given edges on first use. Later calls may pass nil edges.
func (r *Registry) Observe(name string, edges []float64, v float64) {
	r.mu.Lock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(edges...)
		r.hists[name] = h
	}
	h.Observe(v)
	r.mu.Unlock()
}

// Hist returns the named histogram, or nil.
func (r *Registry) Hist(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.hists[name]
}

// CounterNames returns all counter names in sorted order.
func (r *Registry) CounterNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.counters))
	for n := range r.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// HistNames returns all histogram names in sorted order.
func (r *Registry) HistNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.hists))
	for n := range r.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// WriteCSV renders the registry as CSV rows:
//
//	counter,<name>,,<value>
//	hist,<name>,lt:<edge>,<count>      (bucket below the first edge)
//	hist,<name>,ge:<edge>,<count>      (buckets starting at an edge)
//	hist,<name>,sum,<sum>
//	hist,<name>,count,<n>
//
// Rows are sorted by name, so two identical registries render identically.
func (r *Registry) WriteCSV(w io.Writer) error {
	for _, name := range r.CounterNames() {
		if _, err := fmt.Fprintf(w, "counter,%s,,%d\n", name, r.Counter(name)); err != nil {
			return err
		}
	}
	for _, name := range r.HistNames() {
		h := r.Hist(name)
		for i, c := range h.Counts {
			label := "all"
			if i == 0 && len(h.Edges) > 0 {
				label = fmt.Sprintf("lt:%g", h.Edges[0])
			} else if i > 0 {
				label = fmt.Sprintf("ge:%g", h.Edges[i-1])
			}
			if _, err := fmt.Fprintf(w, "hist,%s,%s,%d\n", name, label, c); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "hist,%s,sum,%g\nhist,%s,count,%d\n", name, h.Sum, name, h.N); err != nil {
			return err
		}
	}
	return nil
}
