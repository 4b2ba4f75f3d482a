// Package obs is the zero-dependency observability substrate of the serving
// stack: a race-safe metrics registry (atomic counters, gauges and
// log-bucketed latency histograms, with optional label sets per series) and
// a causal span ring (a bounded ring of parent-linked spans recording, per
// epoch, what the ingest/repair/publish/patch pipeline did and why). Both
// sides are deliberately nil-tolerant: every method is a no-op on a nil
// receiver, so instrumented packages thread handles through unconditionally
// and pay nothing when observability is disabled.
//
// Metric names follow the Prometheus convention (snake_case, `_total`
// suffix on counters); WritePrometheus renders the registry in the
// Prometheus text exposition format with histograms as quantile summaries.
// See DESIGN.md §6 for the metric and span vocabulary the system emits.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; all methods are no-ops on a nil receiver.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (callers keep counters monotone; Add does not enforce it).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. The zero value is ready to use;
// all methods are no-ops on a nil receiver.
type Gauge struct {
	v atomic.Int64
}

// Set stores n.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add adds n.
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// metricKind discriminates registry entries.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// entry is one registered series.
type entry struct {
	name   string
	labels string // canonical `k="v",k2="v2"` form, "" when unlabeled
	kind   metricKind
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Registry holds named metric series. Get-or-create lookups and renderers
// may run from any goroutine; the returned handles are lock-free. All
// methods are no-ops (returning nil handles) on a nil receiver.
type Registry struct {
	mu sync.Mutex
	//vebo:guardedby mu
	byKey map[string]*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]*entry)}
}

// canonLabels renders alternating key,value label pairs in canonical
// (key-sorted) form. Label values must not contain `"` or newlines.
func canonLabels(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, (len(labels)+1)/2)
	for i := 0; i+1 < len(labels); i += 2 {
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	out := ""
	for i, p := range pairs {
		if i > 0 {
			out += ","
		}
		out += fmt.Sprintf("%s=%q", p.k, p.v)
	}
	return out
}

// lookup returns the entry for (name, labels), creating it with mk when
// absent. A kind mismatch on an existing key returns a fresh detached entry
// (never registered — the caller's handle still works, the series is not
// exported twice under one key).
func (r *Registry) lookup(name string, labels []string, kind metricKind, mk func(*entry)) *entry {
	ls := canonLabels(labels)
	key := name
	if ls != "" {
		key = name + "{" + ls + "}"
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.byKey[key]; ok {
		if e.kind == kind {
			return e
		}
		e = &entry{name: name, labels: ls, kind: kind}
		mk(e)
		return e
	}
	e := &entry{name: name, labels: ls, kind: kind}
	mk(e)
	r.byKey[key] = e
	return e
}

// Counter returns the counter named name with the given alternating
// key,value label pairs, creating it on first use. Returns nil (a usable
// no-op handle) on a nil registry.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, labels, kindCounter, func(e *entry) { e.c = &Counter{} }).c
}

// Gauge returns the gauge named name, creating it on first use. Returns nil
// (a usable no-op handle) on a nil registry.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, labels, kindGauge, func(e *entry) { e.g = &Gauge{} }).g
}

// Histogram returns the histogram named name, creating it on first use.
// Returns nil (a usable no-op handle) on a nil registry.
func (r *Registry) Histogram(name string, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, labels, kindHistogram, func(e *entry) { e.h = &Histogram{} }).h
}

// MetricValue is one series rendered for export.
type MetricValue struct {
	Name   string `json:"name"`
	Labels string `json:"labels,omitempty"` // canonical `k="v",...` form
	Kind   string `json:"kind"`
	// Value carries counters and gauges.
	Value int64 `json:"value"`
	// Count/Sum/quantiles carry histograms (same unit as the observations).
	Count int64 `json:"count,omitempty"`
	Sum   int64 `json:"sum,omitempty"`
	P50   int64 `json:"p50,omitempty"`
	P95   int64 `json:"p95,omitempty"`
	P99   int64 `json:"p99,omitempty"`
}

// Gather renders every registered series, sorted by name then label set.
// Returns nil on a nil registry.
func (r *Registry) Gather() []MetricValue {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	entries := make([]*entry, 0, len(r.byKey))
	for _, e := range r.byKey {
		entries = append(entries, e)
	}
	r.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].name != entries[j].name {
			return entries[i].name < entries[j].name
		}
		return entries[i].labels < entries[j].labels
	})
	out := make([]MetricValue, 0, len(entries))
	for _, e := range entries {
		mv := MetricValue{Name: e.name, Labels: e.labels, Kind: e.kind.String()}
		switch e.kind {
		case kindCounter:
			mv.Value = e.c.Value()
		case kindGauge:
			mv.Value = e.g.Value()
		default:
			mv.Count = e.h.Count()
			mv.Sum = e.h.Sum()
			mv.P50 = e.h.Quantile(0.50)
			mv.P95 = e.h.Quantile(0.95)
			mv.P99 = e.h.Quantile(0.99)
		}
		out = append(out, mv)
	}
	return out
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format. Histograms render as summaries: `{quantile="0.5"|"0.95"|"0.99"}`
// series plus `_sum` and `_count`.
func (r *Registry) WritePrometheus(w io.Writer) error {
	lastName := ""
	for _, mv := range r.Gather() {
		if mv.Name != lastName {
			typ := mv.Kind
			if typ == "histogram" {
				typ = "summary"
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", mv.Name, typ); err != nil {
				return err
			}
			lastName = mv.Name
		}
		var err error
		switch mv.Kind {
		case "counter", "gauge":
			err = writeSample(w, mv.Name, mv.Labels, "", mv.Value)
		default:
			for _, q := range [...]struct {
				q string
				v int64
			}{{"0.5", mv.P50}, {"0.95", mv.P95}, {"0.99", mv.P99}} {
				ls := mv.Labels
				if ls != "" {
					ls += ","
				}
				ls += `quantile="` + q.q + `"`
				if err = writeSample(w, mv.Name, ls, "", q.v); err != nil {
					return err
				}
			}
			if err = writeSample(w, mv.Name, mv.Labels, "_sum", mv.Sum); err != nil {
				return err
			}
			err = writeSample(w, mv.Name, mv.Labels, "_count", mv.Count)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func writeSample(w io.Writer, name, labels, suffix string, v int64) error {
	if labels != "" {
		labels = "{" + labels + "}"
	}
	_, err := fmt.Fprintf(w, "%s%s%s %d\n", name, suffix, labels, v)
	return err
}

// WriteJSON renders Gather() as a JSON array.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(r.Gather())
}
