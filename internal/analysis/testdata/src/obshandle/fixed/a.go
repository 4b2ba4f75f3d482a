// The canonical fix for obshandle/a: handles come from the nil-safe
// constructors, names follow the vebo_*/go_* vocabulary, and the
// contract series keep their pinned kind and label shape.
package fixed

import "repro/internal/obs"

func handles() (*obs.Registry, *obs.Spans, *obs.ActiveSpan) {
	s := obs.NewSpans(0)
	return obs.NewRegistry(), s, s.Start("batch", "ingest", 0, obs.SpanContext{})
}

func names(r *obs.Registry) {
	r.Counter("vebo_requests_total")
	r.Counter("vebo_requests_total", "op", "insert")
	r.Histogram("vebo_lat_ns")
	r.Gauge("vebo_live_edges")
	r.Gauge("go_goroutines")
}

func contracts(r *obs.Registry) {
	r.Histogram("vebo_epoch_age_ns")
	r.Histogram("vebo_publish_lag_ns")
	r.Gauge("vebo_delta_backlog")
	r.Histogram("vebo_query_ns", "alg", "pagerank", "sys", "polymer")
}
