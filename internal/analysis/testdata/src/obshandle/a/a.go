// Seeded violations for the obshandle analyzer: raw handle literals,
// off-vocabulary metric names and contract-series shape mismatches.
package a

import "repro/internal/obs"

func handles() *obs.Registry {
	return &obs.Registry{} // want `raw obs\.Registry literal`
}

func spanHandles() (*obs.Spans, *obs.ActiveSpan) {
	s := &obs.Spans{}     // want `raw obs\.Spans literal bypasses the nil-safe constructors; use obs\.NewSpans`
	a := obs.ActiveSpan{} // want `raw obs\.ActiveSpan literal bypasses the nil-safe constructors; use obs\.NewSpans plus Spans\.Start`
	return s, &a
}

func names(r *obs.Registry) {
	r.Counter("requests_total")            // want `metric name "requests_total" outside the canonical vocabulary`
	r.Counter("vebo_requests")             // want `counter "vebo_requests" must end in _total`
	r.Histogram("vebo_lat_ms")             // want `histogram "vebo_lat_ms" must end in _ns`
	r.Gauge("vebo_live_ns")                // want `gauge "vebo_live_ns" must not use`
	r.Counter("vebo_requests_total", "op") // want `odd label count 1`
	r.Gauge("rust_goroutines")             // want `metric name "rust_goroutines" outside the canonical vocabulary`
}

func contracts(r *obs.Registry) {
	r.Gauge("vebo_epoch_age_ns")                        // want `vebo_epoch_age_ns is pinned as a histogram by the serving/bench contract, not a gauge` `gauge "vebo_epoch_age_ns" must not use`
	r.Histogram("vebo_delta_backlog")                   // want `vebo_delta_backlog is pinned as a gauge by the serving/bench contract, not a histogram` `histogram "vebo_delta_backlog" must end in _ns`
	r.Histogram("vebo_query_ns", "alg", "bfs")          // want `vebo_query_ns must carry exactly the label keys \{alg, sys\} \(got \{alg\}\)`
	r.Histogram("vebo_publish_lag_ns", "sys", "x")      // want `vebo_publish_lag_ns must carry exactly the label keys \{\} \(got \{sys\}\)`
	r.Histogram("vebo_query_ns", "sys", "l", "op", "q") // want `vebo_query_ns must carry exactly the label keys \{alg, sys\} \(got \{op, sys\}\)`
}

func canonical(r *obs.Registry) {
	r.Counter("vebo_requests_total", "op", "insert").Inc()
	r.Gauge("vebo_epoch").Set(3)
	r.Gauge("go_goroutines").Set(8)
	r.Histogram("vebo_query_ns", "alg", "bfs", "sys", "ligra").Observe(10)
	r.Histogram("vebo_epoch_age_ns").Observe(10)
	r.Histogram("vebo_publish_lag_ns").Observe(10)
	r.Gauge("vebo_delta_backlog").Set(2)
}
