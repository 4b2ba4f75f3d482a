package obs

import "net/http"

// Register mounts the observability endpoints on mux:
//
//	/metrics      — Prometheus text exposition of the registry
//	/metrics.json — the same registry as a JSON array
//	/spans        — the causal span ring as Chrome Trace Event JSON
//	                (load in Perfetto or chrome://tracing)
//
// Either argument may be nil (the endpoint then renders empty). A
// RuntimeSampler is attached to r: each /metrics and /metrics.json scrape
// refreshes the go_* process-health series before rendering.
func Register(mux *http.ServeMux, r *Registry, s *Spans) {
	rt := NewRuntimeSampler(r)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		rt.Sample()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		rt.Sample()
		w.Header().Set("Content-Type", "application/json")
		_ = r.WriteJSON(w)
	})
	mux.HandleFunc("/spans", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = s.WriteChromeTrace(w)
	})
}

// Handler returns an http.Handler serving the Register endpoints.
func Handler(r *Registry, s *Spans) http.Handler {
	mux := http.NewServeMux()
	Register(mux, r, s)
	return mux
}
