package vebo

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/gen"
)

// scrape fetches one endpoint off the observability handler.
func scrape(t *testing.T, base, path string) string {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// metricValue extracts an unlabeled sample value from Prometheus text.
func metricValue(t *testing.T, text, name string) int64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseInt(rest, 10, 64)
			if err != nil {
				t.Fatalf("parsing %s sample %q: %v", name, line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in scrape:\n%s", name, text)
	return 0
}

// TestObsHandlerLiveScrape is the serve-mode integration test: a Dynamic
// under concurrent ingest and queries exposes /metrics, and successive
// scrapes show the epoch counter, the per-batch ingest latency and the
// per-(algorithm, system) query latency series advancing for BFS and
// PageRank on all three framework models.
func TestObsHandlerLiveScrape(t *testing.T) {
	g, updates, err := gen.StreamFromRecipe("powerlaw", 0.05, 1024, 7, gen.RecipeStreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDynamic(g, DynamicOptions{Partitions: 16})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.ObsHandler())
	defer srv.Close()

	first := scrape(t, srv.URL, "/metrics")
	if ct := "text/plain"; !strings.Contains(first, "vebo_epoch") {
		t.Fatalf("first scrape (%s) lacks vebo_epoch:\n%s", ct, first)
	}
	epoch0 := metricValue(t, first, "vebo_epoch")
	systems := []System{Ligra, Polymer, GraphGrind}

	// Ingest on one goroutine, query on another, scrape from the test body —
	// the topology `vebo serve` runs.
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		const batch = 128
		for lo := 0; lo < len(updates); lo += batch {
			hi := min(lo+batch, len(updates))
			if _, err := d.ApplyBatch(updates[lo:hi]); err != nil {
				errs <- err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			for _, sys := range systems {
				v := d.View()
				if _, err := v.BFS(sys, 0); err != nil {
					errs <- err
					return
				}
				if _, err := v.PageRank(sys, 5); err != nil {
					errs <- err
					return
				}
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	second := scrape(t, srv.URL, "/metrics")
	if epoch1 := metricValue(t, second, "vebo_epoch"); epoch1 <= epoch0 {
		t.Fatalf("vebo_epoch did not advance: %d -> %d", epoch0, epoch1)
	}
	if got := metricValue(t, second, "vebo_batches_total"); got != 8 {
		t.Fatalf("vebo_batches_total = %d, want 8", got)
	}
	if got := metricValue(t, second, "vebo_batch_ns_count"); got != 8 {
		t.Fatalf("vebo_batch_ns_count = %d, want 8", got)
	}
	// Every queried (alg, sys) pair has a populated latency summary: a
	// non-zero p50 and p99 and a count matching the queries run.
	for _, sys := range systems {
		for _, alg := range []string{"bfs", "pagerank"} {
			labels := `alg="` + alg + `",sys="` + sys.String() + `"`
			for _, q := range []string{"0.5", "0.99"} {
				name := `vebo_query_ns{` + labels + `,quantile="` + q + `"}`
				if metricValue(t, second, name) <= 0 {
					t.Fatalf("%s not populated", name)
				}
			}
			for _, name := range []string{"vebo_query_ns_count", "vebo_queries_total"} {
				if got := metricValue(t, second, name+"{"+labels+"}"); got != 3 {
					t.Fatalf("%s{%s} = %d, want 3", name, labels, got)
				}
			}
		}
	}

	// /metrics.json round-trips.
	var series []struct {
		Name  string `json:"name"`
		Value int64  `json:"value"`
	}
	if err := json.Unmarshal([]byte(scrape(t, srv.URL, "/metrics.json")), &series); err != nil {
		t.Fatalf("/metrics.json invalid: %v", err)
	}
	if len(series) == 0 {
		t.Fatalf("/metrics.json empty")
	}
}
