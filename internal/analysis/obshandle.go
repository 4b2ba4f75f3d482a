package analysis

import (
	"fmt"
	"go/ast"
	"regexp"
	"sort"
	"strings"
)

// Obshandle enforces the observability-facade contract (DESIGN.md §6):
// metric and span handles come from the nil-safe constructors
// (obs.NewRegistry, obs.NewSpans, Spans.Start) or from
// registry getters — a raw composite literal skips map/ring initialization
// and breaks the documented "nil receiver is a no-op" property. Registered
// series must also follow the canonical naming vocabulary so dashboards
// and the CI report validator can rely on it: names match vebo_[a-z0-9_]*
// (or go_* for the runtime-sampler series), counters end in _total,
// histograms in _ns, gauges in neither, and labels come in key/value
// pairs. The staleness-plane series additionally carry a pinned contract:
// vebo_epoch_age_ns and vebo_publish_lag_ns are unlabeled histograms,
// vebo_delta_backlog an unlabeled gauge, vebo_query_ns a histogram labeled
// exactly {alg, sys} — serve's [stats] line and shutdown summary and the
// /metrics scrape tests read these series by that shape.
//
// The obs package itself (and its tests) is exempt from the literal rule:
// it is the one place allowed to build handles by hand.
var Obshandle = &Analyzer{
	Name: "obshandle",
	Doc:  "obs handles use nil-safe constructors; metric names follow the vebo_*/go_* vocabulary",
	Run:  runObshandle,
}

var (
	obsHandleTypes = map[string]bool{
		"Registry": true, "Counter": true,
		"Gauge": true, "Histogram": true,
		"Spans": true, "ActiveSpan": true,
	}
	metricNameRE = regexp.MustCompile(`^(?:vebo|go)_[a-z0-9_]*[a-z0-9]$`)
)

// metricContracts pins registration kind and exact label-key sets for the
// series the serving plane and the /metrics scrape tests consume by name; a
// registration with the wrong kind or label shape would silently split or
// empty those series.
var metricContracts = map[string]struct {
	kind   string
	labels []string // sorted; nil means "no labels"
}{
	"vebo_epoch_age_ns":   {kind: "Histogram"},
	"vebo_publish_lag_ns": {kind: "Histogram"},
	"vebo_delta_backlog":  {kind: "Gauge"},
	"vebo_query_ns":       {kind: "Histogram", labels: []string{"alg", "sys"}},
}

func isObsPath(path string) bool {
	path = strings.TrimSuffix(path, "_test")
	return strings.HasSuffix(path, "internal/obs")
}

func runObshandle(pass *Pass) error {
	inObs := isObsPath(pass.Pkg.Path())
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				if inObs {
					return true
				}
				named := derefNamed(pass.Info.Types[n].Type)
				if pkg, typ, ok := namedKey(named); ok && isObsPath(pkg) && obsHandleTypes[typ] {
					pass.Reportf(n.Pos(),
						"raw obs.%s literal bypasses the nil-safe constructors; use %s",
						typ, constructorFor(typ))
				}
			case *ast.CallExpr:
				// The obs package's own tests exercise registry mechanics
				// with synthetic names; the vocabulary binds everyone else.
				if !inObs {
					checkMetricCall(pass, n)
				}
			}
			return true
		})
	}
	return nil
}

func constructorFor(typ string) string {
	switch typ {
	case "Counter", "Gauge", "Histogram":
		return "obs.NewRegistry plus Registry." + typ
	case "ActiveSpan":
		return "obs.NewSpans plus Spans.Start"
	default:
		return "obs.New" + typ
	}
}

// checkMetricCall validates names and label shape at Registry.Counter /
// Gauge / Histogram registration sites.
func checkMetricCall(pass *Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	kind := sel.Sel.Name
	switch kind {
	case "Counter", "Gauge", "Histogram":
	default:
		return
	}
	recv := derefNamed(pass.Info.Types[sel.X].Type)
	if pkg, typ, ok := namedKey(recv); !ok || !isObsPath(pkg) || typ != "Registry" {
		return
	}
	if len(call.Args) == 0 {
		return
	}
	if name, ok := stringConst(pass.Info, call.Args[0]); ok {
		if !metricNameRE.MatchString(name) {
			pass.Reportf(call.Args[0].Pos(),
				"metric name %q outside the canonical vocabulary (want vebo_[a-z0-9_]* or go_[a-z0-9_]*)", name)
		} else {
			total := strings.HasSuffix(name, "_total")
			ns := strings.HasSuffix(name, "_ns")
			switch {
			case kind == "Counter" && !total:
				pass.Reportf(call.Args[0].Pos(), "counter %q must end in _total", name)
			case kind == "Histogram" && !ns:
				pass.Reportf(call.Args[0].Pos(), "histogram %q must end in _ns", name)
			case kind == "Gauge" && (total || ns):
				pass.Reportf(call.Args[0].Pos(),
					"gauge %q must not use the _total/_ns suffixes reserved for counters and histograms", name)
			}
		}
		checkMetricContract(pass, call, kind, name)
	}
	// Labels are key/value pairs; a slice spread is opaque to this check.
	if call.Ellipsis.IsValid() {
		return
	}
	if nlabels := len(call.Args) - 1; nlabels%2 != 0 {
		pass.Reportf(call.Args[1].Pos(),
			"odd label count %d in %s registration; labels are key/value pairs", nlabels, kind)
	}
}

// checkMetricContract enforces the pinned kind and label-key set of the
// contract series. Label values may be dynamic; the keys (even argument
// positions) must be constants to be checkable — a spread or non-constant
// key leaves the site unchecked rather than misreported.
func checkMetricContract(pass *Pass, call *ast.CallExpr, kind, name string) {
	c, ok := metricContracts[name]
	if !ok {
		return
	}
	if kind != c.kind {
		pass.Reportf(call.Fun.Pos(),
			"%s is pinned as a %s by the serving/bench contract, not a %s",
			name, strings.ToLower(c.kind), strings.ToLower(kind))
	}
	if call.Ellipsis.IsValid() || (len(call.Args)-1)%2 != 0 {
		return
	}
	var keys []string
	for i := 1; i < len(call.Args); i += 2 {
		k, kok := stringConst(pass.Info, call.Args[i])
		if !kok {
			return
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	want := append([]string(nil), c.labels...)
	if !equalStrings(keys, want) {
		pass.Reportf(call.Fun.Pos(),
			"%s must carry exactly the label keys %s (got %s)",
			name, labelSet(want), labelSet(keys))
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func labelSet(keys []string) string {
	if len(keys) == 0 {
		return "{}"
	}
	return fmt.Sprintf("{%s}", strings.Join(keys, ", "))
}
