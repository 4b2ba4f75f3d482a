package bench

import (
	"fmt"

	"repro/internal/memsim"
)

// Table5 regenerates the paper's Table V: architectural events (LLC misses
// serviced locally and remotely, TLB misses; MPKI) split between the
// vertexmap and edgemap phases, for the twitter-like and friendster-like
// graphs, original order versus VEBO. The paper's findings: vertexmap
// benefits from VEBO through NUMA alignment (remote misses collapse), while
// edgemap generally sees reduced misses except for PR on Twitter.
func Table5(cfg Config) error {
	cfg = cfg.WithDefaults()
	w := cfg.Out
	fmt.Fprintf(w, "== Table V: vertexmap vs edgemap architectural events (MPKI) ==\n")
	fmt.Fprintf(w, "%-12s %-6s | %8s %8s %8s | %8s %8s %8s\n",
		"graph", "order", "vmLocal", "vmRmt", "vmTLB", "emLocal", "emRmt", "emTLB")
	for _, gname := range []string{"twitter", "friendster"} {
		g, err := buildRecipe(cfg, gname)
		if err != nil {
			return err
		}
		vv, err := veboVariant(g, cfg.Partitions)
		if err != nil {
			return err
		}
		for _, v := range []variant{origVariant(g, "orig"), vv} {
			parts, err := v.partitions(cfg.Partitions)
			if err != nil {
				return err
			}
			// vertexmap replay
			mv, err := memsim.New(memsim.Config{}, cfg.Topology)
			if err != nil {
				return err
			}
			rv, err := mv.VertexMap(v.g, parts)
			if err != nil {
				return err
			}
			sv := memsim.Summarize(rv.Threads)
			// edgemap replay
			me, err := memsim.New(memsim.Config{}, cfg.Topology)
			if err != nil {
				return err
			}
			re, err := me.EdgeMapPull(v.g, parts)
			if err != nil {
				return err
			}
			se := memsim.Summarize(re.Threads)
			fmt.Fprintf(w, "%-12s %-6s | %8.2f %8.2f %8.3f | %8.2f %8.2f %8.2f\n",
				gname, v.label,
				sv.LocalMPKI, sv.RemoteMPKI, sv.TLBMKI,
				se.LocalMPKI, se.RemoteMPKI, se.TLBMKI)
		}
	}
	fmt.Fprintf(w, "(paper, Twitter PR: vertexmap remote 4.1→1.6 MPKI with VEBO)\n\n")
	return nil
}
