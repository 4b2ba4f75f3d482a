package dynamic

import (
	"strconv"

	"repro/internal/obs"
)

// dynMetrics bundles the subsystem's metric handles. It is populated even
// with a nil registry (every handle is then a nil no-op), so instrumented
// paths never branch on whether metrics are enabled.
type dynMetrics struct {
	batches, inserts, deletes             *obs.Counter
	repairs, swaps, rebuildVertex         *obs.Counter
	rebuildShortfall, rebuildForced       *obs.Counter
	compactions, admitted, headroomSpills *obs.Counter

	batchNS, repairNS, rebuildNS *obs.Histogram
	growNS, compactNS            *obs.Histogram

	epoch, vertices, liveEdges  *obs.Gauge
	edgeImb, vertImb, effThresh *obs.Gauge
	pendingOps                  *obs.Gauge
	// headroomSlots[q] tracks partition q's free reserved admission slots
	// (vebo_headroom_slots{partition=q}); zero while the ordering is compact.
	headroomSlots []*obs.Gauge
}

func newDynMetrics(r *obs.Registry, p int) dynMetrics {
	slots := make([]*obs.Gauge, p)
	for q := range slots {
		slots[q] = r.Gauge("vebo_headroom_slots", "partition", strconv.Itoa(q))
	}
	return dynMetrics{
		batches:          r.Counter("vebo_batches_total"),
		inserts:          r.Counter("vebo_updates_total", "op", "insert"),
		deletes:          r.Counter("vebo_updates_total", "op", "delete"),
		repairs:          r.Counter("vebo_repairs_total"),
		swaps:            r.Counter("vebo_swaps_total"),
		rebuildVertex:    r.Counter("vebo_rebuilds_total", "cause", "vertex-threshold"),
		rebuildShortfall: r.Counter("vebo_rebuilds_total", "cause", "repair-shortfall"),
		rebuildForced:    r.Counter("vebo_rebuilds_total", "cause", "forced"),
		compactions:      r.Counter("vebo_compactions_total"),
		admitted:         r.Counter("vebo_admitted_total"),
		headroomSpills:   r.Counter("vebo_headroom_spill_total"),
		batchNS:          r.Histogram("vebo_batch_ns"),
		repairNS:         r.Histogram("vebo_repair_ns"),
		rebuildNS:        r.Histogram("vebo_rebuild_ns"),
		growNS:           r.Histogram("vebo_grow_ns"),
		compactNS:        r.Histogram("vebo_compact_ns"),
		epoch:            r.Gauge("vebo_epoch"),
		vertices:         r.Gauge("vebo_vertices"),
		liveEdges:        r.Gauge("vebo_live_edges"),
		edgeImb:          r.Gauge("vebo_edge_imbalance"),
		vertImb:          r.Gauge("vebo_vertex_imbalance"),
		effThresh:        r.Gauge("vebo_effective_threshold"),
		pendingOps:       r.Gauge("vebo_pending_ops"),
		headroomSlots:    slots,
	}
}

// syncGauges refreshes the instantaneous-state gauges after a lifecycle step.
func (d *Graph) syncGauges() {
	if d.m.epoch == nil {
		return
	}
	d.m.epoch.Set(d.epoch)
	d.m.vertices.Set(int64(d.n))
	d.m.liveEdges.Set(d.liveEdges)
	d.m.edgeImb.Set(d.EdgeImbalance())
	d.m.vertImb.Set(d.VertexImbalance())
	d.m.effThresh.Set(d.effEdgeThreshold())
	d.m.pendingOps.Set(d.PendingOps())
	slotted := d.segCap != nil && d.ordPlace == d.placeEpoch
	for q, g := range d.m.headroomSlots {
		var free int64
		if slotted {
			free = d.segCap[q] - d.partVerts[q]
		}
		g.Set(free)
	}
}
