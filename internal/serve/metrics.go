package serve

// GET /metrics assembly (DESIGN.md §11): the daemon's counters and
// gauges as Prometheus text-format families. Everything derives from
// one Streamz snapshot — no new bookkeeping — so a scrape costs the
// same as a /streamz read and the two views can never disagree.
//
// Naming: every metric is vqserve_*; event counters carry the _total
// suffix with the "base:target" counter convention mapped to a target
// label ("tenant" for tenant_* counters), per-source gauges carry a
// source label, breaker gauges model+source labels, tenant gauges a
// tenant label.

import (
	"vqpy/internal/metrics"
)

// breakerStateValue encodes a circuit-breaker state as a gauge:
// 0 closed, 1 half-open, 2 open (matching the escalation order, so
// alerts can threshold on > 0).
func breakerStateValue(state string) float64 {
	switch state {
	case "closed":
		return 0
	case "half-open":
		return 1
	case "open":
		return 2
	}
	return -1
}

// MetricsFamilies assembles the GET /metrics payload.
func (s *Server) MetricsFamilies() []metrics.Family {
	st := s.Streamz()
	ready := s.Ready()

	fams := metrics.CounterFamilies("vqserve", "target", st.Counters)

	up := metrics.Gauge("vqserve_up", "Daemon liveness: always 1 while the process serves.", metrics.V(1))
	draining := 0.0
	if !ready {
		draining = 1
	}
	fams = append(fams, up,
		metrics.Gauge("vqserve_draining", "1 from the moment a graceful drain starts.", metrics.V(draining)))

	srcGauge := func(name, help string, val func(SourceStat) float64) {
		fam := metrics.Gauge(name, help)
		for _, src := range st.Sources {
			fam.Samples = append(fam.Samples, metrics.LV("source", src.Name, val(src)))
		}
		fams = append(fams, fam)
	}
	srcGauge("vqserve_source_lanes", "Lanes (attached queries) riding each source's mux.",
		func(src SourceStat) float64 { return float64(len(src.Lanes)) })
	srcGauge("vqserve_source_scan_groups", "Shared-scan groups per source.",
		func(src SourceStat) float64 { return float64(len(src.Groups)) })
	srcGauge("vqserve_source_frames_fed", "Frames fed per source (monotonic).",
		func(src SourceStat) float64 { return float64(src.FramesFed) })
	srcGauge("vqserve_source_est_load_ms", "Estimated virtual ms per frame of resident queries.",
		func(src SourceStat) float64 { return src.EstLoadMS })
	srcGauge("vqserve_source_budget_ms", "Per-frame virtual-time admission budget.",
		func(src SourceStat) float64 { return src.BudgetMS })
	srcGauge("vqserve_source_virtual_ms", "Accumulated virtual model time per source.",
		func(src SourceStat) float64 { return src.VirtualMS })
	srcGauge("vqserve_source_sync_inflight", "Synchronous queries admitted on the source and not yet answered.",
		func(src SourceStat) float64 { return float64(src.SyncInflight) })
	srcGauge("vqserve_source_degraded_frames", "Frames answered in degraded mode per source.",
		func(src SourceStat) float64 { return float64(src.DegradedFrames) })
	srcGauge("vqserve_source_quarantined", "1 while the source is under stall quarantine.",
		func(src SourceStat) float64 {
			if src.Quarantined {
				return 1
			}
			return 0
		})

	breakers := metrics.Gauge("vqserve_breaker_state",
		"Circuit-breaker state per model and source: 0 closed, 1 half-open, 2 open.")
	trips := metrics.Counter("vqserve_breaker_trips_total", "Circuit-breaker trips per model and source.")
	for _, src := range st.Sources {
		for _, b := range src.Breakers {
			labels := []metrics.Label{{Key: "model", Value: b.Model}, {Key: "source", Value: b.Source}}
			breakers.Samples = append(breakers.Samples,
				metrics.Sample{Labels: labels, Value: breakerStateValue(b.State)})
			trips.Samples = append(trips.Samples,
				metrics.Sample{Labels: labels, Value: float64(b.Trips)})
		}
	}
	fams = append(fams, breakers, trips)

	if st.Store != nil {
		tiers := st.Store.Tiers
		fams = append(fams,
			metrics.Gauge("vqserve_store_tier_records", "Records archived per store tier.",
				metrics.LV("tier", "scan", float64(tiers.ScanRecords)),
				metrics.LV("tier", "det", float64(tiers.DetRecords)),
				metrics.LV("tier", "label", float64(tiers.LabelRecords))),
			metrics.Gauge("vqserve_store_mem_records", "Records held in memory-only tiers.",
				metrics.V(float64(tiers.MemRecords))),
			metrics.Gauge("vqserve_store_mem_only_tiers", "Tiers degraded to memory-only after write faults.",
				metrics.V(float64(tiers.MemOnlyTiers))),
			metrics.Counter("vqserve_store_evicted_total", "Records evicted from the store.",
				metrics.V(float64(tiers.Evicted))),
			metrics.Counter("vqserve_store_faulted_reads_total", "Store reads failed by fault injection.",
				metrics.V(float64(tiers.FaultedReads))))
	}

	if st.Fidelity != nil {
		acc := metrics.Gauge("vqserve_fidelity_tier_accuracy",
			"Calibrated accuracy per archived fidelity tier.")
		cov := metrics.Gauge("vqserve_fidelity_tier_covered_frames",
			"Frames covered per archived fidelity tier.")
		for _, e := range st.Fidelity.Tiers {
			labels := []metrics.Label{{Key: "source", Value: e.Source}, {Key: "tier", Value: e.Key}}
			acc.Samples = append(acc.Samples, metrics.Sample{Labels: labels, Value: e.Accuracy})
			cov.Samples = append(cov.Samples, metrics.Sample{Labels: labels, Value: float64(e.Covered)})
		}
		fams = append(fams, acc, cov,
			metrics.Gauge("vqserve_fidelity_archived_tiers", "Archived fidelity tiers across all sources.",
				metrics.V(float64(len(st.Fidelity.Tiers)))),
			metrics.Gauge("vqserve_fidelity_replayed_frame_ratio",
				"Fraction of fidelity-served frames answered from tier archives.",
				metrics.V(st.Fidelity.ReplayedFrameRatio)))
	}

	if st.Index != nil {
		fams = append(fams,
			metrics.Gauge("vqserve_index_entries", "Appearance-index entries.",
				metrics.V(float64(st.Index.Stats.Entries))),
			metrics.Gauge("vqserve_index_partitions", "Appearance-index partitions.",
				metrics.V(float64(st.Index.Stats.Partitions))),
			metrics.Gauge("vqserve_index_pruned_frame_ratio",
				"Fraction of searched frames the index proved need no execution.",
				metrics.V(st.Index.PrunedFrameRatio)),
			metrics.Counter("vqserve_index_verified_frames_total", "Frames executed to verify search candidates.",
				metrics.V(float64(st.Index.VerifiedFrames))))
	}

	if st.Fleet != nil {
		fams = append(fams,
			metrics.Gauge("vqserve_fleet_cams", "Cameras driven in lockstep.",
				metrics.V(float64(st.Fleet.Cams))),
			metrics.Gauge("vqserve_fleet_entities", "Global re-ID entities.",
				metrics.V(float64(st.Fleet.Entities))),
			metrics.Gauge("vqserve_fleet_cross_camera", "Entities seen on 2+ cameras.",
				metrics.V(float64(st.Fleet.CrossCamera))))
	}

	if len(st.Tenants) > 0 {
		share := metrics.Gauge("vqserve_tenant_share", "Tenant QoS share (weight).")
		slice := metrics.Gauge("vqserve_tenant_budget_ms", "Tenant's slice of each source's admission budget.")
		tokens := metrics.Gauge("vqserve_tenant_tokens", "Rate-limit tokens currently in the tenant's bucket.")
		resident := metrics.Gauge("vqserve_tenant_resident_queries", "Live queries owned by the tenant.")
		syncMS := metrics.Counter("vqserve_tenant_sync_virtual_ms_total",
			"Virtual ms of the tenant's synchronous queries (count: vqserve_tenant_sync_queries_total).")
		for _, t := range st.Tenants {
			share.Samples = append(share.Samples, metrics.LV("tenant", t.Name, t.Share))
			slice.Samples = append(slice.Samples, metrics.LV("tenant", t.Name, t.SliceMS))
			tokens.Samples = append(tokens.Samples, metrics.LV("tenant", t.Name, t.Tokens))
			resident.Samples = append(resident.Samples, metrics.LV("tenant", t.Name, float64(t.ResidentQueries)))
			syncMS.Samples = append(syncMS.Samples, metrics.LV("tenant", t.Name, t.SyncVirtualMS))
		}
		fams = append(fams, share, slice, tokens, resident, syncMS)
	}

	return fams
}
