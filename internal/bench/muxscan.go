package bench

// Shared-scan multiplexing experiment (E15): the single-pass engine
// measured against the per-query strategies on the 8-query serving
// workload. Four modes over one clip:
//
//   - isolated:   each query executes alone (fresh cache per query) —
//                 N full scans, N detector passes, N trackers;
//   - runall-seq: the per-query scheduler at 1 worker with a shared
//                 cache — model invocations dedup, scans/tracks do not;
//   - runall-par: the same scheduler at cfg.Workers;
//   - muxscan:    ExecuteShared — one scan, one detect/track per
//                 (model, frame), results fanned out to every query.
//
// The report shows wall time plus the ledger's detector and tracker
// invocation counts, making the shared scan's work elimination visible
// as counts rather than inferred from timing; it also verifies that
// muxscan results are identical to the sequential scheduler's.

import (
	"fmt"

	"vqpy"

	"vqpy/internal/metrics"
)

// RunMuxScan is the E15 experiment entry point used by vqbench.
func RunMuxScan(cfg Config) (*metrics.Report, error) {
	cfg = cfg.withDefaults()
	v := MultiQueryVideo(cfg)
	arms := []struct {
		name, mode string
		workers    int
	}{
		{"isolated", "isolated", 1},
		{"runall-seq", "runall", 1},
		{"runall-par", "runall", cfg.Workers},
		{"muxscan", "muxscan", 1},
	}

	rep := &metrics.Report{
		Title:  "E15: shared-scan multiplexing — one pass for the 8-query workload",
		Header: []string{"mode", "workers", "wall ms", "detect inv", "tracker inv", "virtual ms"},
	}
	answers := make(map[string][]*vqpy.RunResult, len(arms))
	wallMS := make(map[string]float64, len(arms))
	for _, a := range arms {
		results, st, err := runArm(cfg, workloadArm(a.name, a.mode, a.workers, v))
		if err != nil {
			return nil, err
		}
		answers[a.name], wallMS[a.name] = results, st.wallMS
		rep.AddRow(st.row(fmt.Sprint(a.workers))...)
		st.setMetrics(rep, "muxscan_%s_"+a.name, "detect_inv", "tracker_inv")
	}
	setRatio(rep, "muxscan_wall_ratio_vs_seq", wallMS["muxscan"], wallMS["runall-seq"])

	// runall-seq answers are the identity baseline.
	identical := sameRuns(answers["runall-seq"], answers["muxscan"])
	rep.SetMetric("muxscan_identical", boolMetric(identical))
	rep.AddNote("queries: %d; muxscan results identical to runall-seq: %v", len(MultiQueryWorkload()), identical)
	rep.AddNote("expected shape: detect invocations collapse isolated → runall (cache dedup) " +
		"and tracker invocations collapse only under muxscan (one tracker per scan group, not per query)")
	noteBurn(rep, cfg)
	if !identical {
		return rep, fmt.Errorf("bench: muxscan results diverge from sequential scheduler")
	}
	return rep, nil
}
