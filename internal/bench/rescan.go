package bench

// Archival rescan experiment (E17): the tiered persistent result store
// measured over two passes of the 8-query workload on the same clip.
// Pass 1 runs against an empty store directory and archives every
// detector output, shared-scan track id and evaluated property value;
// pass 2 is a fresh session (the process-restart stand-in) over the
// warm store — its scan groups replay archived frames instead of
// running models, so its detector and tracker invocation counts must
// fall strictly below the first pass (the CI baselines gate enforces
// it), while both passes answer bit-identically to the per-query
// scheduler. This is the VStore-style scale lever: a query over
// archival video costs model work once per archive, not once per ask.

import (
	"fmt"
	"os"

	"vqpy"

	"vqpy/internal/metrics"
)

// RunRescan is the E17 experiment entry point used by vqbench.
func RunRescan(cfg Config) (*metrics.Report, error) {
	cfg = cfg.withDefaults()
	dir, err := os.MkdirTemp("", "vqpy-rescan-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	v := MultiQueryVideo(cfg)

	// pass executes the workload once through the shared-scan engine
	// against the store directory, in a fresh session.
	pass := func(name string) arm[[]*vqpy.RunResult] {
		return arm[[]*vqpy.RunResult]{name: name, body: func(newSession sessions) ([]*vqpy.RunResult, error) {
			st, err := vqpy.OpenStore(dir, cfg.Seed)
			if err != nil {
				return nil, err
			}
			defer st.Close()
			return workloadArm(name, "muxscan", 1, v, vqpy.WithStore(st)).body(newSession)
		}}
	}

	// Identity reference: the sequential per-query scheduler.
	answers, stats, err := runArms(cfg, workloadArm("reference", "runall", 1, v), pass("cold"), pass("warm"))
	if err != nil {
		return nil, err
	}
	cold, warm := stats[1], stats[2]

	rep := &metrics.Report{
		Title:  "E17: archival rescan — cold pass vs warm store (fresh session each)",
		Header: []string{"pass", "wall ms", "detect inv", "tracker inv", "virtual ms"},
	}
	rep.AddRow(cold.row()...)
	rep.AddRow(warm.row()...)
	cold.setMetrics(rep, "rescan_%s_first", "detect_inv", "tracker_inv")
	warm.setMetrics(rep, "rescan_%s_second", "detect_inv", "tracker_inv")
	setRatio(rep, "rescan_detect_ratio", float64(warm.detect), float64(cold.detect))
	setRatio(rep, "rescan_tracker_ratio", float64(warm.tracker), float64(cold.tracker))
	setRatio(rep, "rescan_virtual_ratio", warm.virtualMS, cold.virtualMS)

	identical := sameRuns(answers[0], answers[1]) && sameRuns(answers[0], answers[2])
	rep.SetMetric("rescan_identical", boolMetric(identical))
	rep.AddNote("queries: %d; both passes identical to the sequential scheduler: %v",
		len(MultiQueryWorkload()), identical)
	rep.AddNote("expected shape: the warm pass replays archived detections and track ids — " +
		"detector and tracker invocations drop to the canary-profiling floor")
	noteBurn(rep, cfg)
	if !identical {
		return rep, fmt.Errorf("bench: rescan results diverge from the sequential scheduler")
	}
	if warm.detect >= cold.detect {
		return rep, fmt.Errorf("bench: warm detector invocations %d not below cold %d", warm.detect, cold.detect)
	}
	if warm.tracker >= cold.tracker {
		return rep, fmt.Errorf("bench: warm tracker invocations %d not below cold %d", warm.tracker, cold.tracker)
	}
	return rep, nil
}
