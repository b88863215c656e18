package bench

// Fidelity-serving experiment (E22): multi-fidelity archive tiers
// against the live full-fidelity scan (DESIGN.md §12). The clip is
// archived at every reduced tier of the fidelity lattice, then the
// workload query runs three ways — live (the reference answer), under
// a 0.9 accuracy floor (the planner serves from the cheapest archived
// tier meeting it), and strictly over the warm tier archive (must stay
// bit-identical to an archive-free live run). The gates are the
// accuracy-for-cost contract: the budgeted answer costs at most 1/5th
// of the live scan (fidelity_cost_ratio <= 0.2), agrees with the live
// verdicts at or above the declared floor (fidelity_accuracy >= 0.9),
// and a strict query never sees the tiers at all.

import (
	"fmt"
	"os"

	"vqpy"

	"vqpy/internal/metrics"
)

// verdictAgreement is the fraction of frames on which two per-frame
// verdict vectors agree.
func verdictAgreement(a, b []bool) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return 0
	}
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	return float64(same) / float64(len(a))
}

// RunFidelity is the E22 experiment entry point used by vqbench.
func RunFidelity(cfg Config) (*metrics.Report, error) {
	cfg = cfg.withDefaults()
	dir, err := os.MkdirTemp("", "vqpy-fidelity-store-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	refDir, err := os.MkdirTemp("", "vqpy-fidelity-ref-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(refDir)

	v := vqpy.GenerateVideo(vqpy.DatasetCityFlow(cfg.Seed, 60*cfg.Scale))
	st, err := vqpy.OpenStore(dir, cfg.Seed)
	if err != nil {
		return nil, err
	}
	defer st.Close()

	// Archive every reduced tier of the lattice (the full-fidelity head
	// is what the live path already is). Each pass scans only the tier's
	// stride-aligned frames with the tier's detector and calibrates its
	// accuracy into the store's fidelity manifest.
	q := func() *vqpy.Query { return carPlateQuery("FidelityCars") }
	tiers := vqpy.FidelityLattice("")[1:]
	entries := make([]vqpy.FidelityEntry, 0, len(tiers))
	for _, fid := range tiers {
		e, err := cfg.armSession().ArchiveFidelity(q(), v, fid, 0, vqpy.WithStore(st))
		if err != nil {
			return nil, err
		}
		entries = append(entries, e)
	}

	// Live reference: an archive-free strict run is the ground answer
	// (and the cost denominator).
	refStore, err := vqpy.OpenStore(refDir, cfg.Seed)
	if err != nil {
		return nil, err
	}
	defer refStore.Close()
	live, err := cfg.armSession().ExecuteFidelity(q(), v, 0, vqpy.WithStore(refStore))
	if err != nil {
		return nil, err
	}

	// Budgeted run: a 0.9 floor lets the planner serve from the cheapest
	// satisfying tier, live-scanning nothing (full coverage).
	budgeted, err := cfg.armSession().ExecuteFidelity(q(), v, 0, vqpy.WithStore(st), vqpy.WithMinAccuracy(0.9))
	if err != nil {
		return nil, err
	}
	chosen := budgeted.Decision.ChosenCandidate()

	// Strict run over the warm tier archive: the tiers must be invisible.
	strict, err := cfg.armSession().ExecuteFidelity(q(), v, 0, vqpy.WithStore(st))
	if err != nil {
		return nil, err
	}
	strictIdentical := strict.Decision.ChosenCandidate().Live &&
		sameResult(&vqpy.Result{Matched: strict.Matched, Hits: strict.Hits},
			&vqpy.Result{Matched: live.Matched, Hits: live.Hits})

	costRatio := 0.0
	if live.VirtualMS > 0 {
		costRatio = budgeted.VirtualMS / live.VirtualMS
	}
	accuracy := verdictAgreement(budgeted.Matched, live.Matched)

	rep := &metrics.Report{
		Title:  "E22: fidelity serving — accuracy-budgeted queries over multi-fidelity archive tiers",
		Header: []string{"path", "tier", "est acc", "replayed", "degraded", "residual", "virtual ms"},
	}
	rep.AddRow("live", "live/full", "1.000", "0", "0", fmt.Sprint(live.ResidualFrames),
		fmt.Sprintf("%.1f", live.VirtualMS))
	rep.AddRow("budget 0.9", chosen.Key, fmt.Sprintf("%.3f", chosen.Accuracy),
		fmt.Sprint(budgeted.ReplayedFrames), fmt.Sprint(budgeted.DegradedFrames),
		fmt.Sprint(budgeted.ResidualFrames), fmt.Sprintf("%.1f", budgeted.VirtualMS))
	rep.AddRow("strict", strict.Decision.ChosenCandidate().Key, "1.000", "0", "0",
		fmt.Sprint(strict.ResidualFrames), fmt.Sprintf("%.1f", strict.VirtualMS))

	rep.SetMetric("fidelity_cost_ratio", costRatio)
	rep.SetMetric("fidelity_accuracy", accuracy)
	rep.SetMetric("fidelity_strict_identical", boolMetric(strictIdentical))
	rep.SetMetric("fidelity_archived_tiers", float64(len(entries)))
	rep.SetMetric("fidelity_replayed_frames", float64(budgeted.ReplayedFrames))

	for _, e := range entries {
		rep.AddNote("tier %s: covered %d frames, calibrated accuracy %.3f", e.Key, e.Covered, e.Accuracy)
	}
	rep.AddNote("budget 0.9 chose %s: %.1fx cheaper than live, %.1f%% verdict agreement",
		chosen.Key, 1/max(costRatio, 1e-9), 100*accuracy)
	rep.AddNote("expected shape: replay costs bookkeeping, not model time — archive-served " +
		"queries beat the live scan by >=5x while staying inside the declared accuracy budget")

	if !chosen.Live && budgeted.ReplayedFrames == 0 {
		return rep, fmt.Errorf("bench: tier-served run replayed no frames")
	}
	if chosen.Live {
		return rep, fmt.Errorf("bench: 0.9 floor fell back live; calibrated tiers: %+v", entries)
	}
	if costRatio > 0.2 {
		return rep, fmt.Errorf("bench: fidelity cost ratio %.3f exceeds 0.2 (no >=5x saving)", costRatio)
	}
	if accuracy < 0.9 {
		return rep, fmt.Errorf("bench: budgeted verdicts agree with live on %.1f%% of frames, below the 0.9 floor", 100*accuracy)
	}
	if !strictIdentical {
		return rep, fmt.Errorf("bench: strict query over the warm tier archive diverged from the archive-free run")
	}
	return rep, nil
}
