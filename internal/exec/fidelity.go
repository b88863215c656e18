package exec

// Fidelity replay: the execution half of fidelity-aware planning
// (DESIGN.md §12). A source archived at a reduced fidelity — strided
// frames, downsampled decode, cheaper detector — holds scan records
// under a fidelity-decorated signature; this file answers a query's
// full-fidelity plan from those records, replaying each archived
// aligned frame through the plan's lane at bookkeeping cost, and feeds
// the uncovered residual window [covered, n) live at full fidelity.
// The replay is deliberately cross-fidelity: the archived detector is
// the tier's, not the plan's, which is exactly the accuracy-for-cost
// trade the planner priced against the tier's calibrated accuracy
// curve before choosing it. Soundness of frame-skipping rests on the
// same gate as index verification (IndexVerifiable): the residual
// operators must be per-frame pure.

import (
	"fmt"

	"vqpy/internal/video"
)

// FidelityReplayMS is the per-replayed-frame bookkeeping charge
// (account "fidelity_replay"), keeping archive-served fidelity work
// visible on the ledger the ≥5× cost gate (E22) reads. Exported
// because it is the replay-side unit of the planner's fidelity cost
// model (plan.FidelityCostMS) — the two must price a replayed frame
// identically or the chosen tier would not be the cheapest one run.
const FidelityReplayMS = 0.05

// FidelityReplayStats reports how a fidelity replay answered its
// frames.
type FidelityReplayStats struct {
	// ReplayedFrames counts aligned frames served from the tier's
	// archive at bookkeeping cost.
	ReplayedFrames int
	// DegradedFrames counts aligned frames whose archived records were
	// missing or unreadable (read faults, eviction races): each was
	// answered by a live full-fidelity detector invocation instead, so
	// faults cost money, never accuracy.
	DegradedFrames int
	// ResidualFrames counts frames of [covered, n) fed live at full
	// fidelity.
	ResidualFrames int
}

// RunFidelityReplay executes plan p over [0, n) using a reduced-
// fidelity archive for the covered prefix: every stride-aligned frame
// below covered is replayed from the records archived under fidKey
// (scan records) and tierDetect (detection records), and the residual
// [covered, n) is fed live at full fidelity with the archive off
// limits both ways (the tier's records must not leak into — or be
// overwritten by — the full-fidelity pass).
//
// The returned Result's Matched/Hits are in processed order: one entry
// per aligned frame (ascending), then one per residual frame. Callers
// (plan.RunFidelity) expand this onto the full frame axis with the
// fidelity's carry-forward rule. Track ids on replayed frames are the
// tier archive's from-zero ids; residual frames track from a cold
// start — per-frame verdicts, which is all the fidelity path promises,
// do not depend on the numbering.
//
// Requirements: a bound store (Options.Store), an IndexVerifiable plan
// (shareable prefix, per-frame-pure residual), stride >= 1.
func (e *Executor) RunFidelityReplay(p *Plan, src video.FrameSource, fidKey, tierDetect string, stride, covered, n int) (*Result, FidelityReplayStats, error) {
	var stats FidelityReplayStats
	if stride < 1 {
		return nil, stats, fmt.Errorf("exec: RunFidelityReplay stride %d < 1", stride)
	}
	if !IndexVerifiable(p) {
		return nil, stats, fmt.Errorf("exec: plan %q is not fidelity-replayable (stateful residual or non-shareable scan)", p.Label)
	}
	m, err := e.OpenMux([]*Plan{p}, src.SourceFPS())
	if err != nil {
		return nil, stats, err
	}
	stats.ReplayedFrames, stats.DegradedFrames, err = m.replaySolo(src, replay{
		n: covered, stride: stride,
		scanKey: fidKey, detect: tierDetect, liveOnMiss: true,
		account: "fidelity_replay", chargeMS: FidelityReplayMS,
	})
	if err != nil {
		return nil, stats, err
	}
	// The residual feed must not consult the archive: the full-fidelity
	// group key may hold records from other passes whose from-zero ids do
	// not match this lane's replay-local tracker, and persisting this
	// pass's cross-start ids would poison them.
	m.sealArchive()
	if err := m.FeedRange(src, covered, n, 1); err != nil {
		return nil, stats, err
	}
	if n > covered {
		stats.ResidualFrames = n - covered
	}
	return m.Close()[0], stats, nil
}
