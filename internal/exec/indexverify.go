package exec

// Index-probe verification: the execution half of the archive-search
// fast path (DESIGN.md §10). The appearance index answers a probe with
// candidate tracks and the frame spans they cover; this file replays
// exactly those candidate frames through a plan's store-backed lane —
// archived detections and track ids applied, residual operators run for
// real — and falls back to ordinary live/store-served execution for the
// residual range the index does not cover. Soundness rests on the
// residual operators being per-frame pure: IndexVerifiable admits only
// plans whose post-scan steps carry no cross-frame state, so skipping
// the non-candidate frames cannot change any verified frame's verdict.

import (
	"fmt"

	"vqpy/internal/video"
)

// indexVerifyMS is the per-candidate-frame bookkeeping charge of the
// verification path (account "index_verify"): candidate frames are
// served from the archive at zero model cost, and this small per-frame
// term keeps the verified work visible on the ledger so the sub-linear
// gate (E20) measures something real.
const indexVerifyMS = 0.05

// IndexVerifiable reports whether a plan's verdicts can be reproduced
// by replaying an arbitrary subset of archived frames: the plan must
// have a shareable scan prefix (the archive's record shape) and its
// residual steps must be per-frame pure — no stateful property
// projections and no second tracker, both of which accumulate
// cross-frame state that candidate-skipping would perturb. Plans that
// fail this run the full-rescan path instead; results are identical
// either way, only the cost differs.
func IndexVerifiable(p *Plan) bool {
	sig := ScanPrefixOf(p)
	if !sig.Shareable {
		return false
	}
	var stateful func(steps []Step) bool
	stateful = func(steps []Step) bool {
		for _, s := range steps {
			switch s.Kind {
			case StepProject:
				if s.Prop != nil && s.Prop.Stateful {
					return true
				}
			case StepTrack:
				return true
			case StepFused:
				if stateful(s.Fused) {
					return true
				}
			}
		}
		return false
	}
	return !stateful(sig.residual)
}

// RunIndexVerify executes one plan over the frames that matter: the
// candidate frames (ascending, all below covered) are replayed from the
// archive through the plan's lane — the backfill loop with the tracker
// work elided, since archived ids are applied verbatim — and the
// uncovered residual range [covered, n) is then fed normally
// (store-served where archived, live otherwise, with the usual
// tracker/filter catch-up so residual verdicts match a continuous run).
//
// The returned Result's Matched/Hits are in processed order: one entry
// per candidate frame, then one per residual frame. Callers expand this
// back onto the full [0, n) axis; unverified frames were proven unable
// to match by the probe's exact recall, which is the soundness rule the
// crosscheck tests pin.
//
// Requirements: the executor has a bound store (Options.Store), the
// plan is IndexVerifiable, and — for bit-identity with the full scan —
// the plan was compiled with DisableMemo (memoized-at-first-sight
// property values depend on which frame a track was first processed
// on, which differs under candidate-skipping; per-frame evaluation is
// free on archived frames anyway, the label store serves it).
func (e *Executor) RunIndexVerify(p *Plan, src video.FrameSource, candidates []int, covered, n int) (*Result, error) {
	if !IndexVerifiable(p) {
		return nil, fmt.Errorf("exec: plan %q is not index-verifiable (stateful residual or non-shareable scan)", p.Label)
	}
	m, err := e.OpenMux([]*Plan{p}, src.SourceFPS())
	if err != nil {
		return nil, err
	}
	sig := ScanPrefixOf(p)
	if _, _, err := m.replaySolo(src, replay{
		n: covered, candidates: candidates,
		scanKey: sig.Key(), detect: sig.Detect,
		account: "index_verify", chargeMS: indexVerifyMS,
	}); err != nil {
		return nil, err
	}
	if covered < n {
		if err := m.resumeAfter(covered); err != nil {
			return nil, err
		}
		if err := m.FeedRange(src, covered, n, 1); err != nil {
			return nil, err
		}
	}
	return m.Close()[0], nil
}
