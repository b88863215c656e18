package plan

// Fidelity-aware planning (DESIGN.md §12): a source can be archived at
// several points of the (frame stride × resolution tier × detector
// tier) lattice, each calibrated against ground truth; a query that
// declares an accuracy floor (Options.MinAccuracy) is then answered
// from the cheapest archived fidelity whose effective accuracy meets
// it, with only the uncovered residual window scanned live at full
// fidelity. Three entry points:
//
//   - ArchiveFidelity scans one tier over a prefix of the source,
//     persists its records under a fidelity-decorated scan signature,
//     calibrates its accuracy, and records the result in the store's
//     fidelity manifest.
//   - PlanFidelity builds the candidate set — the live full-fidelity
//     scan plus every readable manifest entry — prices each with one
//     shared cost model (FidelityCostMS) and selects the cheapest
//     accuracy-satisfying candidate (SelectFidelity).
//   - RunFidelity executes the decision: tier replay via
//     exec.RunFidelityReplay with carry-forward expansion onto the
//     full frame axis, or the ordinary store-backed live pass.
//
// The selection rule is deliberately conservative at the top: a
// declared target of 1.0 (and the undeclared default) means exact
// answers, which only the live path guarantees — calibrated accuracy
// is an empirical estimate over the archived window, not a proof about
// the frames a future query asks about. Fidelity serving is therefore
// opt-in per query via MinAccuracy < 1.

import (
	"fmt"

	"vqpy/internal/core"
	"vqpy/internal/exec"
	"vqpy/internal/store"
	"vqpy/internal/video"
)

// liveFidelityKey names the always-available live full-fidelity
// candidate in decisions, metrics and logs.
const liveFidelityKey = "live/full"

// FidelityCandidate is one priced way of answering a query over
// [0, Frames).
type FidelityCandidate struct {
	// Key is the fidelity key ("s4/half/yolov5s@half"), or "live/full"
	// for the live candidate.
	Key string
	// ScanKey / Detector locate the tier's archived records (empty for
	// the live candidate).
	ScanKey  string
	Detector string
	// Stride is the tier's frame stride (1 for live).
	Stride int
	// Covered is the archived prefix usable for this query, clamped to
	// the queried range (0 for live).
	Covered int
	// TierAccuracy is the tier's calibrated accuracy over its archived
	// window; Accuracy is the effective accuracy over the whole queried
	// range — the covered window at TierAccuracy, the live residual at
	// 1.0.
	TierAccuracy float64
	Accuracy     float64
	// CostMS is the modeled virtual cost of answering the query this
	// way (FidelityCostMS).
	CostMS float64
	// Live marks the full-fidelity live-scan candidate.
	Live bool
}

// FidelityDecision records one fidelity planning outcome: every
// candidate priced, which one won, and which archived tiers were
// skipped because their records failed the readability probe.
type FidelityDecision struct {
	Source string
	Query  string
	// Frames is the queried range [0, Frames).
	Frames int
	// Target is the effective accuracy floor (MinAccuracy, with the
	// undeclared-0 default resolved to 1).
	Target float64

	Candidates []FidelityCandidate
	// Chosen indexes Candidates (>= 0: the live candidate always
	// qualifies).
	Chosen int
	// SkippedUnreadable lists fidelity keys of manifest entries whose
	// archived records could not be probed (read faults, eviction) —
	// the planner degrades past them rather than choosing a tier it
	// cannot replay.
	SkippedUnreadable []string
}

// ChosenCandidate returns the winning candidate.
func (d *FidelityDecision) ChosenCandidate() FidelityCandidate {
	return d.Candidates[d.Chosen]
}

// FidelityResult is the outcome of one fidelity-served query.
type FidelityResult struct {
	Query string

	// Matched is per-frame over the full axis [0, Frames): replayed
	// tiers are expanded with the carry-forward rule (a skipped frame
	// answers as its last aligned predecessor).
	Matched []bool
	Hits    []exec.FrameHit

	// Decision is the plan that produced this result.
	Decision *FidelityDecision

	// ReplayedFrames / DegradedFrames / ResidualFrames break down how
	// frames were answered (see exec.FidelityReplayStats); a live
	// decision reports everything as residual.
	ReplayedFrames int
	DegradedFrames int
	ResidualFrames int

	// VirtualMS is the virtual time the run actually charged.
	VirtualMS float64
}

// FidelityCostMS is the shared cost model both planning and tests
// price candidates with: replaying the stride-aligned frames of the
// covered prefix at the bookkeeping rate, plus live full-fidelity
// scanning of the residual.
func FidelityCostMS(stride, covered, n int, fullPerFrameMS float64) float64 {
	fid := video.Fidelity{Stride: stride}
	residual := n - covered
	if residual < 0 {
		residual = 0
	}
	return float64(fid.AlignedFrames(covered))*exec.FidelityReplayMS +
		float64(residual)*fullPerFrameMS
}

// SelectFidelity returns the index of the cheapest candidate
// satisfying the accuracy target, breaking cost ties by key for
// determinism. A target >= 1 demands exact answers, which only a live
// candidate gives (calibration estimates, it does not prove). Returns
// -1 only for an empty candidate set.
func SelectFidelity(cands []FidelityCandidate, target float64) int {
	best := -1
	for i := range cands {
		if !fidelitySatisfies(cands[i], target) {
			continue
		}
		if best < 0 || cands[i].CostMS < cands[best].CostMS ||
			(cands[i].CostMS == cands[best].CostMS && cands[i].Key < cands[best].Key) {
			best = i
		}
	}
	return best
}

func fidelitySatisfies(c FidelityCandidate, target float64) bool {
	if c.Live {
		return true
	}
	return target < 1 && c.Accuracy >= target
}

// tierPlanOf derives the archive-pass plan for one fidelity: the same
// pipeline with the detect step swapped to the tier's detector and the
// scan signature decorated with the fidelity key, so tier records can
// never collide with the full-fidelity archive of the same prefix.
func tierPlanOf(p *exec.Plan, fid video.Fidelity) *exec.Plan {
	tp := *p
	tp.Steps = swapDetect(append([]exec.Step(nil), p.Steps...), fid.Detector)
	tp.ScanSuffix = fid.Key()
	tp.Label = p.Label + "@" + fid.Key()
	return &tp
}

func swapDetect(steps []exec.Step, detector string) []exec.Step {
	for i := range steps {
		switch steps[i].Kind {
		case exec.StepDetect:
			steps[i].DetectModel = detector
		case exec.StepFused:
			steps[i].Fused = swapDetect(append([]exec.Step(nil), steps[i].Fused...), detector)
		}
	}
	return steps
}

// ArchiveFidelity scans frames [0, upto) of src at fidelity fid (only
// the stride-aligned ones run), archives the tier's records under the
// fidelity-decorated scan signature, calibrates the tier's accuracy
// against the source's ground truth, and upserts the store's fidelity
// manifest. upto <= 0 archives the whole source. Re-archiving is
// idempotent: frames already archived under the tier's signature
// replay from the store at near-zero model cost. Requires
// Options.Store and a synthetic source (ground truth drives
// calibration).
func (pl *Planner) ArchiveFidelity(q *core.Query, src video.FrameSource, fid video.Fidelity, upto int) (store.FidelityEntry, error) {
	if pl.opts.Store == nil {
		return store.FidelityEntry{}, fmt.Errorf("plan: ArchiveFidelity requires Options.Store")
	}
	base, _, err := pl.archivePlan(q, src, true)
	if err != nil {
		return store.FidelityEntry{}, err
	}
	if upto <= 0 || upto > src.NumFrames() {
		upto = src.NumFrames()
	}
	tier := tierPlanOf(base, fid)
	sig := exec.ScanPrefixOf(tier)
	source := src.SourceName()

	stride := fid.NormStride()
	if _, err := pl.archivePass(tier, src, upto, stride); err != nil {
		return store.FidelityEntry{}, err
	}

	acc, err := pl.calibrateFidelity(src, fid, int(sig.Class), upto)
	if err != nil {
		return store.FidelityEntry{}, err
	}
	full, err := pl.fullPerFrameMS(base, src)
	if err != nil {
		return store.FidelityEntry{}, err
	}
	entry := store.FidelityEntry{
		Source: source, Key: fid.Key(), ScanKey: sig.Key(),
		Detector: fid.Detector, Stride: stride, Res: fid.Res.String(),
		Covered: upto, Accuracy: acc, CostPerFrameMS: full,
	}
	if err := pl.opts.Store.PutFidelity(entry); err != nil {
		return entry, err
	}
	return entry, nil
}

// calibrateFidelity computes the tier's empirical accuracy over
// [0, upto): per-frame class-presence agreement between the archived
// tier detections (carried forward across skipped frames, exactly the
// replay semantics) and the source's ground truth. This is what the
// analytic curve (video.FidelityTruthAccuracy) estimates from the
// generator side; tests crosscheck the two.
func (pl *Planner) calibrateFidelity(src video.FrameSource, fid video.Fidelity, class, upto int) (float64, error) {
	v := canaryOf(src)
	if v == nil {
		return 0, fmt.Errorf("plan: fidelity calibration needs a synthetic source with ground truth")
	}
	if upto > len(v.Frames) {
		upto = len(v.Frames)
	}
	if upto <= 0 {
		return 1, nil
	}
	source := src.SourceName()
	stride := fid.NormStride()
	agree := 0
	present := false
	var ofClass []store.Detection
	for i := 0; i < upto; i++ {
		if i%stride == 0 {
			dets, _ := pl.opts.Store.GetDets(source, fid.Detector, i)
			ofClass = store.ClassDets(dets, class, ofClass)
			present = len(ofClass) > 0
		}
		truth := false
		for _, o := range v.Frames[i].Objects {
			if int(o.Class) == class {
				truth = true
				break
			}
		}
		if truth == present {
			agree++
		}
	}
	return float64(agree) / float64(upto), nil
}

// fullPerFrameMS returns the live full-fidelity per-frame virtual
// cost — the unit both the residual term of the cost model and the
// live candidate are priced in — profiling the base plan on the canary
// prefix if it has not been profiled yet.
func (pl *Planner) fullPerFrameMS(base *exec.Plan, src video.FrameSource) (float64, error) {
	if base.EstPerFrameMS > 0 {
		return base.EstPerFrameMS, nil
	}
	v := canaryOf(src)
	if v == nil {
		return 0, fmt.Errorf("plan: fidelity cost model needs a synthetic source to profile against")
	}
	if err := pl.ProfileCost(base, v); err != nil {
		return 0, err
	}
	return base.EstPerFrameMS, nil
}

// PlanFidelity builds and decides the fidelity candidate set for
// answering q over frames [0, frames) (frames <= 0 means the whole
// source): the live full-fidelity scan plus every manifest entry whose
// archived records pass a readability probe. Requires Options.Store.
func (pl *Planner) PlanFidelity(q *core.Query, src video.FrameSource, frames int) (*FidelityDecision, *exec.Plan, error) {
	if pl.opts.Store == nil {
		return nil, nil, fmt.Errorf("plan: PlanFidelity requires Options.Store")
	}
	base, sig, err := pl.archivePlan(q, src, true)
	if err != nil {
		return nil, nil, err
	}
	n := frames
	if n <= 0 {
		n = src.NumFrames()
	}
	full, err := pl.fullPerFrameMS(base, src)
	if err != nil {
		return nil, nil, err
	}
	target := pl.opts.MinAccuracy
	if target <= 0 {
		target = 1
	}
	source := src.SourceName()
	d := &FidelityDecision{Source: source, Query: q.Name(), Frames: n, Target: target}
	d.Candidates = append(d.Candidates, FidelityCandidate{
		Key: liveFidelityKey, Detector: sig.Detect, Stride: 1,
		TierAccuracy: 1, Accuracy: 1, CostMS: float64(n) * full, Live: true,
	})
	for _, e := range pl.opts.Store.Fidelities(source) {
		// Readability probe: frame 0 is aligned under every stride, so a
		// healthy tier always answers it. A miss — never written, evicted,
		// or failed by an injected read fault — disqualifies the tier for
		// this decision; the planner degrades to the next-cheapest
		// satisfying candidate instead of betting the query on a broken
		// archive.
		if _, miss := pl.opts.Store.Scans(source, e.ScanKey, e.Detector).Frame(0, false); miss != store.MissNone {
			d.SkippedUnreadable = append(d.SkippedUnreadable, e.Key)
			continue
		}
		covered := e.Covered
		if covered > n {
			covered = n
		}
		stride := video.Fidelity{Stride: e.Stride}.NormStride()
		acc := 1.0
		if n > 0 {
			acc = (float64(covered)*e.Accuracy + float64(n-covered)*1.0) / float64(n)
		}
		d.Candidates = append(d.Candidates, FidelityCandidate{
			Key: e.Key, ScanKey: e.ScanKey, Detector: e.Detector,
			Stride: stride, Covered: covered, TierAccuracy: e.Accuracy,
			Accuracy: acc, CostMS: FidelityCostMS(stride, covered, n, full),
		})
	}
	d.Chosen = SelectFidelity(d.Candidates, target)
	if d.Chosen < 0 {
		return nil, nil, fmt.Errorf("plan: no fidelity candidate for query %q", q.Name())
	}
	return d, base, nil
}

// RunFidelity plans and executes q over [0, frames) under the
// session's accuracy floor. A live decision runs the ordinary
// store-backed full pass; a tier decision replays the archive
// (degrading unreadable frames to live invocations, see
// exec.RunFidelityReplay) and expands the stride-aligned verdicts onto
// the full frame axis with the carry-forward rule.
func (pl *Planner) RunFidelity(q *core.Query, src video.FrameSource, frames int) (*FidelityResult, error) {
	d, base, err := pl.PlanFidelity(q, src, frames)
	if err != nil {
		return nil, err
	}
	n := d.Frames
	env := pl.opts.Env
	clockBefore := env.Clock.TotalMS()
	out := &FidelityResult{Query: q.Name(), Decision: d}
	chosen := d.ChosenCandidate()
	if chosen.Live {
		r, err := pl.archivePass(base, src, n, 1)
		if err != nil {
			return nil, err
		}
		out.Matched, out.Hits = r.Matched, r.Hits
		out.ResidualFrames = n
	} else {
		covered := chosen.Covered
		ex, err := pl.executor(src.SourceName())
		if err != nil {
			return nil, err
		}
		r, stats, err := ex.RunFidelityReplay(base, src, chosen.ScanKey, chosen.Detector, chosen.Stride, covered, n)
		if err != nil {
			return nil, err
		}
		fid := video.Fidelity{Stride: chosen.Stride}
		aligned := fid.AlignedFrames(covered)
		if want := aligned + (n - covered); len(r.Matched) != want {
			return nil, fmt.Errorf("plan: fidelity replay produced %d verdicts, want %d", len(r.Matched), want)
		}
		matched := make([]bool, n)
		for i := 0; i < covered; i++ {
			matched[i] = r.Matched[i/chosen.Stride]
		}
		for f := covered; f < n; f++ {
			matched[f] = r.Matched[aligned+f-covered]
		}
		out.Matched, out.Hits = matched, r.Hits
		out.ReplayedFrames = stats.ReplayedFrames
		out.DegradedFrames = stats.DegradedFrames
		out.ResidualFrames = stats.ResidualFrames
	}
	out.VirtualMS = env.Clock.TotalMS() - clockBefore
	return out, nil
}
