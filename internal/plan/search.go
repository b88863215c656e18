package plan

// Archive-scale appearance search (DESIGN.md §10): given an exemplar
// embedding (or an indexed track to borrow one from), find the archived
// tracks whose appearance matches it and the frames where they satisfy
// a wrapped basic query. Two physical paths answer the same question:
//
//   - probe-then-verify: Options.Index answers a sub-linear probe with
//     candidate tracks and their frame spans; only those frames are
//     verified through the store-backed lane (exec.RunIndexVerify), and
//     any residual range the index does not cover runs the ordinary
//     full path.
//   - full rescan: every frame runs through the plan, then every
//     distinct track's first archived sighting is embedded and compared
//     against the exemplar.
//
// The two are bit-identical by construction, not by luck: the match
// predicate is defined as "cosine of the track's embedding at its first
// archived sighting vs. the exemplar ≥ threshold", the index stores
// exactly that embedding (index.Extract and index.StoreAppearances
// read frames through the one store.ScanReader, so they cannot disagree
// on which sightings exist), the probe's partition pruning is a
// triangle-inequality bound over the same models.Cosine both paths
// call, and the wrapped plan is compiled with DisableMemo so per-frame
// verdicts cannot depend on which frames happened to be processed.
// Search's crosscheck tests (search_test.go at the repo root, E20 in
// internal/bench) prove the identity including the residual-fallback
// case.

import (
	"fmt"
	"sort"

	"vqpy/internal/core"
	"vqpy/internal/exec"
	"vqpy/internal/fleet"
	"vqpy/internal/index"
	"vqpy/internal/models"
	"vqpy/internal/video"
)

// searchEmbedder is the zoo model both extraction and the full-rescan
// path embed appearances with; using one model name is part of the
// bit-identity contract (index.Meta pins it).
const searchEmbedder = "fleet_reid"

// defaultSearchThreshold is the cosine match bar when the spec leaves
// Threshold zero — the same separation margin the fleet re-ID layer
// uses for cross-camera identity.
const defaultSearchThreshold = 0.7

// SearchSpec parameterizes one archive search.
type SearchSpec struct {
	// Query is the basic query whose frame constraint and outputs gate
	// the search; it must declare at least one FrameOutput selector
	// (hits carry the track ids the appearance predicate joins on).
	// Video-level constraints and aggregations are ignored by search.
	Query *core.Query

	// Feature is the exemplar appearance embedding. When empty, Track
	// names an already-indexed track whose stored embedding to borrow
	// (requires Options.Index).
	Feature []float64
	Track   int

	// Threshold is the cosine-similarity match bar; 0 means the 0.7
	// default.
	Threshold float64

	// TopK keeps only the K most similar verified tracks (ranked by
	// similarity descending, track id ascending); 0 keeps all.
	TopK int

	// Frames bounds the searched range to [0, Frames); 0 means the
	// whole source.
	Frames int
}

// SearchResult is the outcome of one archive search.
type SearchResult struct {
	Query string

	// Matched[i] reports whether frame i matched the query AND carried
	// at least one kept matching track; Hits holds those frames' output
	// objects (the whole frame hit, including co-occurring objects).
	Matched []bool
	Hits    []exec.FrameHit

	// MatchedTracks lists the kept tracks in rank order (similarity
	// descending, track ascending); Sims maps each to its similarity.
	MatchedTracks []int
	Sims          map[int]float64

	// UsedIndex reports the probe path ran; Covered is the index's
	// coverage watermark at search time (clamped to the searched range).
	UsedIndex bool
	Covered   int

	// CandidateTracks counts probe-returned candidates;
	// VerifiedFrames counts frames actually executed through the plan
	// (candidates plus residual on the probe path, everything on the
	// full path); ResidualFrames counts the uncovered tail.
	CandidateTracks int
	VerifiedFrames  int
	ResidualFrames  int

	// VirtualMS is the virtual time the search charged, probe and
	// embeddings included.
	VirtualMS float64

	// IR is the compiled index-probe leaf (full path: its Verify plan
	// executed over every frame instead).
	IR *QueryIR
}

// Search answers spec over src, choosing probe-then-verify when
// Options.Index covers a prefix of the searched range and the plan's
// residual operators are per-frame pure, and the full-rescan path
// otherwise. Requires Options.Store (search is defined over the
// archive; live-only execution still works but every record consulted
// is archived as it runs, exactly like ordinary store-backed runs).
func (pl *Planner) Search(src video.FrameSource, spec SearchSpec) (*SearchResult, error) {
	if spec.Query == nil {
		return nil, fmt.Errorf("plan: Search requires a query")
	}
	if pl.opts.Store == nil {
		return nil, fmt.Errorf("plan: Search requires Options.Store")
	}
	if len(spec.Query.FrameOutputSelectors()) == 0 {
		return nil, fmt.Errorf("plan: Search query %q needs a FrameOutput (hits carry the track ids the appearance predicate joins on)", spec.Query.Name())
	}
	n := spec.Frames
	if n <= 0 {
		n = src.NumFrames()
	}
	threshold := spec.Threshold
	if threshold == 0 {
		threshold = defaultSearchThreshold
	}

	p, sig, err := pl.archivePlan(spec.Query, src, false)
	if err != nil {
		return nil, err
	}
	class := int(sig.Class)
	sigKey := sig.Key()
	source := src.SourceName()

	em, err := pl.searchEmbedderModel()
	if err != nil {
		return nil, err
	}
	feature, err := pl.resolveFeature(spec, source, sigKey, class)
	if err != nil {
		return nil, err
	}

	covered := 0
	useIndex := pl.opts.Index != nil && exec.IndexVerifiable(p)
	if useIndex {
		covered = pl.opts.Index.Covered(source, sigKey)
		if covered > n {
			covered = n
		}
	}
	useIndex = useIndex && covered > 0

	res := &SearchResult{
		Query: spec.Query.Name(), UsedIndex: useIndex, Covered: covered,
		ResidualFrames: n - covered,
		IR: &QueryIR{
			Name: spec.Query.Name() + "/search", Kind: IRIndexProbe,
			Probe: &ProbeIR{
				Class: class, FeatureRef: feature, Threshold: threshold,
				TopK: spec.TopK, Verify: &BasicIR{Query: spec.Query, Plan: p},
			},
		},
	}
	if !useIndex {
		res.Covered, res.ResidualFrames = 0, n
	}
	env := pl.opts.Env
	clockBefore := env.Clock.TotalMS()

	var baseMatched []bool
	var hits []exec.FrameHit
	passing := make(map[int]float64)

	if useIndex {
		entries := pl.opts.Index.Probe(env, source, sigKey, class, feature, threshold)
		res.CandidateTracks = len(entries)
		cands := candidateFrames(entries, covered)
		ex, err := pl.executor(source)
		if err != nil {
			return nil, err
		}
		r, err := ex.RunIndexVerify(p, src, cands, covered, n)
		if err != nil {
			return nil, err
		}
		if want := len(cands) + (n - covered); len(r.Matched) != want {
			return nil, fmt.Errorf("plan: index verify produced %d verdicts, want %d", len(r.Matched), want)
		}
		baseMatched = make([]bool, n)
		for i, f := range cands {
			baseMatched[f] = r.Matched[i]
		}
		for f := covered; f < n; f++ {
			baseMatched[f] = r.Matched[len(cands)+f-covered]
		}
		hits = r.Hits
		res.VerifiedFrames = len(cands) + (n - covered)

		// Passing set: probe candidates carry their stored similarity
		// decision already...
		for i := range entries {
			passing[entries[i].Track] = models.Cosine(entries[i].Vec, feature)
		}
		// ...and residual-only tracks (first archived sighting at or
		// after the watermark — any track indexed at all was decided by
		// the probe) are embedded at that first sighting, exactly what
		// the full path would do for them.
		if covered < n {
			indexed := make(map[int]bool)
			for _, e := range pl.opts.Index.Entries(source, sigKey, class) {
				indexed[e.Track] = true
			}
			for _, a := range index.StoreAppearances(pl.opts.Store, source, sigKey, sig.Detect, class, covered, n) {
				if indexed[a.Track] {
					continue
				}
				vec := em.Embed(env, src.FrameAt(a.Frame), a.Box, a.TruthID)
				if sim := models.Cosine(vec, feature); sim >= threshold {
					passing[a.Track] = sim
				}
			}
		}
	} else {
		r, err := pl.archivePass(p, src, n, 1)
		if err != nil {
			return nil, err
		}
		baseMatched = r.Matched
		hits = r.Hits
		res.VerifiedFrames = n
		for _, a := range index.StoreAppearances(pl.opts.Store, source, sigKey, sig.Detect, class, 0, n) {
			vec := em.Embed(env, src.FrameAt(a.Frame), a.Box, a.TruthID)
			if sim := models.Cosine(vec, feature); sim >= threshold {
				passing[a.Track] = sim
			}
		}
	}

	res.Matched, res.Hits, res.MatchedTracks, res.Sims = finishSearch(baseMatched, hits, passing, spec.TopK)
	res.VirtualMS = env.Clock.TotalMS() - clockBefore
	return res, nil
}

// archivePlan compiles q the one canonical way every archive path —
// both search paths, IndexArchive and the fidelity entry points — must
// agree on: memoization off and no plan cache (cached selections were
// profiled under different options). Extraction and search deriving the
// scan signature from the same compilation is what keys index entries to
// the records the verifier will actually replay.
//
// fidelity adds the lattice's restrictions: no frame filters and no
// specialized detectors — the scan prefix must be exactly detect→track
// so every tier archives the same frames and differs only by its
// declared (stride, res, detector) — and a per-frame-pure residual (the
// IndexVerifiable gate), so the plan is replayable from any tier.
func (pl *Planner) archivePlan(q *core.Query, src video.FrameSource, fidelity bool) (*exec.Plan, exec.ScanSig, error) {
	// Memoized-at-first-sight property values depend on which frame a
	// track is first processed on, which candidate-skipping changes;
	// per-frame evaluation is identical on both paths (and free on
	// archived frames — the label store serves it).
	opts := pl.opts
	opts.DisableMemo = true
	opts.PlanCache = nil
	if fidelity {
		opts.DisableSpecialized = true
		opts.DisableFrameFilters = true
	}
	inner := &Planner{opts: opts.withDefaults()}
	p, _, err := inner.PlanBasic(q, canaryOf(src))
	if err != nil {
		return nil, exec.ScanSig{}, err
	}
	sig := exec.ScanPrefixOf(p)
	if !sig.Shareable {
		return nil, exec.ScanSig{}, fmt.Errorf("plan: query %q has no shareable scan prefix to key the archive by", q.Name())
	}
	if fidelity && !exec.IndexVerifiable(p) {
		return nil, exec.ScanSig{}, fmt.Errorf("plan: query %q is not fidelity-servable (stateful residual operators)", q.Name())
	}
	return p, sig, nil
}

// IndexArchive runs one incremental extraction pass of the appearance
// index over the archived records of q's scan group: frames
// [x.Covered, upto) (upto <= 0 means the whole source) are walked, new
// tracks embedded once and inserted, known tracks' spans extended.
// fleetReg, when non-nil, resolves cross-camera global ids for new
// entries. Requires Options.Store — extraction reads only the archive,
// never runs the pipeline.
func (pl *Planner) IndexArchive(x *index.Index, q *core.Query, src video.FrameSource, upto int, fleetReg *fleet.Registry) (index.ExtractStats, error) {
	if x == nil {
		return index.ExtractStats{}, fmt.Errorf("plan: IndexArchive requires an index")
	}
	if pl.opts.Store == nil {
		return index.ExtractStats{}, fmt.Errorf("plan: IndexArchive requires Options.Store")
	}
	em, err := pl.searchEmbedderModel()
	if err != nil {
		return index.ExtractStats{}, err
	}
	_, sig, err := pl.archivePlan(q, src, false)
	if err != nil {
		return index.ExtractStats{}, err
	}
	if upto <= 0 {
		upto = src.NumFrames()
	}
	return x.Extract(index.ExtractConfig{
		Store: pl.opts.Store, Src: src, Source: src.SourceName(),
		Sig: sig.Key(), Detect: sig.Detect, Class: int(sig.Class),
		Env: pl.opts.Env, Embedder: em, Fleet: fleetReg,
	}, upto)
}

// WarmSearchArchive runs q's verification pipeline over frames
// [0, upto) with the store bound — the ingest pass that builds archive
// coverage under the search scan signature when no prior store-backed
// run produced it (a cold daemon, a clip only ever queried under a
// memoizing plan). Frames already archived replay from the store at
// near-zero model cost, so warming is idempotent; upto <= 0 warms the
// whole clip. Requires Options.Store.
func (pl *Planner) WarmSearchArchive(q *core.Query, src video.FrameSource, upto int) error {
	if pl.opts.Store == nil {
		return fmt.Errorf("plan: WarmSearchArchive requires Options.Store")
	}
	p, _, err := pl.archivePlan(q, src, false)
	if err != nil {
		return err
	}
	if upto <= 0 || upto > src.NumFrames() {
		upto = src.NumFrames()
	}
	_, err = pl.archivePass(p, src, upto, 1)
	return err
}

// searchEmbedderModel resolves the appearance embedder from the
// registry.
func (pl *Planner) searchEmbedderModel() (models.Embedder, error) {
	m, ok := pl.opts.Registry.Get(searchEmbedder)
	if !ok {
		return nil, fmt.Errorf("plan: Search requires the %q embedder in the registry", searchEmbedder)
	}
	em, ok := m.(models.Embedder)
	if !ok {
		return nil, fmt.Errorf("plan: registry model %q is not an embedder", searchEmbedder)
	}
	return em, nil
}

// resolveFeature returns the exemplar embedding: the explicit one, or
// the indexed Track's stored vector.
func (pl *Planner) resolveFeature(spec SearchSpec, source, sigKey string, class int) ([]float64, error) {
	if len(spec.Feature) > 0 {
		return spec.Feature, nil
	}
	if pl.opts.Index == nil {
		return nil, fmt.Errorf("plan: Search by exemplar track %d requires Options.Index (or pass Feature explicitly)", spec.Track)
	}
	vec, ok := pl.opts.Index.FeatureOf(source, sigKey, class, spec.Track)
	if !ok {
		return nil, fmt.Errorf("plan: exemplar track %d is not indexed under (%s, %s)", spec.Track, source, sigKey)
	}
	return vec, nil
}

// archivePass executes the plan over frames 0, stride, … below n of src
// with the store bound: the full-rescan access path of search, the live
// path of fidelity serving, and (stride > 1) a fidelity tier's archive
// pass. Archived frames replay from the store; the rest run the models
// and are persisted.
func (pl *Planner) archivePass(p *exec.Plan, src video.FrameSource, n, stride int) (*exec.Result, error) {
	ex, err := pl.executor(src.SourceName())
	if err != nil {
		return nil, err
	}
	m, err := ex.OpenMux([]*exec.Plan{p}, src.SourceFPS())
	if err != nil {
		return nil, err
	}
	m.BindStore(pl.opts.Store, src)
	if err := m.FeedRange(src, 0, n, stride); err != nil {
		return nil, err
	}
	return m.Close()[0], nil
}

// candidateFrames expands probe entries into the sorted union of their
// frame spans clamped to [0, covered) — the exact frames a matching
// track can archivally appear on within coverage, since extraction
// walked every covered frame.
func candidateFrames(entries []index.Entry, covered int) []int {
	type span struct{ lo, hi int } // inclusive
	var spans []span
	for i := range entries {
		lo, hi := entries[i].First, entries[i].Last
		if hi >= covered {
			hi = covered - 1
		}
		if lo < 0 || lo > hi {
			continue
		}
		spans = append(spans, span{lo, hi})
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
	var out []int
	next := 0 // first frame not yet emitted
	for _, s := range spans {
		lo := s.lo
		if lo < next {
			lo = next
		}
		for f := lo; f <= s.hi; f++ {
			out = append(out, f)
		}
		if s.hi+1 > next {
			next = s.hi + 1
		}
	}
	return out
}

// finishSearch applies the appearance join and TopK cut shared by both
// access paths: verified tracks are the passing tracks that appear in
// some base-matched frame's hit, the TopK most similar survive, and a
// frame matches the search iff it base-matched and carries a surviving
// track.
func finishSearch(baseMatched []bool, hits []exec.FrameHit, passing map[int]float64, topK int) ([]bool, []exec.FrameHit, []int, map[int]float64) {
	hitAt := make(map[int]*exec.FrameHit, len(hits))
	for i := range hits {
		hitAt[hits[i].FrameIdx] = &hits[i]
	}
	verified := make(map[int]float64)
	for f, ok := range baseMatched {
		if !ok {
			continue
		}
		if h := hitAt[f]; h != nil {
			for _, o := range h.Objects {
				if sim, pass := passing[o.TrackID]; pass {
					verified[o.TrackID] = sim
				}
			}
		}
	}
	ranked := make([]int, 0, len(verified))
	for t := range verified {
		ranked = append(ranked, t)
	}
	sort.Slice(ranked, func(i, j int) bool {
		if verified[ranked[i]] != verified[ranked[j]] {
			return verified[ranked[i]] > verified[ranked[j]]
		}
		return ranked[i] < ranked[j]
	})
	if topK > 0 && len(ranked) > topK {
		ranked = ranked[:topK]
	}
	kept := make(map[int]bool, len(ranked))
	sims := make(map[int]float64, len(ranked))
	for _, t := range ranked {
		kept[t] = true
		sims[t] = verified[t]
	}

	matched := make([]bool, len(baseMatched))
	var outHits []exec.FrameHit
	for f := range baseMatched {
		if !baseMatched[f] {
			continue
		}
		h := hitAt[f]
		if h == nil {
			continue
		}
		for _, o := range h.Objects {
			if kept[o.TrackID] {
				matched[f] = true
				outHits = append(outHits, *h)
				break
			}
		}
	}
	return matched, outHits, ranked, sims
}
