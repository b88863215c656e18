package main

// archive_cold and archive_warm: the write side and the read side of
// the store and index layers, over the same clip and queries, so a read
// gain bought with a write cost (or the reverse) shows as a pair.
//
// Flush policy, stated so both sides of a comparison pay it: store and
// index fsync only on Close, and archive_cold closes both inside its
// timed round.

import (
	"fmt"
	"slices"
	"time"

	"vqpy"

	"vqpy/internal/index"
)

// archiveBase is what both archive workloads set up: the clip and the
// per-query reference answers of the mix.
type archiveBase struct {
	engineInputs
	env    *runEnv
	mixRef []answer
}

func newArchiveBase(env *runEnv) (*archiveBase, error) {
	b := &archiveBase{engineInputs: newEngineInputs(env), env: env}
	var err error
	b.mixRef, err = mixReferences(b.seed, b.clip)
	return b, err
}

func (b *archiveBase) corrupt() { b.mixRef[0].matched = flipFirst(b.mixRef[0].matched) }

// reducedTiers are the fidelity tiers an archive holds besides the
// full-fidelity scan itself.
func reducedTiers() []vqpy.Fidelity { return vqpy.FidelityLattice("")[1:] }

// archiveDirs is one archive on disk.
type archiveDirs struct{ store, index string }

func (b *archiveBase) newDirs() (archiveDirs, error) {
	s, err := b.env.tempDir("store")
	if err != nil {
		return archiveDirs{}, err
	}
	x, err := b.env.tempDir("index")
	return archiveDirs{s, x}, err
}

// build writes one whole archive: the 8-query mix in one store-backed
// shared pass, the appearance index over the car scan (warmed under the
// search signature first, as the daemon does), every reduced fidelity
// tier, then Close on index and store. before, when set, runs on the
// finished archive just before the two are closed. It returns the bytes
// on disk.
func (b *archiveBase) build(d archiveDirs, tr *tracer, rs *roundStats, o *outcome, before func(*vqpy.Store, *vqpy.Index) error) (int64, error) {
	n := len(b.clip.Frames)
	st, err := vqpy.OpenStore(d.store, b.seed)
	if err != nil {
		return 0, err
	}
	x, err := vqpy.OpenIndex(d.index, b.seed)
	if err != nil {
		st.Close()
		return 0, err
	}
	s := newSession(b.seed, tr)
	withStore := vqpy.WithStore(st)

	var results []*vqpy.RunResult
	dur, err := tr.call("exec.execute_shared", func() (err error) {
		results, err = s.ExecuteShared(mixNodes(), b.clip, withStore)
		return err
	})
	if err != nil {
		return 0, err
	}
	rs.request(dur, len(results)*n)
	rs.firstVerdict = append(rs.firstVerdict, ms(dur))
	for i, res := range results {
		rs.ledger.memo(res.Basic)
		o.check(answerOfRun(res).equal(b.mixRef[i]), "archive: %s differs from its reference", res.Name)
	}

	dur, err = tr.call("index.extract", func() error {
		if err := s.WarmSearchArchive(archiveQuery(), b.clip, 0, withStore); err != nil {
			return err
		}
		stats, err := s.IndexArchive(x, archiveQuery(), b.clip, 0, withStore)
		if err == nil && stats.To != n {
			err = fmt.Errorf("archive: index covers [%d,%d) of %d frames", stats.From, stats.To, n)
		}
		return err
	})
	if err != nil {
		return 0, err
	}
	rs.request(dur, 0)

	for _, fid := range reducedTiers() {
		var entry vqpy.FidelityEntry
		dur, err = tr.call("exec.archive_fidelity", func() (err error) {
			entry, err = s.ArchiveFidelity(archiveQuery(), b.clip, fid, 0, withStore)
			return err
		})
		if err != nil {
			return 0, err
		}
		rs.request(dur, 0)
		o.check(entry.Covered == n, "archive: tier %s covers %d of %d frames", entry.Key, entry.Covered, n)
	}
	rs.session(s)
	if before != nil {
		if err := before(st, x); err != nil {
			return 0, err
		}
	}

	dur, err = tr.call("index.close", x.Close)
	if err != nil {
		return 0, err
	}
	rs.request(dur, 0)
	dur, err = tr.call("store.close", st.Close)
	if err != nil {
		return 0, err
	}
	rs.request(dur, 0)
	return dirBytes(d.store) + dirBytes(d.index), nil
}

// ---- archive_cold ----

type coldState struct {
	*archiveBase
	last      archiveDirs
	diskBytes int64
}

func runArchiveCold(env *runEnv) (*outcome, error) {
	return runEngine(env, func(o *outcome) (engineState, error) {
		b, err := newArchiveBase(env)
		return &coldState{archiveBase: b}, err
	})
}

// round archives the clip into fresh directories.
func (st *coldState) round(tr *tracer, rs *roundStats, o *outcome) error {
	d, err := st.newDirs()
	if err != nil {
		return err
	}
	st.last = d
	st.diskBytes, err = st.build(d, tr, rs, o, nil)
	return err
}

func (st *coldState) layers(tr *tracer, lm *layerMetrics) error {
	n := float64(len(st.clip.Frames))
	videoLayers(lm, st.clip, st.generateMS)
	lm.set("disk_bytes_per_frame", float64(st.diskBytes)/n)
	lm.set("store.bytes_per_frame", float64(dirBytes(st.last.store))/n)
	lm.set("store.close_ms", tr.meanNS("store.close")/1e6)
	lm.set("index.extract_ns_per_frame", tr.meanNS("index.extract")/n)

	// Reopen the last archive to read the layers' own counters.
	store, err := vqpy.OpenStore(st.last.store, st.seed)
	if err != nil {
		return err
	}
	defer store.Close()
	storeRows(lm, store.TierStats(), store.Counters().Snapshot(), n)
	x, err := vqpy.OpenIndex(st.last.index, st.seed)
	if err != nil {
		return err
	}
	defer x.Close()
	indexRows(lm, x.TierStats(), st.last.index)
	return replayStore(lm, tr.captured, st.seed)
}

// ---- archive_warm ----

// searchProbes is how many exemplar tracks a warm round probes for.
const searchProbes = 8

// lateQueries index the queries of the mix that join the stream late
// with backfill: RedCar, Plates and BlueCars, all riding the car scan.
var lateQueries = []int{1, 6, 7}

// fidelityAsks is how often a round asks the archive query under the
// accuracy floor; a tier's accuracy is calibrated for the query that
// archived it, so that is the query the floor is a promise for.
const (
	fidelityAsks  = 3
	fidelityFloor = 0.9
)

type warmState struct {
	*archiveBase
	dirs archiveDirs
	// exemplars are the indexed tracks the probes look for;
	// searchRef their reference answers from the full-rescan path.
	exemplars []int
	searchRef []answer
	// fidelityRef is the exact answer the budgeted ones must agree with
	// on at least the floor's share of frames.
	fidelityRef answer
	backfillAt  int

	// What the traced rounds saw, for the per-layer rows: the frames
	// the probes verified and the tiers replayed (the spans carry the
	// times), the layers' own counters at the end of the last round, and
	// the planning replays.
	verifiedFrames, replayedFrames float64
	lastCounters                   map[string]int64
	lastTiers                      vqpy.StoreStats
	lastIndex                      vqpy.IndexStats
	searchPlanNS, fidPlanNS        []float64
	probeNS                        float64
}

func runArchiveWarm(env *runEnv) (*outcome, error) {
	return runEngine(env, func(o *outcome) (engineState, error) {
		b, err := newArchiveBase(env)
		if err != nil {
			return nil, err
		}
		st := &warmState{archiveBase: b, backfillAt: int(env.P.BackfillAt * float64(len(b.clip.Frames)))}
		if st.dirs, err = st.newDirs(); err != nil {
			return nil, err
		}
		_, err = st.build(st.dirs, nil, &roundStats{ledger: newLedger()}, o, st.references)
		return st, err
	})
}

// references picks the exemplar tracks and computes the read mix's
// reference answers: each search through the full-rescan path with the
// exemplar's own feature, each fidelity query exactly (no floor).
func (st *warmState) references(store *vqpy.Store, x *vqpy.Index) error {
	ex, tracks, err := typicalTracks(x, searchProbes)
	if err != nil {
		return err
	}
	st.exemplars = tracks
	// The reference searches scan the same frames with the same plan;
	// one shared cache lets them decode each archived record once.
	cache := vqpy.NewSharedCache()
	for _, t := range st.exemplars {
		feature, ok := x.FeatureOf(ex.Source, ex.Sig, ex.Class, t)
		if !ok {
			return fmt.Errorf("archive_warm: track %d has no stored feature", t)
		}
		res, err := newSession(st.seed, nil).Search(st.clip,
			vqpy.SearchSpec{Query: archiveQuery(), Feature: feature}, vqpy.WithStore(store), vqpy.WithSharedCache(cache))
		if err != nil {
			return err
		}
		st.searchRef = append(st.searchRef, answerOfSearch(res))
	}
	res, err := newSession(st.seed, nil).Execute(archiveQuery(), st.clip)
	if err != nil {
		return err
	}
	st.fidelityRef = answerOfRun(res)
	return nil
}

// typicalTracks picks n exemplar tracks from the index. What a probe
// costs follows how long its exemplar was in view (the frames to
// verify), and track spans run from a few frames to hundreds; so the
// indexed tracks are ordered by span and the n around the median are
// taken — which tracks those are follows the seed, through the
// detections the tracker saw. It also returns an entry naming the scan
// the tracks belong to.
func typicalTracks(x *vqpy.Index, n int) (index.Entry, []int, error) {
	ex, ok := x.Exemplar()
	if !ok {
		return ex, nil, fmt.Errorf("index holds no exemplar")
	}
	var entries []index.Entry
	for _, e := range x.Entries(ex.Source, ex.Sig, ex.Class) {
		if len(e.Vec) > 0 {
			entries = append(entries, e)
		}
	}
	if len(entries) < n {
		return ex, nil, fmt.Errorf("%d indexed tracks, need %d", len(entries), n)
	}
	slices.SortFunc(entries, func(a, b index.Entry) int {
		if a.Frames != b.Frames {
			return a.Frames - b.Frames
		}
		return a.Track - b.Track
	})
	lo := (len(entries) - n) / 2
	tracks := make([]int, n)
	for i, e := range entries[lo : lo+n] {
		tracks[i] = e.Track
	}
	return ex, tracks, nil
}

func answerOfSearch(r *vqpy.SearchResult) answer {
	return answer{matched: r.Matched, hits: len(r.Hits), tracks: r.MatchedTracks}
}

// agreement is the share of frames on which two verdict vectors agree.
func agreement(a, b []bool) float64 {
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

// round reopens the archive and reads it every way the product can.
func (st *warmState) round(tr *tracer, rs *roundStats, o *outcome) error {
	n := len(st.clip.Frames)
	var store *vqpy.Store
	var x *vqpy.Index
	dur, err := tr.call("store.open", func() (err error) {
		store, err = vqpy.OpenStore(st.dirs.store, st.seed)
		return err
	})
	if err != nil {
		return err
	}
	defer store.Close()
	rs.request(dur, 0)
	dur, err = tr.call("index.open", func() (err error) {
		x, err = vqpy.OpenIndex(st.dirs.index, st.seed)
		return err
	})
	if err != nil {
		return err
	}
	defer x.Close()
	rs.request(dur, 0)
	withStore := vqpy.WithStore(store)

	// Two warm rescans: the first reads the log, the second finds what
	// the memory tier kept (it is smaller than the archive).
	for pass := 0; pass < 2; pass++ {
		s := newSession(st.seed, tr)
		var results []*vqpy.RunResult
		dur, err := tr.call("exec.replay", func() (err error) {
			results, err = s.ExecuteShared(mixNodes(), st.clip, withStore)
			return err
		})
		if err != nil {
			return err
		}
		rs.request(dur, len(results)*n)
		rs.session(s)
		for i, res := range results {
			o.check(answerOfRun(res).equal(st.mixRef[i]), "archive_warm: rescan %d of %s differs from its reference", pass, res.Name)
		}
	}

	for i, t := range st.exemplars {
		s := newSession(st.seed, tr)
		var res *vqpy.SearchResult
		dur, err := tr.call("exec.search", func() (err error) {
			res, err = s.Search(st.clip, vqpy.SearchSpec{Query: archiveQuery(), Track: t}, withStore, vqpy.WithIndex(x))
			return err
		})
		if err != nil {
			return err
		}
		rs.request(dur, n)
		rs.session(s)
		if tr != nil {
			st.verifiedFrames += float64(res.VerifiedFrames)
		}
		o.check(res.UsedIndex && answerOfSearch(res).equal(st.searchRef[i]),
			"archive_warm: probe for track %d differs from the full rescan", t)
	}

	for i := 0; i < fidelityAsks; i++ {
		s := newSession(st.seed, tr)
		var res *vqpy.FidelityResult
		dur, err := tr.call("exec.fidelity", func() (err error) {
			res, err = s.ExecuteFidelity(archiveQuery(), st.clip, 0, withStore, vqpy.WithMinAccuracy(fidelityFloor))
			return err
		})
		if err != nil {
			return err
		}
		rs.request(dur, n)
		rs.session(s)
		if tr != nil {
			st.replayedFrames += float64(res.ReplayedFrames)
		}
		agree := agreement(res.Matched, st.fidelityRef.matched)
		ok := !res.Decision.ChosenCandidate().Live && res.ReplayedFrames > 0 && agree >= fidelityFloor
		o.check(ok, "archive_warm: floor %.1f answered by tier %s, %d replayed, agreement %.3f", fidelityFloor,
			res.Decision.ChosenCandidate().Key, res.ReplayedFrames, agree)
	}

	// Late queries: the stream has scanned backfillAt frames with no lane
	// attached, then three queries of the mix join, one after the other,
	// each with its history replayed from the archive.
	s := newSession(st.seed, tr)
	m, err := s.Serve(st.clip.FPS)
	if err != nil {
		return err
	}
	m.BindStore(store, st.clip)
	for f := 0; f < st.backfillAt; f++ {
		if _, err := m.Feed(st.clip.FrameAt(f)); err != nil {
			return err
		}
	}
	mix := mixQueries()
	for _, i := range lateQueries {
		var lane int
		dur, err = tr.call("exec.backfill", func() (err error) {
			lane, _, err = s.AttachQueryBackfill(m, mix[i], st.clip)
			return err
		})
		if err != nil {
			return err
		}
		rs.request(dur, st.backfillAt)
		rs.firstVerdict = append(rs.firstVerdict, ms(dur))
		res, err := m.Detach(lane)
		if err != nil {
			return err
		}
		o.check(res.FramesProcessed == st.backfillAt && slices.Equal(res.Matched, st.mixRef[i].matched[:st.backfillAt]),
			"archive_warm: backfilled %s differs from its reference over [0,%d)", mix[i].Name(), st.backfillAt)
	}
	m.Close()
	rs.session(s)

	st.lastCounters = store.Counters().Snapshot()
	st.lastTiers = store.TierStats()
	st.lastIndex = x.TierStats()
	if tr != nil {
		if err := st.planReplays(store, x); err != nil {
			return err
		}
	}
	return nil
}

// planReplays times the planning halves the read paths cannot be split
// into from outside: a search bounded to one frame (compile + probe),
// PlanFidelity (pricing every tier), and a bare index probe.
func (st *warmState) planReplays(store *vqpy.Store, x *vqpy.Index) error {
	withStore := vqpy.WithStore(store)
	start := time.Now()
	_, err := newSession(st.seed, nil).Search(st.clip,
		vqpy.SearchSpec{Query: archiveQuery(), Track: st.exemplars[0], Frames: 1}, withStore, vqpy.WithIndex(x))
	if err != nil {
		return err
	}
	st.searchPlanNS = append(st.searchPlanNS, float64(time.Since(start).Nanoseconds()))

	start = time.Now()
	if _, err := newSession(st.seed, nil).PlanFidelity(archiveQuery(), st.clip, 0, withStore, vqpy.WithMinAccuracy(fidelityFloor)); err != nil {
		return err
	}
	st.fidPlanNS = append(st.fidPlanNS, float64(time.Since(start).Nanoseconds()))

	ex, _ := x.Exemplar()
	s := newSession(st.seed, nil)
	st.probeNS = timeEach(len(st.exemplars)*10, func(i int) {
		t := st.exemplars[i%len(st.exemplars)]
		if feature, ok := x.FeatureOf(ex.Source, ex.Sig, ex.Class, t); ok {
			x.Probe(s.Env(), ex.Source, ex.Sig, ex.Class, feature, 0.7)
		}
	})
	return nil
}

func (st *warmState) layers(tr *tracer, lm *layerMetrics) error {
	n := float64(len(st.clip.Frames))
	videoLayers(lm, st.clip, st.generateMS)
	lm.set("store.open_ms", tr.meanNS("store.open")/1e6)
	lm.set("index.open_ms", tr.meanNS("index.open")/1e6)
	lm.set("exec.replay_ns_per_frame", tr.meanNS("exec.replay")/(float64(len(st.mixRef))*n))
	lm.set("exec.backfill_ns_per_frame", tr.meanNS("exec.backfill")/float64(st.backfillAt))
	lm.set("exec.index_verify_ns_per_frame", ratio(float64(tr.total("exec.search").NS), st.verifiedFrames))
	lm.set("exec.fidelity_replay_ns_per_frame", ratio(float64(tr.total("exec.fidelity").NS), st.replayedFrames))
	lm.set("plan.search_ns", mean(st.searchPlanNS))
	lm.set("plan.fidelity_plan_ns", mean(st.fidPlanNS))

	lm.set("store.bytes_per_frame", float64(dirBytes(st.dirs.store))/n)
	lm.set("disk_bytes_per_frame", float64(dirBytes(st.dirs.store)+dirBytes(st.dirs.index))/n)
	storeRows(lm, st.lastTiers, st.lastCounters, n)
	indexRows(lm, st.lastIndex, st.dirs.index)
	lm.set("index.probe_ns", st.probeNS)

	// The warm rounds call no detector, so there is nothing captured to
	// replay: time the store's read paths on the archive's own records.
	return replayStoreReads(lm, st.dirs.store, st.seed, st.clip)
}
