package bench

// Archive-search experiment (E20): the appearance index's index-then-
// verify query path measured against the full-rescan baseline on two
// archive lengths (1x and 3x). Per length the clip is ingested into a
// store, extracted into the index, and searched twice — once through
// the probe path, once through the full rescan with the identical
// resolved exemplar feature — in fresh sessions each. The gates are the
// paper's sub-linear claim: answers bit-identical on every pass, and
// the probe path's verified-frame count and virtual cost growing well
// below the 3x archive growth (the CI baseline caps both ratios at
// 1.4x and requires a pruned-frame ratio of at least 0.8 on the long
// archive), while the full rescan grows linearly.

import (
	"fmt"
	"os"
	"reflect"

	"vqpy"

	"vqpy/internal/metrics"
)

// searchPass is one archive length's measurements.
type searchPass struct {
	frames    int
	newTracks int
	probe     *vqpy.SearchResult
	full      *vqpy.SearchResult
	identical bool
	probeStat armStats
	fullStat  armStats
}

// runSearchLength ingests, extracts and searches one archive of the
// given duration, probe path and full path both.
func runSearchLength(cfg Config, seconds float64) (*searchPass, error) {
	sdir, err := os.MkdirTemp("", "vqpy-search-store-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(sdir)
	xdir, err := os.MkdirTemp("", "vqpy-search-index-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(xdir)

	v := vqpy.GenerateVideo(vqpy.DatasetCityFlow(cfg.Seed, seconds*cfg.Scale))
	q := carPlateQuery("CarSearch")

	// Ingest and extract: one memo-free store-backed pass archives the
	// scan records the extractor and both search paths replay, then a
	// fresh session walks the archive into the index, one embedding per
	// track.
	st, err := vqpy.OpenStore(sdir, cfg.Seed)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	x, err := vqpy.OpenIndex(xdir, cfg.Seed)
	if err != nil {
		return nil, err
	}
	defer x.Close()
	if _, err := cfg.armSession().ExecuteShared([]vqpy.QueryNode{q}, v, vqpy.WithStore(st), vqpy.WithoutMemo()); err != nil {
		return nil, err
	}
	stats, err := cfg.armSession().IndexArchive(x, q, v, 0, vqpy.WithStore(st))
	if err != nil {
		return nil, err
	}
	if stats.To != len(v.Frames) {
		return nil, fmt.Errorf("bench: extraction covered [%d, %d) of %d frames", stats.From, stats.To, len(v.Frames))
	}
	ex, ok := x.Exemplar()
	if !ok {
		return nil, fmt.Errorf("bench: index holds no embeddable exemplar")
	}

	// Search: probe path by indexed track, full path with the identical
	// resolved feature, fresh sessions each so the clocks isolate the
	// search cost.
	search := func(name string, spec vqpy.SearchSpec, opts ...vqpy.Option) (*vqpy.SearchResult, armStats, error) {
		return runArm(cfg, arm[*vqpy.SearchResult]{name: name, body: func(newSession sessions) (*vqpy.SearchResult, error) {
			return newSession().Search(v, spec, opts...)
		}})
	}
	probe, probeStat, err := search("probe", vqpy.SearchSpec{Query: q, Track: ex.Track}, vqpy.WithStore(st), vqpy.WithIndex(x))
	if err != nil {
		return nil, err
	}
	if !probe.UsedIndex {
		return nil, fmt.Errorf("bench: probe search did not use the index")
	}
	full, fullStat, err := search("full", vqpy.SearchSpec{Query: q, Feature: probe.IR.Probe.FeatureRef}, vqpy.WithStore(st))
	if err != nil {
		return nil, err
	}

	identical := sameResult(&vqpy.Result{Matched: full.Matched, Hits: full.Hits},
		&vqpy.Result{Matched: probe.Matched, Hits: probe.Hits}) &&
		reflect.DeepEqual(full.MatchedTracks, probe.MatchedTracks) &&
		reflect.DeepEqual(full.Sims, probe.Sims)
	return &searchPass{
		frames: len(v.Frames), newTracks: stats.NewTracks,
		probe: probe, full: full, identical: identical,
		probeStat: probeStat, fullStat: fullStat,
	}, nil
}

// RunSearch is the E20 experiment entry point used by vqbench.
func RunSearch(cfg Config) (*metrics.Report, error) {
	cfg = cfg.withDefaults()
	base, err := runSearchLength(cfg, 40)
	if err != nil {
		return nil, err
	}
	long, err := runSearchLength(cfg, 120)
	if err != nil {
		return nil, err
	}

	rep := &metrics.Report{
		Title:  "E20: archive search — index-then-verify vs full rescan at 1x and 3x archive length",
		Header: []string{"archive", "frames", "path", "verified", "residual", "virtual ms", "wall ms"},
	}
	for _, row := range []struct {
		label string
		p     *searchPass
	}{{"1x", base}, {"3x", long}} {
		rep.AddRow(row.label, fmt.Sprint(row.p.frames), row.p.probeStat.name,
			fmt.Sprint(row.p.probe.VerifiedFrames), fmt.Sprint(row.p.probe.ResidualFrames),
			metrics.Ms(row.p.probe.VirtualMS), metrics.Ms(row.p.probeStat.wallMS))
		rep.AddRow(row.label, fmt.Sprint(row.p.frames), row.p.fullStat.name,
			fmt.Sprint(row.p.full.VerifiedFrames), "0",
			metrics.Ms(row.p.full.VirtualMS), metrics.Ms(row.p.fullStat.wallMS))
	}

	identical := base.identical && long.identical
	rep.SetMetric("search_identical", boolMetric(identical))
	rep.SetMetric("search_frames_growth", float64(long.frames)/float64(base.frames))
	setRatio(rep, "search_probe_verified_growth", float64(long.probe.VerifiedFrames), float64(base.probe.VerifiedFrames))
	setRatio(rep, "search_probe_virtual_growth", long.probe.VirtualMS, base.probe.VirtualMS)
	setRatio(rep, "search_full_virtual_growth", long.full.VirtualMS, base.full.VirtualMS)
	rep.SetMetric("search_pruned_ratio",
		1-float64(long.probe.VerifiedFrames)/float64(long.frames))

	rep.AddNote("tracks indexed: %d (1x), %d (3x); probe answers identical to full rescan: %v",
		base.newTracks, long.newTracks, identical)
	rep.AddNote("expected shape: the archive grows 3x but the probe path's verified frames and " +
		"virtual cost track the exemplar's track span, not the archive — sub-linear search")
	noteBurn(rep, cfg)
	if !identical {
		return rep, fmt.Errorf("bench: probe search diverges from the full rescan")
	}
	if long.probe.VerifiedFrames >= long.frames {
		return rep, fmt.Errorf("bench: probe verified %d of %d frames on the long archive: no pruning",
			long.probe.VerifiedFrames, long.frames)
	}
	return rep, nil
}
