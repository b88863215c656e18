package bench

import (
	"fmt"
	"strings"

	"vqpy"

	"vqpy/internal/core"
	"vqpy/internal/metrics"
	"vqpy/internal/models"
	"vqpy/internal/video"
)

// RunMemoAblation (E13) quantifies §4.2's object-level reuse against
// object dwell time: longer tracks amortize the intrinsic computation
// over more frames, so the memo speedup grows with track length.
func RunMemoAblation(cfg Config) (*metrics.Report, error) {
	cfg = cfg.withDefaults()
	rep := &metrics.Report{
		Title:  "Ablation E13: intrinsic memoization vs object dwell time",
		Header: []string{"scenario", "mean_track_frames", "memo_hit_rate", "vanilla_s", "memo_s", "speedup"},
	}
	type variant struct {
		name  string
		speed [2]float64
	}
	// Faster traffic -> shorter tracks -> less reuse.
	for _, vr := range []variant{
		{"slow_traffic_long_tracks", [2]float64{2, 4}},
		{"normal_traffic", [2]float64{4, 9}},
		{"fast_traffic_short_tracks", [2]float64{14, 20}},
	} {
		sc := video.CityFlow(cfg.Seed, 120*cfg.Scale)
		sc.SpeedRange = vr.speed
		v := sc.Generate()
		var trackFrames float64
		for _, pts := range v.Tracks {
			trackFrames += float64(len(pts))
		}
		if len(v.Tracks) > 0 {
			trackFrames /= float64(len(v.Tracks))
		}
		run := func(memo bool) (float64, float64) {
			s := cfg.session()
			opts := []vqpy.Option{vqpy.WithoutFrameFilters(), vqpy.WithoutSpecialized()}
			if !memo {
				opts = append(opts, vqpy.WithoutMemo())
			}
			before := s.Clock().TotalMS()
			rr, err := s.Execute(vqpyRedCarQuery(), v, opts...)
			if err != nil {
				panic(err)
			}
			hitRate := 0.0
			if h, m := rr.Basic.MemoHits, rr.Basic.MemoMisses; h+m > 0 {
				hitRate = float64(h) / float64(h+m)
			}
			return s.Clock().TotalMS() - before, hitRate
		}
		vanillaMS, _ := run(false)
		memoMS, hitRate := run(true)
		rep.AddRow(vr.name, fmt.Sprintf("%.0f", trackFrames),
			fmt.Sprintf("%.2f", hitRate), metrics.Sec(vanillaMS), metrics.Sec(memoMS),
			metrics.Ratio(vanillaMS, memoMS))
	}
	rep.AddNote("expected shape: hit rate and speedup grow with mean track length")
	return rep, nil
}

// RunPlannerAblation (E12) shows §4.3's alternative-path selection: for
// a red-car query with a registered specialized NN and binary filter,
// the planner profiles every candidate on a canary and picks the
// cheapest one meeting the accuracy target.
func RunPlannerAblation(cfg Config) (*metrics.Report, error) {
	cfg = cfg.withDefaults()
	v := video.CityFlow(cfg.Seed, 120*cfg.Scale).Generate()
	s := cfg.session()
	car := vqpy.RedCar()
	q := core.NewQuery("RedCarPlanned").
		Use("car", car).
		Where(core.And(
			core.P("car", core.PropScore).Gt(0.5),
			core.P("car", "color").Eq("red"),
		)).
		FrameOutput(core.Sel("car", core.PropTrackID))
	best, all, err := s.Explain(q, v, vqpy.WithAccuracyTarget(0.8))
	if err != nil {
		return nil, err
	}
	rep := &metrics.Report{
		Title:  "Ablation E12: planner candidate profiling (canary cost vs accuracy)",
		Header: []string{"candidate", "est_cost_ms", "est_f1", "chosen"},
	}
	for _, p := range all {
		chosen := ""
		if p == best {
			chosen = "<== selected"
		}
		rep.AddRow(p.Label, metrics.Ms(p.EstCostMS), fmt.Sprintf("%.3f", p.EstF1), chosen)
	}
	rep.AddNote("expected shape: the specialized/filtered plan wins when it meets the accuracy target; the most general plan is the accuracy reference")
	return rep, nil
}

// RunLazyAblation quantifies the lazy-evaluation contribution in
// isolation (§5.1's first mechanism) by disabling filter interleaving.
func RunLazyAblation(cfg Config) (*metrics.Report, error) {
	cfg = cfg.withDefaults()
	v := video.CityFlow(cfg.Seed, 120*cfg.Scale).Generate()
	q := fig13Queries()[0]
	rep := &metrics.Report{
		Title:  "Ablation: lazy property evaluation",
		Header: []string{"config", "virtual_s"},
	}
	run := func(label string, opts ...vqpy.Option) error {
		s := cfg.session()
		before := s.Clock().TotalMS()
		query := cvipStyleQuery(q.id, q.color, q.kind, q.dir)
		if _, err := s.Execute(query, v, opts...); err != nil {
			return err
		}
		rep.AddRow(label, metrics.Sec(s.Clock().TotalMS()-before))
		return nil
	}
	base := []vqpy.Option{vqpy.WithoutFrameFilters(), vqpy.WithoutSpecialized(), vqpy.WithoutMemo()}
	if err := run("eager (all properties first)", append(base, vqpy.WithoutLazy())...); err != nil {
		return nil, err
	}
	if err := run("lazy (filter between properties)", base...); err != nil {
		return nil, err
	}
	rep.AddNote("expected shape: lazy evaluation substantially cheaper on selective queries")
	return rep, nil
}

// RunEdgeAblation exercises §4.1's operator placement: with the binary
// classifier placed on the camera, frames without red cars never reach
// the GPU server, trading a small edge+uplink cost for a large server
// saving.
func RunEdgeAblation(cfg Config) (*metrics.Report, error) {
	cfg = cfg.withDefaults()
	// A sparse street: most frames have no red car, so the edge filter
	// has frames to drop (on a saturated intersection nearly every
	// frame contains a red car and filtering cannot help any placement).
	sc := video.Banff(cfg.Seed, 120*cfg.Scale)
	sc.VehiclesPerSec = 0.15
	v := sc.Generate()
	car := vqpy.RedCar() // carries the no_red_on_road filter registration
	q := core.NewQuery("RedCarEdge").
		Use("car", car).
		Where(core.And(
			core.P("car", core.PropScore).Gt(0.5),
			core.P("car", "color").Eq("red"),
		))
	rep := &metrics.Report{
		Title:  "Ablation: edge/server operator placement (§4.1)",
		Header: []string{"config", "total_s", "server_s", "edge_s", "uplink_s"},
	}
	run := func(label string, opts ...vqpy.Option) (float64, error) {
		s := cfg.session()
		before := s.Clock().TotalMS()
		if _, err := s.Execute(q, v, opts...); err != nil {
			return 0, err
		}
		total := s.Clock().TotalMS() - before
		server := s.Clock().Account("device:server")
		edge := s.Clock().Account("device:edge")
		uplink := s.Clock().Account("net:uplink")
		rep.AddRow(label, metrics.Sec(total), metrics.Sec(server), metrics.Sec(edge), metrics.Sec(uplink))
		return server, nil
	}
	// Server-only: everything placed on the server (filters disabled so
	// all frames hit the detector).
	serverOnly, err := run("server_only", vqpy.WithoutFrameFilters(), vqpy.WithoutSpecialized(), vqpy.WithEdgePlacement(2))
	if err != nil {
		return nil, err
	}
	// Edge-filtered: the registered binary classifier runs on the edge.
	edgeFiltered, err := run("edge_filtered", vqpy.WithoutSpecialized(), vqpy.WithEdgePlacement(2))
	if err != nil {
		return nil, err
	}
	if serverOnly > 0 {
		rep.AddNote("server load reduced %.0f%% by edge filtering", 100*(1-edgeFiltered/serverOnly))
	}
	rep.AddNote("expected shape: edge filtering cuts server time roughly in proportion to the frame drop rate, at small edge+uplink cost")
	return rep, nil
}

// ExplainSuspectDAG (E14) reproduces the Figure 9/10 example: the plan
// for "suspect getting into a red car", showing parallel person/car
// paths, early filters, the join, and the relation projector.
func ExplainSuspectDAG(cfg Config) (string, error) {
	cfg = cfg.withDefaults()
	v := video.Pickup(cfg.Seed, 60*cfg.Scale).Generate()
	s := cfg.session()

	// Target embedding: the suspect's ReID feature (in the paper the
	// officer supplies an image; here the embedding seed plays that
	// role).
	target := suspectTargetVector(s, v)
	person := vqpy.SuspectPerson(target, 30)
	car := vqpy.Car()
	rel := core.DistanceRelation("close", person, car)

	q := core.NewQuery("SuspectIntoRedCar").
		Use("suspect", person).
		Use("car", car).
		UseRelation("close", rel, "suspect", "car").
		Where(core.And(
			core.P("suspect", "similarity").Gt(0.8),
			core.P("car", "color").Eq("red"),
			core.RP("close", "distance").Lt(80),
		)).
		FrameOutput(
			core.Sel("suspect", core.PropTrackID),
			core.Sel("car", "plate"),
		)
	best, all, err := s.Explain(q, v)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 9/10 reproduction: %d candidate DAGs, selected:\n\n%s\n", len(all), best)
	rr, err := s.Execute(q, v)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "execution: %d/%d frames matched, %d events\n",
		rr.MatchedCount(), len(rr.Matched), len(rr.Events))
	return b.String(), nil
}

// suspectTargetVector extracts the planted suspect's embedding.
func suspectTargetVector(s *vqpy.Session, v *video.Video) []float64 {
	embedder := &models.ReIDEmbedder{P: models.Profile{Name: "reid", CostMS: 0}}
	for i := range v.Frames {
		for _, o := range v.Frames[i].Objects {
			if o.Suspect {
				return embedder.Embed(s.Env(), &v.Frames[i], o.Box, o.TrackID)
			}
		}
	}
	return make([]float64, 16)
}
