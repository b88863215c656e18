package exec

import (
	"fmt"
	"testing"

	"vqpy/internal/core"
	"vqpy/internal/geom"
	"vqpy/internal/models"
	"vqpy/internal/track"
	"vqpy/internal/video"
)

func boxAt(x, y float64) geom.BBox { return geom.Rect(x, y, 40, 30) }

func testEnv() *models.Env {
	e := models.NewEnv(42)
	e.NoBurn = true
	return e
}

// carType builds a Car VObj with color (intrinsic) and velocity.
func carType() *core.VObjType {
	return core.NewVObj("Car", video.ClassCar).
		Detector("yolox").
		StatelessModel("color", "color_detect", true).
		AddProperty(&core.Property{
			Name: "velocity", Stateful: true, DependsOn: []string{core.PropBBox},
			HistoryLen: 1, CostHintMS: 0.05,
			Compute: func(in core.PropInput) (any, error) {
				if len(in.History) < 2 {
					return nil, core.ErrNotReady
				}
				a := in.History[len(in.History)-2].(geom.BBox)
				b := in.History[len(in.History)-1].(geom.BBox)
				return geom.CenterDist(a, b), nil
			},
		})
}

// manualPlan builds a plan without the planner: detect, track, project
// color, filter, project velocity.
func manualPlan(q *core.Query, inst string, t *core.VObjType, extraSteps ...Step) *Plan {
	colorProp, _ := t.Prop("color")
	steps := []Step{
		{Kind: StepDetect, DetectModel: "yolox", Binds: []InstanceBind{{Instance: inst, Class: video.ClassCar}}},
		{Kind: StepTrack, Instance: inst},
		{Kind: StepProject, Instance: inst, Prop: colorProp},
	}
	steps = append(steps, extraSteps...)
	return &Plan{Query: q, Steps: steps, Label: "manual"}
}

// poolPlans builds several distinct red/blue/black-car plans over the
// shared manual-plan scaffolding.
func poolPlans(t *testing.T, n int) []*Plan {
	t.Helper()
	colors := []string{"red", "blue", "black", "white", "silver", "green", "red", "blue"}
	plans := make([]*Plan, 0, n)
	for i := 0; i < n; i++ {
		ct := carType()
		q := core.NewQuery(fmt.Sprintf("Q%d", i)).
			Use("car", ct).
			Where(core.And(
				core.P("car", core.PropScore).Gt(0.5),
				core.P("car", "color").Eq(colors[i%len(colors)]),
			)).
			FrameOutput(core.Sel("car", core.PropTrackID), core.Sel("car", "color"))
		plans = append(plans, manualPlan(q, "car", ct))
	}
	return plans
}

func redCarQuery(t *core.VObjType) *core.Query {
	return core.NewQuery("RedCar").
		Use("car", t).
		Where(core.And(
			core.P("car", core.PropScore).Gt(0.5),
			core.P("car", "color").Eq("red"),
		)).
		FrameOutput(core.Sel("car", core.PropTrackID), core.Sel("car", "color"))
}

func TestExecutorRedCarEndToEnd(t *testing.T) {
	v := video.CityFlow(42, 60).Generate()
	ct := carType()
	q := redCarQuery(ct)
	ex, err := NewExecutor(Options{Env: testEnv(), Registry: models.BuiltinRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.Run(manualPlan(q, "car", ct), v)
	if err != nil {
		t.Fatal(err)
	}
	if res.FramesProcessed != len(v.Frames) {
		t.Errorf("processed %d/%d frames", res.FramesProcessed, len(v.Frames))
	}
	if res.MatchedCount() == 0 {
		t.Fatal("no red-car frames found")
	}
	// Compare against ground truth: frame-level F1 must be high.
	truth := v.FramesMatching(func(o video.Object) bool {
		return o.Class == video.ClassCar && o.Color == video.ColorRed
	})
	tp, fp, fn := 0, 0, 0
	for i, m := range res.Matched {
		switch {
		case m && truth[i]:
			tp++
		case m && !truth[i]:
			fp++
		case !m && truth[i]:
			fn++
		}
	}
	if tp == 0 {
		t.Fatal("no true positives")
	}
	prec := float64(tp) / float64(tp+fp)
	rec := float64(tp) / float64(tp+fn)
	f1 := 2 * prec * rec / (prec + rec)
	if f1 < 0.8 {
		t.Errorf("red-car F1 = %.3f (p=%.2f r=%.2f)", f1, prec, rec)
	}
	// Hits carry output values.
	if len(res.Hits) == 0 {
		t.Fatal("no hits collected")
	}
	hit := res.Hits[0]
	if len(hit.Objects) == 0 {
		t.Fatal("hit without objects")
	}
	if hit.Objects[0].Values["color"] != "red" {
		t.Errorf("hit color = %v", hit.Objects[0].Values)
	}
	if res.VirtualMS <= 0 {
		t.Error("no virtual time charged")
	}
}

func TestIntrinsicMemoReducesCost(t *testing.T) {
	v := video.CityFlow(43, 60).Generate()
	run := func(disableMemo bool) (*Result, float64) {
		env := testEnv()
		ct := carType()
		q := redCarQuery(ct)
		p := manualPlan(q, "car", ct)
		p.DisableMemo = disableMemo
		ex, _ := NewExecutor(Options{Env: env, Registry: models.BuiltinRegistry()})
		res, err := ex.Run(p, v)
		if err != nil {
			t.Fatal(err)
		}
		return res, env.Clock.Account("color_detect")
	}
	memoRes, memoCost := run(false)
	vanillaRes, vanillaCost := run(true)
	if memoRes.MemoHits == 0 {
		t.Error("memo never hit")
	}
	if vanillaRes.MemoHits != 0 {
		t.Error("vanilla run used memo")
	}
	if memoCost >= vanillaCost {
		t.Errorf("memo did not reduce classifier cost: %.1f vs %.1f", memoCost, vanillaCost)
	}
	// Results should be nearly identical (memo reuses first computation).
	agree := 0
	for i := range memoRes.Matched {
		if memoRes.Matched[i] == vanillaRes.Matched[i] {
			agree++
		}
	}
	if frac := float64(agree) / float64(len(memoRes.Matched)); frac < 0.9 {
		t.Errorf("memo changed results too much: agreement %.2f", frac)
	}
}

func TestLazyFilterSkipsExpensiveProp(t *testing.T) {
	// Plan A: color filter before plate projection (lazy).
	// Plan B: plate projected on all nodes (eager).
	v := video.CityFlow(44, 40).Generate()
	ct := core.NewVObj("Car", video.ClassCar).
		Detector("yolox").
		StatelessModel("color", "color_detect", true).
		StatelessModel("plate", "plate_ocr", true)
	colorProp, _ := ct.Prop("color")
	plateProp, _ := ct.Prop("plate")
	q := core.NewQuery("RedPlate").
		Use("car", ct).
		Where(core.And(
			core.P("car", "color").Eq("red"),
			core.P("car", "plate").Ne(""),
		))
	mkPlan := func(lazy bool) *Plan {
		steps := []Step{
			{Kind: StepDetect, DetectModel: "yolox", Binds: []InstanceBind{{Instance: "car", Class: video.ClassCar}}},
			{Kind: StepTrack, Instance: "car"},
			{Kind: StepProject, Instance: "car", Prop: colorProp},
		}
		if lazy {
			steps = append(steps,
				Step{Kind: StepVObjFilter, FilterPred: core.P("car", "color").Eq("red")},
				Step{Kind: StepProject, Instance: "car", Prop: plateProp},
			)
		} else {
			steps = append(steps,
				Step{Kind: StepProject, Instance: "car", Prop: plateProp},
				Step{Kind: StepVObjFilter, FilterPred: core.P("car", "color").Eq("red")},
			)
		}
		p := &Plan{Query: q, Steps: steps, DisableMemo: true, Label: "t"}
		return p
	}
	envLazy, envEager := testEnv(), testEnv()
	exLazy, _ := NewExecutor(Options{Env: envLazy, Registry: models.BuiltinRegistry()})
	exEager, _ := NewExecutor(Options{Env: envEager, Registry: models.BuiltinRegistry()})
	resLazy, err := exLazy.Run(mkPlan(true), v)
	if err != nil {
		t.Fatal(err)
	}
	resEager, err := exEager.Run(mkPlan(false), v)
	if err != nil {
		t.Fatal(err)
	}
	lazyOCR := envLazy.Clock.Account("plate_ocr")
	eagerOCR := envEager.Clock.Account("plate_ocr")
	if lazyOCR >= eagerOCR {
		t.Errorf("lazy OCR cost %.1f not below eager %.1f", lazyOCR, eagerOCR)
	}
	// Same frames matched (filters only prune provably failing nodes).
	for i := range resLazy.Matched {
		if resLazy.Matched[i] != resEager.Matched[i] {
			t.Fatalf("lazy changed result at frame %d", i)
		}
	}
}

func TestStatefulVelocity(t *testing.T) {
	v := video.Southampton(45, 20).Generate()
	ct := carType()
	velProp, _ := ct.Prop("velocity")
	q := core.NewQuery("Speeding").
		Use("car", ct).
		Where(core.P("car", "velocity").Gt(video.SpeedingThreshold)).
		FrameOutput(core.Sel("car", core.PropTrackID))
	p := &Plan{Query: q, Steps: []Step{
		{Kind: StepDetect, DetectModel: "yolox", Binds: []InstanceBind{{Instance: "car", Class: video.ClassCar}}},
		{Kind: StepTrack, Instance: "car"},
		{Kind: StepProject, Instance: "car", Prop: velProp},
	}, Label: "vel"}
	ex, _ := NewExecutor(Options{Env: testEnv(), Registry: models.BuiltinRegistry()})
	res, err := ex.Run(p, v)
	if err != nil {
		t.Fatal(err)
	}
	truth := v.FramesMatching(func(o video.Object) bool {
		return o.IsVehicle() && o.Speed > video.SpeedingThreshold
	})
	if len(truth) == 0 {
		t.Skip("no speeders in scenario")
	}
	if res.MatchedCount() == 0 {
		t.Fatal("no speeding frames found")
	}
	// Recall against truth should be reasonable (box jitter adds noise).
	tp := 0
	for i, m := range res.Matched {
		if m && truth[i] {
			tp++
		}
	}
	if rec := float64(tp) / float64(len(truth)); rec < 0.5 {
		t.Errorf("speeding recall = %.2f", rec)
	}
}

func TestVideoAggregationCountsTracks(t *testing.T) {
	v := video.CityFlow(46, 120).Generate()
	ct := carType()
	colorProp, _ := ct.Prop("color")
	q := core.NewQuery("CountRed").
		Use("car", ct).
		VideoWhere(core.P("car", "color").Eq("red")).
		CountDistinct("car")
	p := &Plan{Query: q, Steps: []Step{
		{Kind: StepDetect, DetectModel: "yolox", Binds: []InstanceBind{{Instance: "car", Class: video.ClassCar}}},
		{Kind: StepTrack, Instance: "car"},
		{Kind: StepProject, Instance: "car", Prop: colorProp},
	}, Label: "count"}
	ex, _ := NewExecutor(Options{Env: testEnv(), Registry: models.BuiltinRegistry()})
	res, err := ex.Run(p, v)
	if err != nil {
		t.Fatal(err)
	}
	truthCount := v.GroundTruthCount(func(o video.Object) bool {
		return o.Class == video.ClassCar && o.Color == video.ColorRed
	})
	if truthCount == 0 {
		t.Skip("no red cars")
	}
	if res.Count == 0 {
		t.Fatal("count = 0")
	}
	// Tracker fragmentation and noise allow some deviation.
	ratio := float64(res.Count) / float64(truthCount)
	if ratio < 0.5 || ratio > 2.5 {
		t.Errorf("count = %d, truth = %d", res.Count, truthCount)
	}
}

func TestFrameFilterDropsFrames(t *testing.T) {
	v := video.CityFlow(47, 40).Generate()
	ct := carType()
	q := redCarQuery(ct)
	colorProp, _ := ct.Prop("color")
	p := &Plan{Query: q, Steps: []Step{
		{Kind: StepFrameFilter, FilterModel: "no_red_on_road"},
		{Kind: StepDetect, DetectModel: "yolox", Binds: []InstanceBind{{Instance: "car", Class: video.ClassCar}}},
		{Kind: StepTrack, Instance: "car"},
		{Kind: StepProject, Instance: "car", Prop: colorProp},
	}, Label: "filt"}
	env := testEnv()
	ex, _ := NewExecutor(Options{Env: env, Registry: models.BuiltinRegistry()})
	res, err := ex.Run(p, v)
	if err != nil {
		t.Fatal(err)
	}
	// The filter must have reduced detector invocations below the frame
	// count.
	detCost := env.Clock.Account("yolox")
	maxCost := float64(len(v.Frames)) * 28
	if detCost >= maxCost {
		t.Errorf("frame filter saved nothing: %.0f >= %.0f", detCost, maxCost)
	}
	if res.MatchedCount() == 0 {
		t.Error("filter killed all matches")
	}
}

func TestRelationDistanceQuery(t *testing.T) {
	v := video.Auburn(48, 60).Generate()
	pt := core.NewVObj("Person", video.ClassPerson).Detector("person_detector")
	ct := core.NewVObj("Car", video.ClassCar).Detector("car_detector")
	rel := core.DistanceRelation("near", pt, ct)
	distProp, _ := rel.Prop("distance")
	rb := &core.RelBinding{Rel: rel, LeftInst: "p", RightInst: "c"}
	q := core.NewQuery("PersonNearCar").
		Use("p", pt).Use("c", ct).
		UseRelation("near", rel, "p", "c").
		Where(core.RP("near", "distance").Lt(150))
	p := &Plan{Query: q, Steps: []Step{
		{Kind: StepDetect, DetectModel: "person_detector", Binds: []InstanceBind{{Instance: "p", Class: video.ClassPerson}}},
		{Kind: StepTrack, Instance: "p"},
		{Kind: StepDetect, DetectModel: "car_detector", Binds: []InstanceBind{{Instance: "c", Class: video.ClassCar}}},
		{Kind: StepTrack, Instance: "c"},
		{Kind: StepRelProject, Relation: "near", RelBind: rb, RelProp: distProp},
		{Kind: StepRelFilter, Relation: "near", RelPred: core.RP("near", "distance").Lt(150)},
	}, Label: "rel"}
	ex, _ := NewExecutor(Options{Env: testEnv(), Registry: models.BuiltinRegistry()})
	res, err := ex.Run(p, v)
	if err != nil {
		t.Fatal(err)
	}
	if res.MatchedCount() == 0 {
		t.Error("no person-near-car frames")
	}
	if res.MatchedCount() == len(res.Matched) {
		t.Error("every frame matched (filter vacuous)")
	}
}

func TestSharedCacheAvoidsRedetection(t *testing.T) {
	v := video.CityFlow(49, 30).Generate()
	cache := NewSharedCache()
	env := testEnv()
	run := func() {
		ct := carType()
		q := redCarQuery(ct)
		ex, _ := NewExecutor(Options{Env: env, Registry: models.BuiltinRegistry(), Cache: cache})
		if _, err := ex.Run(manualPlan(q, "car", ct), v); err != nil {
			t.Fatal(err)
		}
	}
	run()
	costAfterFirst := env.Clock.Account("yolox")
	run()
	costAfterSecond := env.Clock.Account("yolox")
	if costAfterSecond != costAfterFirst {
		t.Errorf("second run re-ran the detector: %.0f -> %.0f", costAfterFirst, costAfterSecond)
	}
	hits, _ := cache.Stats()
	if hits == 0 {
		t.Error("cache never hit")
	}
}

func TestPlanValidation(t *testing.T) {
	ct := carType()
	q := redCarQuery(ct)
	colorProp, _ := ct.Prop("color")
	velProp, _ := ct.Prop("velocity")
	cases := []struct {
		name  string
		steps []Step
	}{
		{"project before detect", []Step{
			{Kind: StepProject, Instance: "car", Prop: colorProp},
		}},
		{"stateful without track", []Step{
			{Kind: StepDetect, DetectModel: "yolox", Binds: []InstanceBind{{Instance: "car", Class: video.ClassCar}}},
			{Kind: StepProject, Instance: "car", Prop: velProp},
		}},
		{"double track", []Step{
			{Kind: StepDetect, DetectModel: "yolox", Binds: []InstanceBind{{Instance: "car", Class: video.ClassCar}}},
			{Kind: StepTrack, Instance: "car"},
			{Kind: StepTrack, Instance: "car"},
		}},
		{"filter unprojected", []Step{
			{Kind: StepDetect, DetectModel: "yolox", Binds: []InstanceBind{{Instance: "car", Class: video.ClassCar}}},
			{Kind: StepVObjFilter, FilterPred: core.P("car", "color").Eq("red")},
		}},
		{"require undetected", []Step{
			{Kind: StepRequire, RequireInstance: "car"},
		}},
	}
	for _, c := range cases {
		p := &Plan{Query: q, Steps: c.steps}
		if err := p.Validate(); err == nil {
			t.Errorf("%s: invalid plan accepted", c.name)
		}
	}
	// Valid plan passes.
	if err := manualPlan(q, "car", ct).Validate(); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
	// A plan without a query is rejected.
	p := manualPlan(q, "car", ct)
	p.Query = nil
	if err := p.Validate(); err == nil {
		t.Error("plan without query accepted")
	}
}

func TestExecutorOptionValidation(t *testing.T) {
	if _, err := NewExecutor(Options{}); err == nil {
		t.Error("missing env accepted")
	}
	if _, err := NewExecutor(Options{Env: testEnv()}); err == nil {
		t.Error("missing registry accepted")
	}
}

func TestMaxFramesTruncates(t *testing.T) {
	v := video.CityFlow(50, 60).Generate()
	ct := carType()
	q := redCarQuery(ct)
	ex, _ := NewExecutor(Options{Env: testEnv(), Registry: models.BuiltinRegistry(), MaxFrames: 25})
	res, err := ex.Run(manualPlan(q, "car", ct), v)
	if err != nil {
		t.Fatal(err)
	}
	if res.FramesProcessed != 25 {
		t.Errorf("processed %d frames, want 25", res.FramesProcessed)
	}
}

func TestStepStrings(t *testing.T) {
	ct := carType()
	colorProp, _ := ct.Prop("color")
	steps := []Step{
		{Kind: StepFrameFilter, FilterModel: "m"},
		{Kind: StepDetect, DetectModel: "yolox", Binds: []InstanceBind{{Instance: "car"}}},
		{Kind: StepTrack, Instance: "car"},
		{Kind: StepProject, Instance: "car", Prop: colorProp},
		{Kind: StepVObjFilter, FilterPred: core.P("car", "color").Eq("red")},
		{Kind: StepRequire, RequireInstance: "car"},
	}
	for _, s := range steps {
		if s.String() == "invalid" || s.String() == "" {
			t.Errorf("step %v renders %q", s.Kind, s.String())
		}
	}
	if StepKind(99).String() != "invalid" {
		t.Error("invalid kind string")
	}
	fused := Step{Kind: StepFused, Fused: steps[3:5]}
	if fused.String() == "" {
		t.Error("fused string empty")
	}
	q := redCarQuery(ct)
	p := manualPlan(q, "car", ct)
	if p.String() == "" {
		t.Error("plan string empty")
	}
}

// TestTrackDetectionConversion guards the Detection/track round trip used
// by the cache.
func TestDetectionCacheRoundTrip(t *testing.T) {
	c := NewSharedCache()
	in := []track.Detection{
		{Box: boxAt(1, 2), Class: int(video.ClassCar), Score: 0.9, Ref: 7},
		{Box: boxAt(3, 4), Class: int(video.ClassPerson), Score: 0.8, Ref: -1},
	}
	computed := 0
	get := func(frame int) []track.Detection {
		out, err := c.DoDetections("m", frame, func() ([]track.Detection, error) {
			computed++
			return in, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	get(3)
	out := get(3)
	if computed != 1 || len(out) != 2 {
		t.Fatalf("round trip failed: %v after %d computes", out, computed)
	}
	if out[0].Box != in[0].Box || out[0].Class != in[0].Class || out[0].Ref.(int) != 7 {
		t.Errorf("detection mangled: %+v", out[0])
	}
	if get(4); computed != 2 {
		t.Error("wrong frame hit")
	}
}
