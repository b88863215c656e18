package exec

import (
	"errors"
	"strings"
	"testing"

	"vqpy/internal/core"
	"vqpy/internal/geom"
	"vqpy/internal/models"
	"vqpy/internal/video"
)

// TestEmptyVideoNoCrash runs a full plan over a scenario with (almost)
// no objects.
func TestEmptyVideoNoCrash(t *testing.T) {
	sc := video.Scenario{Name: "empty", Seed: 1, FPS: 10, Duration: 5, VehiclesPerSec: 0.0001}
	v := sc.Generate()
	ct := carType()
	q := redCarQuery(ct)
	ex, _ := NewExecutor(Options{Env: testEnv(), Registry: models.BuiltinRegistry()})
	res, err := ex.Run(manualPlan(q, "car", ct), v)
	if err != nil {
		t.Fatal(err)
	}
	if res.MatchedCount() != 0 {
		t.Errorf("matched %d frames on empty video", res.MatchedCount())
	}
	if res.FramesProcessed != len(v.Frames) {
		t.Error("frames not processed")
	}
}

// TestPropertyErrorPropagates ensures compute errors abort with context.
func TestPropertyErrorPropagates(t *testing.T) {
	v := video.CityFlow(2, 5).Generate()
	boom := errors.New("boom")
	ct := core.NewVObj("Car", video.ClassCar).
		Detector("yolox").
		StatelessFunc("bad", nil, 0, func(in core.PropInput) (any, error) {
			return nil, boom
		})
	badProp, _ := ct.Prop("bad")
	q := core.NewQuery("Bad").Use("car", ct).Where(core.P("car", "bad").Eq(1))
	p := &Plan{Query: q, Steps: []Step{
		{Kind: StepDetect, DetectModel: "yolox", Binds: []InstanceBind{{Instance: "car", Class: video.ClassCar}}},
		{Kind: StepTrack, Instance: "car"},
		{Kind: StepProject, Instance: "car", Prop: badProp},
	}}
	ex, _ := NewExecutor(Options{Env: testEnv(), Registry: models.BuiltinRegistry()})
	_, err := ex.Run(p, v)
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("error not propagated: %v", err)
	}
	if !strings.Contains(err.Error(), "car.bad") {
		t.Errorf("error lacks property context: %v", err)
	}
}

// TestErrNotReadyIsNotFatal: properties returning ErrNotReady are
// treated as absent.
func TestErrNotReadyIsNotFatal(t *testing.T) {
	v := video.CityFlow(3, 10).Generate()
	ct := core.NewVObj("Car", video.ClassCar).
		Detector("yolox").
		StatelessFunc("never", nil, 0, func(in core.PropInput) (any, error) {
			return nil, core.ErrNotReady
		})
	prop, _ := ct.Prop("never")
	q := core.NewQuery("Never").Use("car", ct).Where(core.P("car", "never").Eq(1))
	p := &Plan{Query: q, Steps: []Step{
		{Kind: StepDetect, DetectModel: "yolox", Binds: []InstanceBind{{Instance: "car", Class: video.ClassCar}}},
		{Kind: StepTrack, Instance: "car"},
		{Kind: StepProject, Instance: "car", Prop: prop},
	}}
	ex, _ := NewExecutor(Options{Env: testEnv(), Registry: models.BuiltinRegistry()})
	res, err := ex.Run(p, v)
	if err != nil {
		t.Fatal(err)
	}
	if res.MatchedCount() != 0 {
		t.Error("not-ready property satisfied a constraint")
	}
}

// TestUnknownModelErrors covers every model-resolution failure path.
func TestUnknownModelErrors(t *testing.T) {
	v := video.CityFlow(4, 3).Generate()
	ct := core.NewVObj("Car", video.ClassCar).
		Detector("ghost_detector").
		StatelessModel("color", "ghost_classifier", false)
	colorProp, _ := ct.Prop("color")
	q := core.NewQuery("Ghost").Use("car", ct).Where(core.P("car", "color").Eq("red"))

	cases := []struct {
		name  string
		steps []Step
	}{
		{"detector", []Step{
			{Kind: StepDetect, DetectModel: "ghost_detector", Binds: []InstanceBind{{Instance: "car", Class: video.ClassCar}}},
		}},
		{"classifier", []Step{
			{Kind: StepDetect, DetectModel: "yolox", Binds: []InstanceBind{{Instance: "car", Class: video.ClassCar}}},
			{Kind: StepProject, Instance: "car", Prop: colorProp},
		}},
		{"frame filter", []Step{
			{Kind: StepFrameFilter, FilterModel: "ghost_filter"},
		}},
	}
	for _, c := range cases {
		p := &Plan{Query: q, Steps: c.steps}
		ex, _ := NewExecutor(Options{Env: testEnv(), Registry: models.BuiltinRegistry()})
		if _, err := ex.Run(p, v); err == nil {
			t.Errorf("%s: missing model accepted", c.name)
		}
	}
}

// TestModelKindMismatch: a detector used as a frame filter must fail
// cleanly.
func TestModelKindMismatch(t *testing.T) {
	v := video.CityFlow(5, 3).Generate()
	ct := carType()
	q := redCarQuery(ct)
	p := &Plan{Query: q, Steps: []Step{
		{Kind: StepFrameFilter, FilterModel: "yolox"}, // wrong kind
		{Kind: StepDetect, DetectModel: "yolox", Binds: []InstanceBind{{Instance: "car", Class: video.ClassCar}}},
	}}
	ex, _ := NewExecutor(Options{Env: testEnv(), Registry: models.BuiltinRegistry()})
	if _, err := ex.Run(p, v); err == nil || !strings.Contains(err.Error(), "not a binary filter") {
		t.Errorf("kind mismatch error = %v", err)
	}
}

// TestOrAcrossInstances exercises the non-conjunctive path: no frame
// dropping, full assignment evaluation.
func TestOrAcrossInstances(t *testing.T) {
	v := video.Auburn(6, 30).Generate()
	pt := core.NewVObj("Person", video.ClassPerson).Detector("person_detector")
	ct := core.NewVObj("Car", video.ClassCar).
		Detector("car_detector").
		StatelessModel("color", "color_detect", true)
	colorProp, _ := ct.Prop("color")
	q := core.NewQuery("PersonOrRedCar").
		Use("p", pt).Use("c", ct).
		Where(core.Or(
			core.P("p", core.PropScore).Gt(0.5),
			core.P("c", "color").Eq("red"),
		))
	p := &Plan{Query: q, Steps: []Step{
		{Kind: StepDetect, DetectModel: "person_detector", Binds: []InstanceBind{{Instance: "p", Class: video.ClassPerson}}},
		{Kind: StepTrack, Instance: "p"},
		{Kind: StepDetect, DetectModel: "car_detector", Binds: []InstanceBind{{Instance: "c", Class: video.ClassCar}}},
		{Kind: StepTrack, Instance: "c"},
		{Kind: StepProject, Instance: "c", Prop: colorProp},
	}}
	ex, _ := NewExecutor(Options{Env: testEnv(), Registry: models.BuiltinRegistry()})
	res, err := ex.Run(p, v)
	if err != nil {
		t.Fatal(err)
	}
	truth := v.FramesMatching(func(o video.Object) bool {
		return o.Class == video.ClassPerson ||
			(o.Class == video.ClassCar && o.Color == video.ColorRed)
	})
	if len(truth) > 0 && res.MatchedCount() == 0 {
		t.Error("Or query found nothing")
	}
	// Frames with only persons must match (Or with missing car side).
	personOnly := v.FramesMatching(func(o video.Object) bool { return o.Class == video.ClassPerson })
	matchedPersonOnly := 0
	for i, m := range res.Matched {
		if m && personOnly[i] {
			matchedPersonOnly++
		}
	}
	if matchedPersonOnly == 0 {
		t.Error("person-only frames never matched the Or")
	}
}

// TestStatefulRelationProperty covers the boxHistory path.
func TestStatefulRelationProperty(t *testing.T) {
	v := video.Auburn(7, 20).Generate()
	pt := core.NewVObj("Person", video.ClassPerson).Detector("person_detector")
	ct := core.NewVObj("Car", video.ClassCar).Detector("car_detector")
	rel := core.NewRelation("approach", core.RelSpatial, pt, ct)
	rel.AddProperty(&core.RelProperty{
		Name: "closing_speed", Stateful: true, HistoryLen: 2, CostHintMS: 0.05,
		Compute: func(in core.RelInput) (any, error) {
			if len(in.LeftHistory) < 2 || len(in.RightHistory) < 2 {
				return nil, core.ErrNotReady
			}
			dNow := geom.CenterDist(in.LeftHistory[len(in.LeftHistory)-1], in.RightHistory[len(in.RightHistory)-1])
			dPrev := geom.CenterDist(in.LeftHistory[0], in.RightHistory[0])
			return dPrev - dNow, nil
		},
	})
	prop, _ := rel.Prop("closing_speed")
	rb := &core.RelBinding{Rel: rel, LeftInst: "p", RightInst: "c"}
	q := core.NewQuery("Approaching").
		Use("p", pt).Use("c", ct).
		UseRelation("approach", rel, "p", "c").
		Where(core.RP("approach", "closing_speed").Gt(0))
	p := &Plan{Query: q, Steps: []Step{
		{Kind: StepDetect, DetectModel: "person_detector", Binds: []InstanceBind{{Instance: "p", Class: video.ClassPerson}}},
		{Kind: StepTrack, Instance: "p"},
		{Kind: StepDetect, DetectModel: "car_detector", Binds: []InstanceBind{{Instance: "c", Class: video.ClassCar}}},
		{Kind: StepTrack, Instance: "c"},
		{Kind: StepRelProject, Relation: "approach", RelBind: rb, RelProp: prop},
	}}
	ex, _ := NewExecutor(Options{Env: testEnv(), Registry: models.BuiltinRegistry()})
	res, err := ex.Run(p, v)
	if err != nil {
		t.Fatal(err)
	}
	_ = res // mechanics only: windows fill, no panic, edges evaluated
}

// TestRelProjectModelMismatch: a classifier used as a relation model
// must fail cleanly.
func TestRelProjectModelMismatch(t *testing.T) {
	v := video.VCOCO(8, 5).Generate()
	pt := core.NewVObj("Person", video.ClassPerson).Detector("person_detector")
	bt := core.NewVObj("Ball", video.ClassBall).Detector("yolox")
	rel := core.NewRelation("pb", core.RelSpatial, pt, bt).ModelProp("interaction", "color_detect")
	prop, _ := rel.Prop("interaction")
	rb := &core.RelBinding{Rel: rel, LeftInst: "p", RightInst: "b"}
	q := core.NewQuery("Bad").
		Use("p", pt).Use("b", bt).
		UseRelation("pb", rel, "p", "b").
		Where(core.RP("pb", "interaction").Eq("hit"))
	p := &Plan{Query: q, Steps: []Step{
		{Kind: StepDetect, DetectModel: "person_detector", Binds: []InstanceBind{{Instance: "p", Class: video.ClassPerson}}},
		{Kind: StepDetect, DetectModel: "yolox", Binds: []InstanceBind{{Instance: "b", Class: video.ClassBall}}},
		{Kind: StepRelProject, Relation: "pb", RelBind: rb, RelProp: prop},
	}}
	ex, _ := NewExecutor(Options{Env: testEnv(), Registry: models.BuiltinRegistry()})
	_, err := ex.Run(p, v)
	// The error fires only when both a person and a ball are detected
	// on one frame; V-COCO stills guarantee that quickly.
	if err == nil {
		t.Skip("no frame with both participants (scenario-dependent)")
	}
	if !strings.Contains(err.Error(), "cannot compute a relation property") {
		t.Errorf("mismatch error = %v", err)
	}
}

// TestHOIInteractionQuery runs the Figure 4 relation end to end.
func TestHOIInteractionQuery(t *testing.T) {
	v := video.VCOCO(9, 200).Generate()
	pt := core.NewVObj("Person", video.ClassPerson).Detector("yolox")
	bt := core.NewVObj("Ball", video.ClassBall).Detector("yolox")
	rel := core.NewRelation("pb", core.RelSpatial, pt, bt).ModelProp("interaction", "upt")
	prop, _ := rel.Prop("interaction")
	rb := &core.RelBinding{Rel: rel, LeftInst: "p", RightInst: "b"}
	q := core.NewQuery("Hitting").
		Use("p", pt).Use("b", bt).
		UseRelation("pb", rel, "p", "b").
		Where(core.RP("pb", "interaction").Eq("hit"))
	p := &Plan{Query: q, Steps: []Step{
		{Kind: StepDetect, DetectModel: "yolox", Binds: []InstanceBind{
			{Instance: "p", Class: video.ClassPerson}, {Instance: "b", Class: video.ClassBall},
		}},
		{Kind: StepTrack, Instance: "p"},
		{Kind: StepTrack, Instance: "b"},
		{Kind: StepRelProject, Relation: "pb", RelBind: rb, RelProp: prop},
		{Kind: StepRelFilter, Relation: "pb", RelPred: core.RP("pb", "interaction").Eq("hit")},
	}}
	ex, _ := NewExecutor(Options{Env: testEnv(), Registry: models.BuiltinRegistry()})
	res, err := ex.Run(p, v)
	if err != nil {
		t.Fatal(err)
	}
	truth := v.FramesMatching(func(o video.Object) bool { return o.HittingBall })
	if len(truth) == 0 {
		t.Skip("no interactions")
	}
	c := 0
	for i, m := range res.Matched {
		if m && truth[i] {
			c++
		}
	}
	if c == 0 {
		t.Error("no true interaction frames found")
	}
}
