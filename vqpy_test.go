package vqpy_test

import (
	"strings"
	"testing"

	"vqpy"

	"vqpy/internal/models"
	"vqpy/internal/video"
)

func newTestSession(seed uint64) *vqpy.Session {
	s := vqpy.NewSession(seed)
	s.SetNoBurn(true)
	return s
}

func TestQuickstartFlow(t *testing.T) {
	s := newTestSession(42)
	v := vqpy.GenerateVideo(vqpy.DatasetCityFlow(42, 30))
	q := vqpy.NewQuery("RedCar").
		Use("car", vqpy.Car()).
		Where(vqpy.And(
			vqpy.P("car", vqpy.PropScore).Gt(0.6),
			vqpy.P("car", "color").Eq("red"),
		)).
		FrameOutput(vqpy.Sel("car", vqpy.PropTrackID), vqpy.Sel("car", "plate"))
	res, err := s.Execute(q, v)
	if err != nil {
		t.Fatal(err)
	}
	if res.MatchedCount() == 0 {
		t.Error("no red cars found")
	}
	if res.VirtualMS <= 0 || s.Clock().TotalMS() <= 0 {
		t.Error("no cost accounted")
	}
}

func TestLibraryVObjsValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		t    *vqpy.VObjType
	}{
		{"Car", vqpy.Car()},
		{"Bus", vqpy.Bus()},
		{"RedCar", vqpy.RedCar()},
		{"Person", vqpy.Person()},
		{"Ball", vqpy.Ball()},
		{"SuspectPerson", vqpy.SuspectPerson(make([]float64, 16), 10)},
	} {
		if err := tc.t.Validate(); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}

func TestLibrarySpeedQuery(t *testing.T) {
	s := newTestSession(43)
	sc := vqpy.DatasetSouthampton(43, 20)
	sc.SpeederFrac = 0.4
	v := vqpy.GenerateVideo(sc)
	q := vqpy.SpeedQuery("Speeding", "car", vqpy.Car(), 12)
	res, err := s.Execute(q, v)
	if err != nil {
		t.Fatal(err)
	}
	if res.MatchedCount() == 0 {
		t.Error("no speeders found")
	}
}

func TestLibraryCollisionQuery(t *testing.T) {
	s := newTestSession(44)
	v := vqpy.GenerateVideo(vqpy.DatasetPickup(44, 40))
	sq, err := vqpy.CollisionQuery("Collision", vqpy.Car(), vqpy.Person(), 100)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Execute(sq, v)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matched) == 0 {
		t.Error("collision query processed no frames")
	}
}

func TestOptionsCompose(t *testing.T) {
	s := newTestSession(45)
	v := vqpy.GenerateVideo(vqpy.DatasetCityFlow(45, 20))
	q := vqpy.NewQuery("RedCar").
		Use("car", vqpy.Car()).
		Where(vqpy.P("car", "color").Eq("red"))
	res, err := s.Execute(q, v,
		vqpy.WithAccuracyTarget(0.8),
		vqpy.WithCanaryFrames(10),
		vqpy.WithoutMemo(),
		vqpy.WithoutFrameFilters(),
		vqpy.WithoutSpecialized(),
		vqpy.WithoutFusion(),
		vqpy.WithoutLazy(),
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Basic.MemoHits != 0 {
		t.Error("WithoutMemo leaked memoization")
	}
}

func TestSharedCacheOption(t *testing.T) {
	s := newTestSession(46)
	v := vqpy.GenerateVideo(vqpy.DatasetCityFlow(46, 20))
	cache := vqpy.NewSharedCache()
	q := func(name string) *vqpy.Query {
		return vqpy.NewQuery(name).
			Use("car", vqpy.Car()).
			Where(vqpy.P("car", "color").Eq("red"))
	}
	if _, err := s.Execute(q("A"), v, vqpy.WithSharedCache(cache)); err != nil {
		t.Fatal(err)
	}
	before := s.Clock().Account("yolox")
	if _, err := s.Execute(q("B"), v, vqpy.WithSharedCache(cache)); err != nil {
		t.Fatal(err)
	}
	if after := s.Clock().Account("yolox"); after != before {
		t.Errorf("shared cache did not prevent re-detection: %.0f -> %.0f", before, after)
	}
}

func TestPlanCacheOption(t *testing.T) {
	s := newTestSession(47)
	v := vqpy.GenerateVideo(vqpy.DatasetCityFlow(47, 20))
	pc := vqpy.NewPlanCache()
	q := vqpy.NewQuery("RedCar").
		Use("car", vqpy.RedCar()).
		Where(vqpy.P("car", "color").Eq("red"))
	p1, _, err := s.Explain(q, v, vqpy.WithPlanCache(pc))
	if err != nil {
		t.Fatal(err)
	}
	p2, _, err := s.Explain(q, v, vqpy.WithPlanCache(pc))
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("plan cache miss on identical query")
	}
}

func TestRegisterModel(t *testing.T) {
	s := newTestSession(48)
	err := s.RegisterModel(models.Profile{
		Name: "my_red_car", Task: models.TaskDetect,
		CostMS: 4, Classes: []video.Class{video.ClassCar},
		ColorFilter: video.ColorRed, MissRate: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Registry().Detector("my_red_car"); err != nil {
		t.Errorf("registered model not usable: %v", err)
	}
	if err := s.RegisterModel(models.Profile{}); err == nil {
		t.Error("empty profile accepted")
	}
	if err := s.RegisterModel(models.Profile{Name: "x", Task: models.Task(99)}); err == nil {
		t.Error("unknown task accepted")
	}
}

func TestCustomSpecializedNNFlow(t *testing.T) {
	// The full Figure 11 workflow: register a user model, attach it to
	// a VObj, and verify the planner considers it.
	s := newTestSession(49)
	if err := s.RegisterModel(models.Profile{
		Name: "my_red_car", Task: models.TaskDetect,
		CostMS: 4, Classes: []video.Class{video.ClassCar},
		ColorFilter: video.ColorRed, MissRate: 0.08, JitterPx: 3,
	}); err != nil {
		t.Fatal(err)
	}
	car := vqpy.Car().Extend("MyRedCar").RegisterSpecializedNN("my_red_car")
	q := vqpy.NewQuery("MyRedCarQuery").
		Use("car", car).
		Where(vqpy.P("car", "color").Eq("red"))
	v := vqpy.GenerateVideo(vqpy.DatasetCityFlow(49, 30))
	_, all, err := s.Explain(q, v, vqpy.WithAccuracyTarget(0.7))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range all {
		if strings.Contains(p.String(), "my_red_car") {
			found = true
		}
	}
	if !found {
		t.Error("user specialized NN not considered by planner")
	}
}

func TestHigherOrderThroughFacade(t *testing.T) {
	s := newTestSession(50)
	v := vqpy.GenerateVideo(vqpy.DatasetRetail(50, 60))
	base := vqpy.NewQuery("P").
		Use("p", vqpy.Person()).
		Where(vqpy.P("p", vqpy.PropScore).Gt(0.5))
	dur, err := vqpy.NewDurationQuery("Loiter", base, 10)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Execute(dur, v)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range res.Events {
		if ev.Frames() < 10*res.FPS {
			t.Errorf("event %v shorter than 10s", ev)
		}
	}
}

func TestDeterministicAcrossSessions(t *testing.T) {
	run := func() (int, float64) {
		s := newTestSession(51)
		v := vqpy.GenerateVideo(vqpy.DatasetCityFlow(51, 20))
		q := vqpy.NewQuery("RedCar").
			Use("car", vqpy.Car()).
			Where(vqpy.P("car", "color").Eq("red"))
		res, err := s.Execute(q, v)
		if err != nil {
			t.Fatal(err)
		}
		return res.MatchedCount(), res.VirtualMS
	}
	c1, ms1 := run()
	c2, ms2 := run()
	if c1 != c2 || ms1 != ms2 {
		t.Errorf("non-deterministic: (%d, %.1f) vs (%d, %.1f)", c1, ms1, c2, ms2)
	}
}

func TestVideoConstraintThroughFacade(t *testing.T) {
	// Figure 7: count vehicles turning right over the whole video.
	s := newTestSession(52)
	v := vqpy.GenerateVideo(vqpy.DatasetCityFlow(52, 60))
	q := vqpy.NewQuery("RightTurnFlow").
		Use("car", vqpy.Car()).
		VideoWhere(vqpy.P("car", "direction").Eq("right")).
		CountDistinct("car")
	res, err := s.Execute(q, v)
	if err != nil {
		t.Fatal(err)
	}
	truth := 0
	gtv := vqpy.DatasetCityFlow(52, 60).Generate()
	truth = gtv.GroundTruthCount(func(o video.Object) bool {
		return o.IsVehicle() && o.Dir.String() == "right"
	})
	if truth > 0 && res.Basic.Count == 0 {
		t.Error("no right turns counted")
	}
	t.Logf("counted %d right-turning vehicles (ground truth %d)", res.Basic.Count, truth)
}
