package exec

import (
	"reflect"
	"testing"

	"vqpy/internal/models"
	"vqpy/internal/video"
)

// TestStreamMatchesBatchRun pins the three spellings of per-query
// execution to one another: Executor.Run, a Stream fed by hand, and a
// private (non-shareable) lane of a MuxStream are the same lane stepped
// by the same code, so everything observable must agree — results and
// virtual cost.
func TestStreamMatchesBatchRun(t *testing.T) {
	v := video.CityFlow(70, 30).Generate()
	// plan builds the red-car plan afresh for each run; listing tracks
	// brings the video-level aggregation into the comparison.
	plan := func() *Plan {
		ct := carType()
		return manualPlan(redCarQuery(ct).ListTracks("car"), "car", ct)
	}

	exBatch, _ := NewExecutor(Options{Env: testEnv(), Registry: models.BuiltinRegistry()})
	batchRes, err := exBatch.Run(plan(), v)
	if err != nil {
		t.Fatal(err)
	}
	if batchRes.Count == 0 || batchRes.MatchedCount() == 0 {
		t.Fatalf("degenerate reference: %d tracks, %d matched frames", batchRes.Count, batchRes.MatchedCount())
	}

	exStream, _ := NewExecutor(Options{Env: testEnv(), Registry: models.BuiltinRegistry()})
	st, err := exStream.OpenStream(plan(), v.FPS)
	if err != nil {
		t.Fatal(err)
	}
	for i := range v.Frames {
		verdict, err := st.Feed(&v.Frames[i])
		if err != nil {
			t.Fatal(err)
		}
		if verdict.FrameIdx != i {
			t.Fatalf("verdict frame = %d, want %d", verdict.FrameIdx, i)
		}
		if verdict.Matched != batchRes.Matched[i] {
			t.Fatalf("stream diverged from batch at frame %d", i)
		}
		if verdict.Matched && verdict.Hit == nil {
			t.Fatalf("matched frame %d without hit", i)
		}
		if !verdict.Matched && verdict.Hit != nil {
			t.Fatalf("unmatched frame %d with hit", i)
		}
	}

	// An uplink cost makes the scan prefix non-shareable, so the mux runs
	// the whole plan inside a private lane; the uplink is only charged
	// after an edge-placed step, of which the plan has none.
	private := plan()
	private.UplinkMS = 1
	if ScanPrefixOf(private).Shareable {
		t.Fatal("plan with an uplink cost must not be shareable")
	}
	exMux, _ := NewExecutor(Options{Env: testEnv(), Registry: models.BuiltinRegistry()})
	muxRes, err := exMux.RunMux([]*Plan{private}, v)
	if err != nil {
		t.Fatal(err)
	}

	for name, got := range map[string]*Result{"stream": st.Close(), "private mux lane": muxRes[0]} {
		if !reflect.DeepEqual(got.Matched, batchRes.Matched) {
			t.Errorf("%s: matched vectors differ", name)
		}
		if !reflect.DeepEqual(got.Hits, batchRes.Hits) {
			t.Errorf("%s: hits differ", name)
		}
		if got.Count != batchRes.Count || !reflect.DeepEqual(got.TrackIDs, batchRes.TrackIDs) {
			t.Errorf("%s: aggregation differs: %d %v vs %d %v", name, got.Count, got.TrackIDs, batchRes.Count, batchRes.TrackIDs)
		}
		if !reflect.DeepEqual(got.DegradedAt, batchRes.DegradedAt) {
			t.Errorf("%s: degraded frames differ", name)
		}
		// A mux lane sums per-frame ledger deltas where a Stream takes one
		// delta over its lifetime: equal up to float summation order.
		if d := got.VirtualMS - batchRes.VirtualMS; d > 1e-6 || d < -1e-6 {
			t.Errorf("%s: costs differ: %.6f vs %.6f", name, got.VirtualMS, batchRes.VirtualMS)
		}
	}
}

func TestStreamCloseIdempotentAndFeedAfterClose(t *testing.T) {
	v := video.CityFlow(71, 5).Generate()
	ct := carType()
	q := redCarQuery(ct)
	ex, _ := NewExecutor(Options{Env: testEnv(), Registry: models.BuiltinRegistry()})
	st, err := ex.OpenStream(manualPlan(q, "car", ct), v.FPS)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Feed(&v.Frames[0]); err != nil {
		t.Fatal(err)
	}
	r1 := st.Close()
	r2 := st.Close()
	if r1 != r2 {
		t.Error("Close not idempotent")
	}
	if _, err := st.Feed(&v.Frames[1]); err == nil {
		t.Error("Feed after Close accepted")
	}
}

func TestStreamInvalidPlanRejected(t *testing.T) {
	ct := carType()
	q := redCarQuery(ct)
	ex, _ := NewExecutor(Options{Env: testEnv(), Registry: models.BuiltinRegistry()})
	bad := &Plan{Query: q, Steps: []Step{{Kind: StepTrack, Instance: "car"}}}
	if _, err := ex.OpenStream(bad, 10); err == nil {
		t.Error("invalid plan accepted")
	}
}

func TestStreamVideoAggregation(t *testing.T) {
	v := video.CityFlow(72, 60).Generate()
	ct := carType()
	colorProp, _ := ct.Prop("color")
	q := redCarQuery(ct).CountDistinct("car")
	p := &Plan{Query: q, Steps: []Step{
		{Kind: StepDetect, DetectModel: "yolox", Binds: []InstanceBind{{Instance: "car", Class: video.ClassCar}}},
		{Kind: StepTrack, Instance: "car"},
		{Kind: StepProject, Instance: "car", Prop: colorProp},
	}}
	ex, _ := NewExecutor(Options{Env: testEnv(), Registry: models.BuiltinRegistry()})
	st, err := ex.OpenStream(p, v.FPS)
	if err != nil {
		t.Fatal(err)
	}
	for i := range v.Frames {
		if _, err := st.Feed(&v.Frames[i]); err != nil {
			t.Fatal(err)
		}
	}
	res := st.Close()
	if res.Count == 0 {
		t.Error("streaming aggregation counted nothing")
	}
}
