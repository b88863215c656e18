package exec

import (
	"reflect"
	"sync"
	"testing"

	"vqpy/internal/core"
	"vqpy/internal/models"
	"vqpy/internal/video"
)

func dynamicMux(t *testing.T) *MuxStream {
	t.Helper()
	ex, err := NewExecutor(Options{Env: testEnv(), Registry: models.BuiltinRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	return ex.OpenDynamicMux(30)
}

// TestMuxAttachDetachLifecycle pins the group bookkeeping of the dynamic
// mux: attaching joins or creates scan groups, detaching tears down the
// class tracker when its last user leaves and the group when its last
// member leaves, and a dynamic stream accepts frames with no lanes at
// all.
func TestMuxAttachDetachLifecycle(t *testing.T) {
	v := video.CityFlow(5, 5).Generate()
	m := dynamicMux(t)

	// Feeding an empty stream is legal and does no work.
	if verdicts, err := m.Feed(&v.Frames[0]); err != nil || len(verdicts) != 0 {
		t.Fatalf("empty Feed = %v, %v", verdicts, err)
	}

	ct := carType()
	a, err := m.Attach(manualPlan(redCarQuery(ct), "car", ct))
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Attach(manualPlan(redCarQuery(ct), "car", ct))
	if err != nil {
		t.Fatal(err)
	}
	filtered := manualPlan(redCarQuery(ct), "car", ct)
	filtered.Steps = append([]Step{{Kind: StepFrameFilter, FilterModel: "motion_diff"}}, filtered.Steps...)
	c, err := m.Attach(filtered)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.GroupMembers(); !reflect.DeepEqual(got, []int{2, 1}) {
		t.Fatalf("group members = %v, want [2 1]", got)
	}

	// A second class under the first group: one group, two trackers.
	pt := core.NewVObj("Ped", video.ClassPerson).Detector("yolox")
	pq := core.NewQuery("Peds").Use("p", pt).Where(core.P("p", core.PropScore).Gt(0.5))
	d, err := m.Attach(&Plan{Query: pq, Steps: []Step{
		{Kind: StepDetect, DetectModel: "yolox", Binds: []InstanceBind{{Instance: "p", Class: video.ClassPerson}}},
		{Kind: StepTrack, Instance: "p"},
	}, Label: "manual"})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.GroupMembers(); !reflect.DeepEqual(got, []int{3, 1}) {
		t.Fatalf("group members = %v, want [3 1]", got)
	}
	if len(m.groups[0].classes) != 2 {
		t.Fatalf("classes = %v, want 2 entries", m.groups[0].classes)
	}

	if verdicts, err := m.Feed(&v.Frames[1]); err != nil || len(verdicts) != 4 {
		t.Fatalf("Feed = %d verdicts, %v; want 4", len(verdicts), err)
	}

	// Detaching the only person lane tears down its tracker but not the
	// group.
	if _, err := m.Detach(d); err != nil {
		t.Fatal(err)
	}
	if len(m.groups[0].classes) != 1 || m.groups[0].members != 2 {
		t.Fatalf("after class teardown: classes=%v members=%d", m.groups[0].classes, m.groups[0].members)
	}
	// Detaching the last member of the filtered group removes the group.
	if _, err := m.Detach(c); err != nil {
		t.Fatal(err)
	}
	if got := m.GroupMembers(); !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("group members = %v, want [2]", got)
	}

	if _, err := m.Detach(c); err == nil {
		t.Fatal("double Detach accepted")
	}
	res, err := m.Detach(a)
	if err != nil {
		t.Fatal(err)
	}
	if res.FramesProcessed != 1 {
		t.Errorf("detached lane processed %d frames, want 1", res.FramesProcessed)
	}

	out := m.Close()
	if len(out) != 1 || out[0].Query != "RedCar" {
		t.Fatalf("Close returned %d results", len(out))
	}
	if _, err := m.Attach(manualPlan(redCarQuery(ct), "car", ct)); err == nil {
		t.Fatal("Attach after Close accepted")
	}
	if _, err := m.Detach(b); err == nil {
		t.Fatal("Detach after Close accepted")
	}
}

// TestMuxChurnDoesNotPerturbSiblings is the exec-level detach contract:
// lanes present for the whole stream must produce results bit-identical
// to a fresh mux of only those lanes, however other queries attach and
// detach around them.
func TestMuxChurnDoesNotPerturbSiblings(t *testing.T) {
	v := video.CityFlow(42, 30).Generate()
	n := len(v.Frames)

	// Reference: survivors only, full stream, fresh mux.
	refPlans := poolPlans(t, 2)
	refEnv := testEnv()
	ex, err := NewExecutor(Options{Env: refEnv, Registry: models.BuiltinRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := ex.RunMux(refPlans, v)
	if err != nil {
		t.Fatal(err)
	}

	// Churned run: the same two survivors plus a same-group joiner, a
	// new-group joiner and a new-class joiner that all come and go.
	plans := poolPlans(t, 3)
	exd, err := NewExecutor(Options{Env: testEnv(), Registry: models.BuiltinRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	m := exd.OpenDynamicMux(v.FPS)
	ids := make([]int, 2)
	for i := 0; i < 2; i++ {
		if ids[i], err = m.Attach(plans[i]); err != nil {
			t.Fatal(err)
		}
	}
	churner := -1
	filtered := -1
	peds := -1
	for i := 0; i < n; i++ {
		switch i {
		case n / 4: // joins the survivors' scan group mid-stream
			if churner, err = m.Attach(plans[2]); err != nil {
				t.Fatal(err)
			}
		case n / 3: // private filter chain: a second group appears
			ct := carType()
			fp := manualPlan(redCarQuery(ct), "car", ct)
			fp.Steps = append([]Step{{Kind: StepFrameFilter, FilterModel: "motion_diff"}}, fp.Steps...)
			if filtered, err = m.Attach(fp); err != nil {
				t.Fatal(err)
			}
		case n / 2: // new class under the survivors' group
			pt := core.NewVObj("Ped", video.ClassPerson).Detector("yolox")
			pq := core.NewQuery("Peds").Use("p", pt).Where(core.P("p", core.PropScore).Gt(0.4))
			pp := &Plan{Query: pq, Steps: []Step{
				{Kind: StepDetect, DetectModel: "yolox", Binds: []InstanceBind{{Instance: "p", Class: video.ClassPerson}}},
				{Kind: StepTrack, Instance: "p"},
			}, Label: "manual"}
			if peds, err = m.Attach(pp); err != nil {
				t.Fatal(err)
			}
		case 2 * n / 3:
			if _, err := m.Detach(churner); err != nil {
				t.Fatal(err)
			}
			if _, err := m.Detach(peds); err != nil {
				t.Fatal(err)
			}
		case 3 * n / 4:
			if _, err := m.Detach(filtered); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := m.Feed(&v.Frames[i]); err != nil {
			t.Fatal(err)
		}
	}
	out := m.Close()
	if len(out) != 2 {
		t.Fatalf("Close returned %d results, want 2", len(out))
	}
	for i := range ref {
		if !reflect.DeepEqual(ref[i].Matched, out[i].Matched) {
			t.Errorf("survivor %d: matched vectors differ", i)
		}
		if !reflect.DeepEqual(ref[i].Hits, out[i].Hits) {
			t.Errorf("survivor %d: hits differ", i)
		}
		if ref[i].Count != out[i].Count || !reflect.DeepEqual(ref[i].TrackIDs, out[i].TrackIDs) {
			t.Errorf("survivor %d: aggregation differs", i)
		}
		if ref[i].MemoHits != out[i].MemoHits || ref[i].MemoMisses != out[i].MemoMisses {
			t.Errorf("survivor %d: memo stats differ", i)
		}
	}
}

// TestMuxSnapshot checks the live read path: a snapshot taken mid-stream
// must be a strict prefix of the final result and must not finalize the
// lane.
func TestMuxSnapshot(t *testing.T) {
	v := video.CityFlow(9, 15).Generate()
	ct := carType()
	m := dynamicMux(t)
	id, err := m.Attach(manualPlan(redCarQuery(ct), "car", ct))
	if err != nil {
		t.Fatal(err)
	}
	half := len(v.Frames) / 2
	for i := 0; i < half; i++ {
		if _, err := m.Feed(&v.Frames[i]); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := m.Snapshot(id)
	if err != nil {
		t.Fatal(err)
	}
	if snap.FramesProcessed != half {
		t.Fatalf("snapshot frames = %d, want %d", snap.FramesProcessed, half)
	}
	if _, err := m.Snapshot(99); err == nil {
		t.Fatal("Snapshot of unknown lane accepted")
	}
	for i := half; i < len(v.Frames); i++ {
		if _, err := m.Feed(&v.Frames[i]); err != nil {
			t.Fatal(err)
		}
	}
	final := m.Close()[0]
	if !reflect.DeepEqual(final.Matched[:half], snap.Matched) {
		t.Error("snapshot matched vector is not a prefix of the final result")
	}
	if len(snap.Hits) > len(final.Hits) {
		t.Error("snapshot has more hits than the final result")
	}
}

// TestMuxConcurrentAttachDetachDuringFeed drives Attach/Detach from
// several goroutines while the main goroutine feeds frames — the live
// serving access pattern, exercised under -race by CI.
func TestMuxConcurrentAttachDetachDuringFeed(t *testing.T) {
	v := video.CityFlow(3, 20).Generate()
	m := dynamicMux(t)
	ct := carType()
	if _, err := m.Attach(manualPlan(redCarQuery(ct), "car", ct)); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ctw := carType()
				id, err := m.Attach(manualPlan(redCarQuery(ctw), "car", ctw))
				if err != nil {
					t.Errorf("Attach: %v", err)
					return
				}
				if _, err := m.Snapshot(id); err != nil {
					t.Errorf("Snapshot: %v", err)
					return
				}
				if _, err := m.Detach(id); err != nil {
					t.Errorf("Detach: %v", err)
					return
				}
			}
		}()
	}
	for round := 0; round < 4; round++ {
		for i := range v.Frames {
			if _, err := m.Feed(&v.Frames[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	if got := m.Lanes(); got != 1 {
		t.Errorf("lanes after churn = %d, want 1", got)
	}
	res := m.Close()
	if len(res) != 1 || res[0].FramesProcessed != 4*len(v.Frames) {
		t.Errorf("survivor processed %d frames", res[0].FramesProcessed)
	}
}
