package plan

import (
	"reflect"
	"testing"

	"vqpy/internal/core"
	"vqpy/internal/exec"
	"vqpy/internal/models"
	"vqpy/internal/video"
)

// compileLeaves compiles every node without a canary (deterministic
// most-general plans) and returns the flattened basic pipelines.
func compileLeaves(t *testing.T, pl *Planner, nodes ...core.QueryNode) []*BasicIR {
	t.Helper()
	var leaves []*BasicIR
	for _, n := range nodes {
		ir, err := pl.CompileNode(n, nil)
		if err != nil {
			t.Fatal(err)
		}
		leaves = ir.Leaves(leaves)
	}
	return leaves
}

func scoreQuery(name, inst string, ct *core.VObjType) *core.Query {
	return core.NewQuery(name).
		Use(inst, ct).
		Where(core.P(inst, core.PropScore).Gt(0.5))
}

// muxOver opens a shared-scan mux over the compiled pipelines — the one
// place scan prefixes are grouped.
func muxOver(t *testing.T, leaves []*BasicIR) *exec.MuxStream {
	t.Helper()
	plans := make([]*exec.Plan, len(leaves))
	for i, leaf := range leaves {
		plans[i] = leaf.Plan
	}
	ex, err := exec.NewExecutor(exec.Options{Env: testEnv(), Registry: models.BuiltinRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	m, err := ex.OpenMux(plans, 30)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// TestDedupScans is the cross-query optimizer contract: structurally
// identical scan prefixes merge into one Detect node; differing frame
// filters or detectors keep scans apart.
func TestDedupScans(t *testing.T) {
	personType := func() *core.VObjType {
		return core.NewVObj("Person", video.ClassPerson).Detector("yolox")
	}
	diffCar := func() *core.VObjType {
		return carType().Extend("DiffCar").RegisterFrameFilter("motion_diff", 1)
	}
	cheapCar := func() *core.VObjType {
		return core.NewVObj("CheapCar", video.ClassCar).Detector("yolov5s")
	}

	cases := []struct {
		name    string
		nodes   func() []core.QueryNode
		members []int // queries per scan group, workload order
	}{
		{
			name: "same detector merges",
			nodes: func() []core.QueryNode {
				return []core.QueryNode{
					scoreQuery("A", "car", carType()),
					scoreQuery("B", "car", carType()),
				}
			},
			members: []int{2},
		},
		{
			name: "differing frame filters prevent merging",
			nodes: func() []core.QueryNode {
				return []core.QueryNode{
					scoreQuery("Plain", "car", carType()),
					scoreQuery("Diffed", "car", diffCar()),
				}
			},
			members: []int{1, 1},
		},
		{
			name: "identical frame filters merge",
			nodes: func() []core.QueryNode {
				return []core.QueryNode{
					scoreQuery("DiffA", "car", diffCar()),
					scoreQuery("DiffB", "car", diffCar()),
				}
			},
			members: []int{2},
		},
		{
			name: "different detectors stay apart",
			nodes: func() []core.QueryNode {
				return []core.QueryNode{
					scoreQuery("Strong", "car", carType()),
					scoreQuery("Cheap", "car", cheapCar()),
				}
			},
			members: []int{1, 1},
		},
		{
			name: "different classes of one detector share the scan",
			nodes: func() []core.QueryNode {
				return []core.QueryNode{
					scoreQuery("Cars", "car", carType()),
					scoreQuery("People", "p", personType()),
				}
			},
			members: []int{2},
		},
		{
			name: "combinator leaves participate",
			nodes: func() []core.QueryNode {
				dur, _ := core.NewDurationQuery("Long", scoreQuery("Base", "car", carType()), 2)
				return []core.QueryNode{
					scoreQuery("Plain", "car", carType()),
					dur,
				}
			},
			members: []int{2},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pl := testPlanner(t, nil)
			m := muxOver(t, compileLeaves(t, pl, tc.nodes()...))
			if got := m.GroupMembers(); !reflect.DeepEqual(got, tc.members) {
				t.Errorf("group members = %v, want %v: %v", got, tc.members, m.Groups())
			}
		})
	}
}

// TestDedupScansClasses checks that one shared scan tracks each bound
// class exactly once.
func TestDedupScansClasses(t *testing.T) {
	pl := testPlanner(t, nil)
	personType := core.NewVObj("Person", video.ClassPerson).Detector("yolox")
	m := muxOver(t, compileLeaves(t, pl,
		scoreQuery("Cars", "car", carType()),
		scoreQuery("People", "p", personType),
		scoreQuery("MoreCars", "car", carType()),
	))
	want := []string{"scan[] → detect(yolox) → track(car,person) ×3"}
	if got := m.Groups(); !reflect.DeepEqual(got, want) {
		t.Errorf("groups = %q, want %q", got, want)
	}
}

// TestRunSharedMatchesRunAll checks the full plan-level path: compile →
// dedup → mux produces results identical to the sequential per-query
// strategy, including through event combinators.
func TestRunSharedMatchesRunAll(t *testing.T) {
	v := video.CityFlow(42, 30).Generate()

	build := func() []core.QueryNode {
		red := redCarQuery(carType())
		blue := core.NewQuery("BlueCar").
			Use("car", carType()).
			Where(core.And(
				core.P("car", core.PropScore).Gt(0.5),
				core.P("car", "color").Eq("blue"),
			)).
			CountDistinct("car")
		dur, err := core.NewDurationQuery("RedAWhile", redCarQuery(carType()), 0.5)
		if err != nil {
			t.Fatal(err)
		}
		return []core.QueryNode{red, blue, dur}
	}

	seqPl := testPlanner(t, nil)
	seq, err := seqPl.RunAll(build(), v, 1)
	if err != nil {
		t.Fatal(err)
	}
	sharedPl := testPlanner(t, nil)
	shared, err := sharedPl.RunShared(build(), v)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(shared) {
		t.Fatalf("%d vs %d results", len(seq), len(shared))
	}
	for i := range seq {
		if !reflect.DeepEqual(seq[i].Matched, shared[i].Matched) {
			t.Errorf("query %d (%s): matched differs", i, seq[i].Name)
		}
		if !reflect.DeepEqual(seq[i].Events, shared[i].Events) {
			t.Errorf("query %d (%s): events differ", i, seq[i].Name)
		}
		sb, hb := seq[i].Basic, shared[i].Basic
		if (sb == nil) != (hb == nil) {
			t.Fatalf("query %d: basic result presence differs", i)
		}
		if sb != nil {
			if !reflect.DeepEqual(sb.Hits, hb.Hits) {
				t.Errorf("query %d (%s): hits differ", i, seq[i].Name)
			}
			if sb.Count != hb.Count || !reflect.DeepEqual(sb.TrackIDs, hb.TrackIDs) {
				t.Errorf("query %d (%s): aggregation differs", i, seq[i].Name)
			}
		}
	}
}

// TestRunSharedScenarioSource runs the shared path against the lazily
// materializing scenario source.
func TestRunSharedScenarioSource(t *testing.T) {
	src := video.NewScenarioSource(video.CityFlow(42, 20))
	pl := testPlanner(t, nil)
	res, err := pl.RunShared([]core.QueryNode{redCarQuery(carType())}, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || len(res[0].Matched) != src.NumFrames() {
		t.Fatalf("unexpected result shape: %d results", len(res))
	}
	// Same query over the materialized video must agree.
	pl2 := testPlanner(t, nil)
	direct, err := pl2.Run(redCarQuery(carType()), src.Video())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct.Matched, res[0].Matched) {
		t.Error("scenario source and materialized video disagree")
	}
}
