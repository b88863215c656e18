package plan

import (
	"math"
	"reflect"
	"strings"
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

// batchDrivers are the four ways into the one batch driver (run.go).
var batchDrivers = []struct {
	name string
	run  func(pl *Planner, nodes []core.QueryNode, v *video.Video) ([]*RunResult, error)
}{
	{"Run", func(pl *Planner, nodes []core.QueryNode, v *video.Video) ([]*RunResult, error) {
		out := make([]*RunResult, len(nodes))
		for i, n := range nodes {
			r, err := pl.Run(n, v)
			if err != nil {
				return nil, err
			}
			out[i] = r
		}
		return out, nil
	}},
	{"RunAll/w=1", func(pl *Planner, nodes []core.QueryNode, v *video.Video) ([]*RunResult, error) {
		return pl.RunAll(nodes, v, 1)
	}},
	{"RunAll/w=4", func(pl *Planner, nodes []core.QueryNode, v *video.Video) ([]*RunResult, error) {
		return pl.RunAll(nodes, v, 4)
	}},
	{"RunShared", func(pl *Planner, nodes []core.QueryNode, v *video.Video) ([]*RunResult, error) {
		return pl.RunShared(nodes, v)
	}},
}

// driverNodes builds one node of every kind — basic (with a video-level
// aggregate), spatial, duration, temporal — fresh on every call, so
// result-cache hits are structural, not pointer identity.
func driverNodes(t *testing.T) []core.QueryNode {
	t.Helper()
	person := core.NewVObj("Person", video.ClassPerson).Detector("person_detector")
	car := core.NewVObj("Car", video.ClassCar).Detector("car_detector")
	red := redCarQuery(carType()).CountDistinct("car")
	near, err := core.NewSpatialQuery("PersonNearCar",
		core.NewQuery("P").Use("p", person).Where(core.P("p", core.PropScore).Gt(0.5)),
		core.NewQuery("C").Use("c", car).Where(core.P("c", core.PropScore).Gt(0.5)),
		core.DistanceRelation("near", person, car), core.RP("near", "distance").Lt(200))
	if err != nil {
		t.Fatal(err)
	}
	dur, err := core.NewDurationQuery("RedAWhile", redCarQuery(carType()), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := core.NewTemporalQuery("PersonThenRedCar",
		core.NewQuery("PersonSeen").Use("p", person).Where(core.P("p", core.PropScore).Gt(0.5)),
		core.NewQuery("RedCarSeen").Use("c", carType()).Where(core.P("c", "color").Eq("red")), 10)
	if err != nil {
		t.Fatal(err)
	}
	return []core.QueryNode{red, near, dur, seq}
}

// TestRunSharedMatchesRunAll is the driver equivalence table: {basic,
// spatial, duration, temporal} × {Run, RunAll at 1 and 4 workers,
// RunShared} × {no result cache, cold, warm} all produce the verdicts,
// events, hits and track ids of the plain per-query run; the ledger
// total does not depend on the worker count; and a warm result cache
// charges the clock nothing on every driver.
func TestRunSharedMatchesRunAll(t *testing.T) {
	v := video.Pickup(49, 30).Generate()
	ref, err := batchDrivers[0].run(testPlanner(t, nil), driverNodes(t), v)
	if err != nil {
		t.Fatal(err)
	}
	matched := 0
	for _, r := range ref {
		matched += r.MatchedCount()
	}
	if matched == 0 {
		t.Fatal("reference matched nothing; the table would compare empty results")
	}
	same := func(t *testing.T, got []*RunResult) {
		t.Helper()
		if len(got) != len(ref) {
			t.Fatalf("%d results, want %d", len(got), len(ref))
		}
		for i, want := range ref {
			g := got[i]
			if g.Name != want.Name || !reflect.DeepEqual(g.Matched, want.Matched) || !reflect.DeepEqual(g.Events, want.Events) {
				t.Errorf("%s: name/matched/events differ from the per-query run", want.Name)
			}
			if (g.Basic == nil) != (want.Basic == nil) {
				t.Fatalf("%s: basic result presence differs", want.Name)
			}
			if want.Basic != nil && (!reflect.DeepEqual(g.Basic.Hits, want.Basic.Hits) ||
				g.Basic.Count != want.Basic.Count || !reflect.DeepEqual(g.Basic.TrackIDs, want.Basic.TrackIDs)) {
				t.Errorf("%s: hits or aggregation differ from the per-query run", want.Name)
			}
		}
	}

	ledger := map[string]float64{}
	for _, d := range batchDrivers {
		t.Run(d.name+"/no-cache", func(t *testing.T) {
			pl := testPlanner(t, nil)
			got, err := d.run(pl, driverNodes(t), v)
			if err != nil {
				t.Fatal(err)
			}
			same(t, got)
			ledger[d.name] = pl.opts.Env.Clock.TotalMS()
		})
		t.Run(d.name+"/result-cache", func(t *testing.T) {
			rc := NewResultCache()
			pl := testPlanner(t, func(o *Options) { o.ResultCache = rc })
			cold, err := d.run(pl, driverNodes(t), v)
			if err != nil {
				t.Fatal(err)
			}
			same(t, cold)
			afterCold := pl.opts.Env.Clock.TotalMS()
			if math.Abs(afterCold-ledger[d.name]) > 1e-6 {
				t.Errorf("cold result cache changed the ledger: %.6f ms vs %.6f ms without", afterCold, ledger[d.name])
			}
			warm, err := d.run(pl, driverNodes(t), v)
			if err != nil {
				t.Fatal(err)
			}
			same(t, warm)
			if cost := pl.opts.Env.Clock.TotalMS(); cost != afterCold {
				t.Errorf("warm result cache charged the clock %g ms", cost-afterCold)
			}
			for i := range warm {
				if warm[i] != cold[i] {
					t.Errorf("%s: warm run did not return the materialized result", cold[i].Name)
				}
			}
			if hits, _ := rc.Stats(); hits != len(ref) {
				t.Errorf("result cache hits = %d, want %d", hits, len(ref))
			}
		})
	}
	if seq, par := ledger["RunAll/w=1"], ledger["RunAll/w=4"]; seq == 0 || math.Abs(seq-par) > 1e-6 {
		t.Errorf("ledger depends on the worker count: %.6f ms at 1 worker, %.6f ms at 4", seq, par)
	}
}

// TestDriversNameFailingQuery: a query that cannot run fails the whole
// call on every driver, with an error naming it.
func TestDriversNameFailingQuery(t *testing.T) {
	v := video.Pickup(49, 5).Generate()
	ghost := core.NewVObj("Ghost", video.ClassCar).Detector("no_such_model")
	for _, d := range batchDrivers {
		nodes := append(driverNodes(t), scoreQuery("Haunted", "g", ghost))
		_, err := d.run(testPlanner(t, nil), nodes, v)
		if err == nil || !strings.Contains(err.Error(), "Haunted") {
			t.Errorf("%s: err = %v, want one naming query Haunted", d.name, err)
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
