package exec

import (
	"reflect"
	"sync"
	"testing"

	"vqpy/internal/models"
	"vqpy/internal/store"
	"vqpy/internal/video"
)

// perQueryReference runs every plan on its own Stream, one after the
// other, sharing one cache — the reference every other execution
// strategy must reproduce.
func perQueryReference(t *testing.T, plans []*Plan, v *video.Video) ([]*Result, *models.Env) {
	t.Helper()
	env := testEnv()
	ex, err := NewExecutor(Options{Env: env, Registry: models.BuiltinRegistry(), Cache: NewSharedCache()})
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*Result, len(plans))
	for i, p := range plans {
		if results[i], err = ex.Run(p, v); err != nil {
			t.Fatal(err)
		}
	}
	return results, env
}

// storeExecutor returns an executor on a fresh environment bound to st
// under the video's source name.
func storeExecutor(t *testing.T, st *store.Store, v *video.Video) *Executor {
	t.Helper()
	ex, err := NewExecutor(Options{
		Env: testEnv(), Registry: models.BuiltinRegistry(), Cache: NewSharedCache(),
		Store: st, StoreSource: v.SourceName(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return ex
}

// TestMuxMatchesPerQuery is the shared-scan correctness contract: the
// MuxStream's per-query results must be identical to running every plan
// sequentially on its own stream — however the lanes come by their
// frames: fed live, backfilled from the archive mid-stream, or replayed
// from it by the index-verify and fidelity drivers.
func TestMuxMatchesPerQuery(t *testing.T) {
	v := video.CityFlow(42, 40).Generate()
	n := len(v.Frames)
	ref, refEnv := perQueryReference(t, poolPlans(t, 8), v)

	// archive returns a store holding the full-fidelity scan of v under
	// the plans' (single) scan group.
	archive := func(t *testing.T) *store.Store {
		t.Helper()
		st, err := store.Open(t.TempDir(), store.Meta{Seed: 42}, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		if _, err := storeExecutor(t, st, v).RunMux(poolPlans(t, 1), v); err != nil {
			t.Fatal(err)
		}
		return st
	}

	cases := []struct {
		name string
		run  func(t *testing.T, plans []*Plan) []*Result
	}{
		{"live", func(t *testing.T, plans []*Plan) []*Result {
			env := testEnv()
			ex, err := NewExecutor(Options{Env: env, Registry: models.BuiltinRegistry(), Cache: NewSharedCache()})
			if err != nil {
				t.Fatal(err)
			}
			res, err := ex.RunMux(plans, v)
			if err != nil {
				t.Fatal(err)
			}
			// The shared scan runs detect and track once per frame for the
			// whole 8-query group; the per-query path tracks once per query
			// per frame.
			frames := int64(n)
			if got := env.Clock.Invocations("yolox"); got != frames {
				t.Errorf("mux detector invocations = %d, want %d", got, frames)
			}
			if got := env.Clock.Invocations("tracker"); got != frames {
				t.Errorf("mux tracker invocations = %d, want %d", got, frames)
			}
			if got := refEnv.Clock.Invocations("tracker"); got != 8*frames {
				t.Errorf("sequential tracker invocations = %d, want %d", got, 8*frames)
			}
			return res
		}},
		{"backfill at frame k", func(t *testing.T, plans []*Plan) []*Result {
			const k = 17
			st, err := store.Open(t.TempDir(), store.Meta{Seed: 42}, store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { st.Close() })
			m, err := storeExecutor(t, st, v).OpenMux(plans[:1], v.FPS)
			if err != nil {
				t.Fatal(err)
			}
			m.BindStore(st, v)
			if err := m.FeedRange(v, 0, k, 1); err != nil {
				t.Fatal(err)
			}
			for _, p := range plans[1:] {
				if _, err := m.AttachBackfill(p); err != nil {
					t.Fatal(err)
				}
			}
			if err := m.FeedRange(v, k, n, 1); err != nil {
				t.Fatal(err)
			}
			return m.Close()
		}},
		{"index verify, every frame a candidate", func(t *testing.T, plans []*Plan) []*Result {
			st := archive(t)
			all := make([]int, n)
			for i := range all {
				all[i] = i
			}
			res := make([]*Result, len(plans))
			for i, p := range plans {
				var err error
				if res[i], err = storeExecutor(t, st, v).RunIndexVerify(p, v, all, n, n); err != nil {
					t.Fatal(err)
				}
			}
			return res
		}},
		{"index verify, half covered", func(t *testing.T, plans []*Plan) []*Result {
			st := archive(t)
			half := make([]int, n/2)
			for i := range half {
				half[i] = i
			}
			res := make([]*Result, len(plans))
			for i, p := range plans {
				var err error
				if res[i], err = storeExecutor(t, st, v).RunIndexVerify(p, v, half, n/2, n); err != nil {
					t.Fatal(err)
				}
			}
			return res
		}},
		{"fidelity replay, stride 1", func(t *testing.T, plans []*Plan) []*Result {
			st := archive(t)
			res := make([]*Result, len(plans))
			for i, p := range plans {
				sig := ScanPrefixOf(p)
				r, stats, err := storeExecutor(t, st, v).RunFidelityReplay(p, v, sig.Key(), sig.Detect, 1, n, n)
				if err != nil {
					t.Fatal(err)
				}
				if stats.ReplayedFrames != n || stats.DegradedFrames != 0 || stats.ResidualFrames != 0 {
					t.Errorf("query %d: replay stats = %+v, want %d archive-served frames", i, stats, n)
				}
				res[i] = r
			}
			return res
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.run(t, poolPlans(t, 8))
			if len(got) != len(ref) {
				t.Fatalf("%d vs %d results", len(ref), len(got))
			}
			for i := range ref {
				if !reflect.DeepEqual(ref[i].Matched, got[i].Matched) {
					t.Errorf("query %d: matched vectors differ", i)
				}
				if !reflect.DeepEqual(ref[i].Hits, got[i].Hits) {
					t.Errorf("query %d: hits differ", i)
				}
				if ref[i].Count != got[i].Count || !reflect.DeepEqual(ref[i].TrackIDs, got[i].TrackIDs) {
					t.Errorf("query %d: aggregation differs", i)
				}
				if ref[i].MemoHits != got[i].MemoHits || ref[i].MemoMisses != got[i].MemoMisses {
					t.Errorf("query %d: memo stats differ (%d/%d vs %d/%d)", i,
						ref[i].MemoHits, ref[i].MemoMisses, got[i].MemoHits, got[i].MemoMisses)
				}
			}
		})
	}
}

// TestMuxScanGrouping checks the group structure the mux builds from
// plan scan prefixes: same detector → one group; a differing frame-
// filter chain → separate groups; different classes of one detector →
// one group with two trackers.
func TestMuxScanGrouping(t *testing.T) {
	ct := carType()
	plain1 := manualPlan(redCarQuery(ct), "car", ct)
	plain2 := manualPlan(redCarQuery(ct), "car", ct)

	filtered := manualPlan(redCarQuery(ct), "car", ct)
	filtered.Steps = append([]Step{{Kind: StepFrameFilter, FilterModel: "motion_diff"}}, filtered.Steps...)

	ex, err := NewExecutor(Options{Env: testEnv(), Registry: models.BuiltinRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	m, err := ex.OpenMux([]*Plan{plain1, plain2, filtered}, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.groups) != 2 {
		t.Fatalf("groups = %d, want 2: %v", len(m.groups), m.Groups())
	}
	if m.groups[0].members != 2 || m.groups[1].members != 1 {
		t.Errorf("group members = %d/%d, want 2/1", m.groups[0].members, m.groups[1].members)
	}
}

// TestMuxSharedRasterAndVerdicts feeds frames incrementally and checks
// verdict alignment plus Close idempotence.
func TestMuxSharedRasterAndVerdicts(t *testing.T) {
	v := video.CityFlow(7, 10).Generate()
	ct := carType()
	plans := []*Plan{
		manualPlan(redCarQuery(ct), "car", ct),
		manualPlan(redCarQuery(ct), "car", ct),
	}
	ex, err := NewExecutor(Options{Env: testEnv(), Registry: models.BuiltinRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	m, err := ex.OpenMux(plans, v.FPS)
	if err != nil {
		t.Fatal(err)
	}
	for i := range v.Frames {
		verdicts, err := m.Feed(&v.Frames[i])
		if err != nil {
			t.Fatal(err)
		}
		if len(verdicts) != 2 {
			t.Fatalf("frame %d: %d verdicts", i, len(verdicts))
		}
		if verdicts[0].Matched != verdicts[1].Matched {
			t.Errorf("frame %d: identical lanes disagree", i)
		}
	}
	res := m.Close()
	res2 := m.Close()
	if !reflect.DeepEqual(res, res2) {
		t.Error("Close is not idempotent")
	}
	if _, err := m.Feed(&v.Frames[0]); err == nil {
		t.Error("Feed after Close accepted")
	}
}

// TestMuxConcurrentStreams exercises the shared-scan fan-out under the
// race detector: several MuxStreams (one per simulated camera feed) run
// concurrently against one SharedCache, the deployment shape of a
// multi-stream serving tier.
func TestMuxConcurrentStreams(t *testing.T) {
	v := video.CityFlow(11, 30).Generate()
	cache := NewSharedCache()
	base := testEnv()
	var wg sync.WaitGroup
	errs := make([]error, 4)
	results := make([][]*Result, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			env := base.Fork()
			defer base.Clock.Merge(env.Clock)
			ex, err := NewExecutor(Options{Env: env, Registry: models.BuiltinRegistry(), Cache: cache})
			if err != nil {
				errs[w] = err
				return
			}
			plans := poolPlans(t, 6)
			results[w], errs[w] = ex.RunMux(plans, v)
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("stream %d: %v", w, err)
		}
	}
	for w := 1; w < 4; w++ {
		for i := range results[0] {
			if !reflect.DeepEqual(results[0][i].Matched, results[w][i].Matched) {
				t.Errorf("stream %d query %d: matched differs from stream 0", w, i)
			}
			if !reflect.DeepEqual(results[0][i].Hits, results[w][i].Hits) {
				t.Errorf("stream %d query %d: hits differ from stream 0", w, i)
			}
		}
	}
}
