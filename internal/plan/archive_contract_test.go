package plan

import (
	"errors"
	"sync/atomic"
	"testing"

	"vqpy/internal/exec"
	"vqpy/internal/index"
	"vqpy/internal/models"
	"vqpy/internal/store"
	"vqpy/internal/video"
)

// TestArchiveConsumersAgreeWithReader lays internal/store's reader
// contract cases (TestScanReaderContract) over a real clip under a real
// plan's scan group, one case per archive at frame 0, and checks that
// every consumer of archived frames classifies the frame as
// store.ScanReader does: the engine's index-verify and backfill rows,
// index.Extract, index.StoreAppearances and the fidelity planner's
// readability probe. Expectations are derived from what the reader
// answers, not restated — the consumers hold policies (fail, stop, skip,
// re-track), never a second opinion on the layout. (The test lives here
// because this is the lowest package that imports all of them.)
func TestArchiveConsumersAgreeWithReader(t *testing.T) {
	const k = 12 // archived frames
	// A clip with a car in view on frame 0, where every case is laid.
	v := video.CityFlow(40, 2).Generate()
	q := redCarQuery(carType())
	p, _, err := testPlanner(t, nil).PlanBasic(q, v)
	if err != nil {
		t.Fatal(err)
	}
	sig := exec.ScanPrefixOf(p)
	key, detect, cls, src := sig.Key(), sig.Detect, int(sig.Class), v.SourceName()
	m, _ := models.BuiltinRegistry().Get("fleet_reid")
	embedder := m.(models.Embedder)

	// healthy returns frame f as a perfect tracker would have archived it.
	healthy := func(f int) (*store.ScanRecord, []store.Detection) {
		var dets []store.Detection
		var ids []int
		for _, o := range v.Frames[f].Objects {
			dets = append(dets, store.Detection{Box: o.Box, Class: int(o.Class), Score: 0.9, TruthID: o.TrackID})
			if int(o.Class) == cls {
				ids = append(ids, o.TrackID)
			}
		}
		return &store.ScanRecord{Source: src, ScanKey: key, Detect: detect, Frame: f, IDs: map[int][]int{cls: ids}}, dets
	}
	if rec, _ := healthy(0); len(rec.IDs[cls]) == 0 {
		t.Fatal("fixture: frame 0 has no object of the plan's class")
	}

	cases := []struct {
		name   string
		damage func(rec *store.ScanRecord) (keepRec, keepDets bool)
		fault  bool
	}{
		{name: "absent frame", damage: func(*store.ScanRecord) (bool, bool) { return false, true }},
		{name: "faulted read", fault: true},
		{name: "another detector's record", damage: func(r *store.ScanRecord) (bool, bool) { r.Detect = "other"; return true, true }},
		{name: "dropped frame", damage: func(r *store.ScanRecord) (bool, bool) { r.Dropped, r.IDs = true, nil; return true, false }},
		{name: "kept frame without det record", damage: func(*store.ScanRecord) (bool, bool) { return true, false }},
		{name: "class archived id-less", damage: func(r *store.ScanRecord) (bool, bool) { r.IDs = map[int][]int{}; return true, true }},
		{name: "ids and detections disagree", damage: func(r *store.ScanRecord) (bool, bool) { r.IDs[cls] = r.IDs[cls][1:]; return true, true }},
		{name: "healthy"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// MemRecords 1 keeps reads on the disk tier, where the fault
			// hook (on for the whole faulted case) can reach them.
			var fault atomic.Bool
			st, err := store.Open(t.TempDir(), store.Meta{Seed: 42}, store.Options{
				MemRecords: 1,
				ReadFault: func(string) error {
					if fault.Load() {
						return errors.New("injected read fault")
					}
					return nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			for f := 0; f < k; f++ {
				rec, dets := healthy(f)
				keepRec, keepDets := true, true
				if f == 0 && tc.damage != nil {
					keepRec, keepDets = tc.damage(rec)
				}
				if keepDets {
					if err := st.PutDets(src, detect, f, dets); err != nil {
						t.Fatal(err)
					}
				}
				if keepRec {
					if err := st.PutScan(rec); err != nil {
						t.Fatal(err)
					}
				}
			}
			fault.Store(tc.fault)

			// What the reader says about frame 0.
			scans := st.Scans(src, key, detect)
			fr, miss := scans.Frame(0, true)
			kept := miss == store.MissNone && !fr.Rec.Dropped
			have := false
			if kept {
				_, _, have = fr.Class(cls, nil)
			}

			// The full-rescan appearance walk skips what the reader cannot serve.
			if apps := index.StoreAppearances(st, src, key, detect, cls, 0, 1); (len(apps) > 0) != (kept && have) {
				t.Errorf("StoreAppearances saw %d tracks on frame 0; reader: miss %v, kept %v, have %v", len(apps), miss, kept, have)
			}

			// Extraction stops there — and blames a fault only for a fault.
			x, err := index.Open(t.TempDir(), index.Meta{Seed: 42, ZooVersion: models.ZooVersion, Embedder: "fleet_reid"})
			if err != nil {
				t.Fatal(err)
			}
			defer x.Close()
			stats, err := x.Extract(index.ExtractConfig{
				Store: st, Src: v, Sig: key, Detect: detect, Class: cls, Env: testEnv(), Embedder: embedder,
			}, k)
			stops := miss != store.MissNone || (kept && !have)
			wantTo := k
			if stops {
				wantTo = 0
			}
			if err != nil || stats.To != wantTo || stats.FaultStopped != (miss == store.MissFaulted) {
				t.Errorf("Extract = %+v, %v; reader: miss %v, kept %v, have %v", stats, err, miss, kept, have)
			}

			// Index verification of frame 0 fails with the reader's reason,
			// or with one of the engine's own when only the ids are unusable.
			pl := testPlanner(t, func(o *Options) { o.Store = st })
			executor := func() *exec.Executor {
				ex, err := pl.executor(src)
				if err != nil {
					t.Fatal(err)
				}
				return ex
			}
			_, err = executor().RunIndexVerify(p, v, []int{0}, k, k)
			var reason store.Miss
			switch {
			case miss != store.MissNone:
				if !errors.Is(err, miss) {
					t.Errorf("RunIndexVerify error = %v, want %v", err, miss)
				}
			case kept && !have:
				if err == nil || errors.As(err, &reason) {
					t.Errorf("RunIndexVerify error = %v, want the engine's missing-track-ids reason", err)
				}
			case err != nil:
				t.Errorf("RunIndexVerify: %v", err)
			}

			// The fidelity planner's probe reads the scan record alone, so it
			// disqualifies a tier exactly when the reader misses without dets.
			tier := store.FidelityEntry{Source: src, Key: "tier", ScanKey: key, Detector: detect, Stride: 1, Covered: k, Accuracy: 1}
			if err := st.PutFidelity(tier); err != nil {
				t.Fatal(err)
			}
			_, probeMiss := scans.Frame(0, false)
			if d, _, err := pl.PlanFidelity(q, v, k); err != nil {
				t.Errorf("PlanFidelity: %v", err)
			} else if unreadable := len(d.SkippedUnreadable) == 1; unreadable != (probeMiss != store.MissNone) {
				t.Errorf("PlanFidelity skipped %v as unreadable; the reader's probe: %v", d.SkippedUnreadable, probeMiss)
			}

			// A backfill fails the same way, except that its coverage check
			// answers for an absent frame first and that it re-tracks a kept
			// frame whose ids are unusable, merging them into the archive.
			mux := executor().OpenDynamicMux(v.FPS)
			mux.BindStore(st, v)
			if err := mux.FeedRange(v, 0, k, 1); err != nil {
				t.Fatal(err)
			}
			_, err = mux.AttachBackfill(p)
			switch {
			case miss == store.MissAbsent:
				if err == nil {
					t.Error("AttachBackfill succeeded over a frame the archive does not hold")
				}
			case miss != store.MissNone:
				if !errors.Is(err, miss) {
					t.Errorf("AttachBackfill error = %v, want %v", err, miss)
				}
			case err != nil:
				t.Errorf("AttachBackfill: %v", err)
			case kept:
				fr, _ := scans.Frame(0, true)
				if _, _, have := fr.Class(cls, nil); !have {
					t.Error("backfill left frame 0 without from-zero ids for the lane's class")
				}
			}
		})
	}
}
