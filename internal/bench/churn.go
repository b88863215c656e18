package bench

// Attach/detach churn experiment (E16): the dynamic serving layer
// measured against per-query execution under query arrival and
// departure. Eight basic queries arrive staggered over one clip; half
// of them depart at the three-quarter mark. Two modes:
//
//   - perquery: every query runs its own Stream over exactly its
//     residency window — N scans, N detector passes, N trackers, the
//     no-sharing baseline a naive serving tier would pay;
//   - shared:   one dynamic MuxStream; queries Attach and Detach
//     mid-stream, scan groups form and dissolve, and each group's
//     detect/track runs once per frame however many queries ride it.
//
// The report shows wall time plus the ledger's detector and tracker
// invocation counts; shared-group tracker invocations must stay
// strictly below the per-query count (the CI baselines gate enforces
// it). A correctness pass verifies that the full-duration queries'
// shared results are identical to a fresh shared stream of just that
// subset — the bit-identical detach contract at benchmark scale.

import (
	"fmt"

	"vqpy"

	"vqpy/internal/metrics"
)

// churnSpec schedules one query's residency.
type churnSpec struct {
	name  string
	build func() *vqpy.Query
	// arriveAt/departAt are fractions of the clip (departAt 1 = stays).
	arriveAt, departAt float64
}

// ChurnWorkload is the 8-query churn mix: four queries sharing the car
// scan group, plus person/ball/specialized-detector queries with groups
// of their own. Builders return fresh values so each mode plans
// independently.
func ChurnWorkload() []churnSpec {
	carQuery := func(name, color string) func() *vqpy.Query {
		return func() *vqpy.Query { return colorCarQuery(name, color) }
	}
	return []churnSpec{
		{"RedCar", carQuery("RedCar", "red"), 0, 1},
		{"People", peopleQuery, 0, 1},
		{"Plates", platesQuery, 0.1, 0.75},
		{"WhiteCars", whiteCarsQuery, 0.2, 1},
		{"BlueCars", carQuery("BlueCars", "blue"), 0.3, 0.75},
		{"Speeding", func() *vqpy.Query {
			return vqpy.SpeedQuery("Speeding", "f", vqpy.Car(), 12)
		}, 0.4, 1},
		{"Balls", ballsQuery, 0.5, 0.75},
		{"BlackCars", carQuery("BlackCars", "black"), 0.6, 1},
	}
}

// churnWindow resolves a spec's residency to frame indices over n
// frames: [arrive, depart).
func churnWindow(spec churnSpec, n int) (int, int) {
	arrive := int(spec.arriveAt * float64(n))
	depart := n
	if spec.departAt < 1 {
		depart = int(spec.departAt * float64(n))
	}
	if depart > n {
		depart = n
	}
	return arrive, depart
}

// churnSharedArm executes the churn schedule on one dynamic MuxStream;
// its answers are the per-spec results (detached queries report their
// residency window).
func churnSharedArm(v *vqpy.Video, specs []churnSpec) arm[[]*vqpy.Result] {
	return arm[[]*vqpy.Result]{name: "shared", body: func(newSession sessions) ([]*vqpy.Result, error) {
		s, n := newSession(), len(v.Frames)
		m, err := s.Serve(v.FPS)
		if err != nil {
			return nil, err
		}
		results := make([]*vqpy.Result, len(specs))
		lanes := make([]int, len(specs))
		for i := range lanes {
			lanes[i] = -1
		}
		for f := 0; f < n; f++ {
			for i, spec := range specs {
				arrive, depart := churnWindow(spec, n)
				if f == arrive {
					if lanes[i], _, err = s.AttachQuery(m, spec.build(), v); err != nil {
						return nil, err
					}
				}
				if f == depart && lanes[i] >= 0 {
					if results[i], err = m.Detach(lanes[i]); err != nil {
						return nil, err
					}
					lanes[i] = -1
				}
			}
			if _, err := m.Feed(v.FrameAt(f)); err != nil {
				return nil, err
			}
		}
		for _, res := range m.Close() {
			for i := range specs {
				if results[i] == nil && res.Query == specs[i].name {
					results[i] = res
					break
				}
			}
		}
		return results, nil
	}}
}

// churnPerQueryArm executes the same schedule with one private Stream
// per query over its residency window — no shared scans: the
// no-sharing baseline.
func churnPerQueryArm(v *vqpy.Video, specs []churnSpec) arm[[]*vqpy.Result] {
	return arm[[]*vqpy.Result]{name: "perquery", body: func(newSession sessions) ([]*vqpy.Result, error) {
		s, n := newSession(), len(v.Frames)
		results := make([]*vqpy.Result, len(specs))
		for i, spec := range specs {
			arrive, depart := churnWindow(spec, n)
			st, err := s.OpenStream(spec.build(), v, v.FPS)
			if err != nil {
				return nil, err
			}
			for f := arrive; f < depart; f++ {
				if _, err := st.Feed(v.FrameAt(f)); err != nil {
					return nil, err
				}
			}
			results[i] = st.Close()
		}
		return results, nil
	}}
}

// churnReferenceArm is the detach contract's reference: a fresh shared
// pass over exactly the full-duration queries, which the churned
// stream's answers for those queries must equal bit for bit. Its
// answers are indexed like specs, nil for queries that come or go.
func churnReferenceArm(v *vqpy.Video, specs []churnSpec) arm[[]*vqpy.Result] {
	return arm[[]*vqpy.Result]{name: "reference", body: func(newSession sessions) ([]*vqpy.Result, error) {
		var stay []vqpy.QueryNode
		var stayIdx []int
		for i, spec := range specs {
			if spec.arriveAt == 0 && spec.departAt >= 1 {
				stay = append(stay, spec.build())
				stayIdx = append(stayIdx, i)
			}
		}
		runs, err := newSession().ExecuteShared(stay, v)
		if err != nil {
			return nil, err
		}
		results := make([]*vqpy.Result, len(specs))
		for j, run := range runs {
			results[stayIdx[j]] = run.Basic
		}
		return results, nil
	}}
}

// RunChurn is the E16 experiment entry point used by vqbench.
func RunChurn(cfg Config) (*metrics.Report, error) {
	cfg = cfg.withDefaults()
	specs := ChurnWorkload()
	v := MultiQueryVideo(cfg)

	answers, stats, err := runArms(cfg, churnSharedArm(v, specs), churnPerQueryArm(v, specs), churnReferenceArm(v, specs))
	if err != nil {
		return nil, err
	}
	shared, perq, ref := answers[0], answers[1], answers[2]
	sharedStats, perqStats := stats[0], stats[1]

	rep := &metrics.Report{
		Title:  "E16: attach/detach churn — dynamic shared stream vs per-query streams",
		Header: []string{"mode", "wall ms", "detect inv", "tracker inv", "virtual ms"},
	}
	rep.AddRow(perqStats.row()...)
	rep.AddRow(sharedStats.row()...)
	sharedStats.setMetrics(rep, "churn_shared_%s", "tracker_inv", "detect_inv")
	perqStats.setMetrics(rep, "churn_perquery_%s", "tracker_inv", "detect_inv")
	setRatio(rep, "churn_tracker_ratio", float64(sharedStats.tracker), float64(perqStats.tracker))
	setRatio(rep, "churn_detect_ratio", float64(sharedStats.detect), float64(perqStats.detect))
	setRatio(rep, "churn_wall_ratio", sharedStats.wallMS, perqStats.wallMS)

	// Correctness: full-duration queries equal the reference, and
	// detached queries still answered their residency windows.
	identical := true
	departures := 0
	for i, spec := range specs {
		if spec.departAt < 1 {
			departures++
		}
		if ref[i] != nil && !sameResult(ref[i], shared[i]) {
			identical = false
		}
		arrive, depart := churnWindow(spec, len(v.Frames))
		if shared[i] == nil || shared[i].FramesProcessed != depart-arrive ||
			perq[i] == nil || perq[i].FramesProcessed != depart-arrive {
			identical = false
		}
	}

	rep.AddNote("queries: %d (%d arrivals, %d departures); full-duration results identical to fresh shared stream: %v",
		len(specs), len(specs), departures, identical)
	rep.AddNote("expected shape: shared tracker/detector invocations strictly below per-query counts — "+
		"the car scan group serves %d queries with one detect/track per frame", 4)
	noteBurn(rep, cfg)
	if !identical {
		return rep, fmt.Errorf("bench: churn shared results diverge from fresh shared stream")
	}
	if sharedStats.tracker >= perqStats.tracker {
		return rep, fmt.Errorf("bench: shared tracker invocations %d not below per-query %d", sharedStats.tracker, perqStats.tracker)
	}
	return rep, nil
}
