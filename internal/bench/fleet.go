package bench

// Cross-camera fleet experiment (E18): batched cross-source inference
// measured against N independent daemons on the same correlated
// three-camera clip set. Both modes attach the same two-query workload
// per camera (a global-id red-car query feeding the cross-camera join,
// and a plain people query) and feed every frame:
//
//   - isolated: one fresh session + dynamic mux per camera, its own
//     identity registry, no batching — the N-silo deployment;
//   - fleet:    one session driving all cameras in lockstep through
//     the fleet engine, same-tick detector invocations coalesced into
//     batched device calls with amortized sub-linear cost.
//
// Per-source verdicts must be bit-identical between the modes at equal
// detector invocation counts — batching changes costs, never work or
// answers (the report errors otherwise, and the CI baselines gate pins
// it) — while the batched fleet's total virtual time lands strictly
// below the isolated sum. The merged fleet result must also surface at
// least one cross-camera entity (the generator plants a traveling red
// sedan), proving the global re-ID join end to end.

import (
	"fmt"
	"slices"

	"vqpy"

	"vqpy/internal/metrics"
)

// fleetCameras is the E18 camera count.
const fleetCameras = 3

// fleetClip generates the experiment's correlated camera clips.
func fleetClip(cfg Config) *vqpy.FleetClip {
	return vqpy.FleetIntersections(cfg.Seed, 24*cfg.Scale, fleetCameras).Generate()
}

// fleetRedCarQuery is the global-id workload query for one source.
func fleetRedCarQuery(reg *vqpy.GlobalRegistry, source string) *vqpy.Query {
	car := vqpy.GlobalVObj(vqpy.Car(), reg, source)
	return vqpy.NewQuery("FleetRedCar").
		Use("car", car).
		Where(vqpy.And(
			vqpy.P("car", vqpy.PropScore).Gt(0.6),
			vqpy.P("car", "color").Eq("red"),
		)).
		FrameOutput(vqpy.Sel("car", vqpy.PropGlobalID))
}

// fleetIsolatedArm runs the workload as N independent daemons — one
// session, registry and dynamic mux per camera; its answers are the
// per-source results in attach order (redcar, people).
func fleetIsolatedArm(clip *vqpy.FleetClip) arm[map[string][]*vqpy.Result] {
	return arm[map[string][]*vqpy.Result]{name: "isolated", body: func(newSession sessions) (map[string][]*vqpy.Result, error) {
		out := make(map[string][]*vqpy.Result, len(clip.Videos))
		for _, v := range clip.Videos {
			s := newSession()
			reg := vqpy.NewGlobalRegistry(0)
			mux, err := s.Serve(v.FPS)
			if err != nil {
				return nil, err
			}
			for _, q := range []*vqpy.Query{fleetRedCarQuery(reg, v.Name), peopleQuery()} {
				if _, _, err := s.AttachQuery(mux, q, v); err != nil {
					return nil, err
				}
			}
			for i := 0; i < v.NumFrames(); i++ {
				if _, err := mux.Feed(v.FrameAt(i)); err != nil {
					return nil, err
				}
			}
			out[v.Name] = mux.Close()
		}
		return out, nil
	}}
}

// fleetRun bundles the batched run's observables for the report.
type fleetRun struct {
	red, people map[string]*vqpy.Result
	merged      *vqpy.FleetMerged
	fleet       *vqpy.Fleet
}

// fleetBatchedArm runs the same workload through the batched fleet
// engine: one session driving all cameras in lockstep.
func fleetBatchedArm(clip *vqpy.FleetClip) arm[*fleetRun] {
	return arm[*fleetRun]{name: "fleet-batched", body: func(newSession sessions) (*fleetRun, error) {
		s := newSession()
		f, err := s.NewFleetFromClips(clip.Videos, true)
		if err != nil {
			return nil, err
		}
		redID, err := s.AttachFleetQuery(f, "FleetRedCar", func(source string) *vqpy.Query {
			return fleetRedCarQuery(f.Registry(), source)
		})
		if err != nil {
			return nil, err
		}
		peopleID, err := s.AttachFleetQuery(f, "People", func(string) *vqpy.Query { return peopleQuery() })
		if err != nil {
			return nil, err
		}
		if err := f.Run(); err != nil {
			return nil, err
		}
		run := &fleetRun{fleet: f}
		if run.red, err = f.Snapshot(redID); err != nil {
			return nil, err
		}
		if run.people, err = f.Snapshot(peopleID); err != nil {
			return nil, err
		}
		if run.merged, err = f.Merged(redID); err != nil {
			return nil, err
		}
		// Finalize the lanes and release the session's interceptor hook;
		// registry and batch stats stay readable for the report.
		f.Close()
		return run, nil
	}}
}

// fleetVerdictsIdentical compares per-source verdicts between the
// isolated and batched runs: the plain query byte-identical, the
// global-id query identical up to the global id values themselves
// (assignment order is fleet-wide vs per-daemon).
func fleetVerdictsIdentical(clip *vqpy.FleetClip, isolated map[string][]*vqpy.Result, red, people map[string]*vqpy.Result) bool {
	for _, v := range clip.Videos {
		iso, okIso := isolated[v.Name]
		r, okR := red[v.Name]
		p, okP := people[v.Name]
		if !okIso || !okR || !okP || len(iso) != 2 {
			return false
		}
		if !sameResult(iso[1], p) {
			return false
		}
		if !slices.Equal(iso[0].Matched, r.Matched) || len(iso[0].Hits) != len(r.Hits) {
			return false
		}
		for i := range iso[0].Hits {
			a, b := iso[0].Hits[i], r.Hits[i]
			if a.FrameIdx != b.FrameIdx || len(a.Objects) != len(b.Objects) {
				return false
			}
			for j := range a.Objects {
				if a.Objects[j].TrackID != b.Objects[j].TrackID {
					return false
				}
			}
		}
	}
	return true
}

// RunFleet is the E18 experiment entry point used by vqbench.
func RunFleet(cfg Config) (*metrics.Report, error) {
	cfg = cfg.withDefaults()
	clip := fleetClip(cfg)

	isolated, iso, err := runArm(cfg, fleetIsolatedArm(clip))
	if err != nil {
		return nil, err
	}
	run, batched, err := runArm(cfg, fleetBatchedArm(clip))
	if err != nil {
		return nil, err
	}

	rep := &metrics.Report{
		Title:  "E18: cross-camera fleet — batched cross-source inference vs N isolated daemons",
		Header: []string{"mode", "wall ms", "detect inv", "virtual ms"},
	}
	// E18's claim is about detector work; its table has no tracker
	// column, so these are not the standard rows.
	for _, st := range []armStats{iso, batched} {
		rep.AddRow(st.name, metrics.Ms(st.wallMS), fmt.Sprint(st.detect), fmt.Sprintf("%.0f", st.virtualMS))
	}

	identical := fleetVerdictsIdentical(clip, isolated, run.red, run.people)
	crosscam := run.merged.CrossCamera(2, 30)
	regStats := run.fleet.Registry().Stats()
	batchStats, _ := run.fleet.BatchStats()

	rep.SetMetric("fleet_identical", boolMetric(identical))
	iso.setMetrics(rep, "fleet_%s_isolated", "virtual", "detect_inv")
	batched.setMetrics(rep, "fleet_%s_batched", "virtual", "detect_inv")
	setRatio(rep, "fleet_virtual_ratio", batched.virtualMS, iso.virtualMS)
	setRatio(rep, "fleet_detect_parity", float64(batched.detect), float64(iso.detect))
	setRatio(rep, "fleet_wall_ratio", batched.wallMS, iso.wallMS)
	rep.SetMetric("fleet_crosscam_entities", float64(len(crosscam)))
	rep.SetMetric("fleet_batch_saved_ms", batchStats.SavedMS)

	rep.AddNote("cameras: %d; queries per camera: 2; per-source verdicts identical to isolated daemons: %v",
		fleetCameras, identical)
	rep.AddNote("global re-ID: %d entities, %d cross-camera (≥2 sources); %d matched entities on ≥2 cameras within 30s",
		regStats.Entities, regStats.CrossCamera, len(crosscam))
	rep.AddNote("batching: %d ticks, %d/%d invocations batched (max batch %d), %.0f virtual ms saved",
		batchStats.Ticks, batchStats.Batched, batchStats.Invocations, batchStats.MaxBatch, batchStats.SavedMS)
	rep.AddNote("expected shape: equal detector invocation counts, batched virtual (and wall, with burn) strictly below the isolated sum")
	noteBurn(rep, cfg)

	if !identical {
		return rep, fmt.Errorf("bench: fleet per-source verdicts diverge from isolated execution")
	}
	if batched.detect != iso.detect {
		return rep, fmt.Errorf("bench: fleet detector invocations %d != isolated %d (batching must not change work)", batched.detect, iso.detect)
	}
	if batched.virtualMS >= iso.virtualMS {
		return rep, fmt.Errorf("bench: batched fleet virtual %.0f ms not below isolated sum %.0f ms", batched.virtualMS, iso.virtualMS)
	}
	if len(crosscam) == 0 {
		return rep, fmt.Errorf("bench: no cross-camera entity in the merged fleet result")
	}
	return rep, nil
}
