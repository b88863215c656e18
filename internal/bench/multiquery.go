package bench

// Multi-query serving experiment (E14): the §4.2 cross-query reuse
// claim measured at the wall clock. Eight queries over one CityFlow
// clip run twice — sequentially and on the parallel scheduler — with
// model latency in accelerator-offload mode so concurrent queries
// overlap their inference waits the way a real serving system does.
// The experiment reports per-mode wall time, aggregate queries/sec,
// the speedup ratio, and verifies that parallel results are identical
// to sequential ones (the scheduler's correctness contract).

import (
	"fmt"

	"vqpy"

	"vqpy/internal/core"
	"vqpy/internal/metrics"
	"vqpy/internal/video"
)

// MultiQueryWorkload builds the 8-query serving mix: distinct detector
// and classifier footprints so queries have genuinely private work
// (the parallelizable part), plus two queries that ride entirely on
// another query's detector via the shared cache (the reuse part).
func MultiQueryWorkload() []vqpy.QueryNode {
	vanType := core.NewVObj("VanVehicle", video.ClassCar).
		Detector("car_detector").
		StatelessModel("kind", "type_detect", true)
	vans := vqpy.NewQuery("Vans").
		Use("v", vanType).
		Where(vqpy.And(
			vqpy.P("v", vqpy.PropScore).Gt(0.5),
			vqpy.P("v", "kind").Eq("van"),
		))

	fastType := core.NewVObj("FastVehicle", video.ClassCar).Detector("yolov5s")
	speeding := vqpy.SpeedQuery("Speeding", "f", fastType, 12)

	people := vqpy.NewQuery("People").
		Use("p", vqpy.Person()).
		Where(vqpy.P("p", vqpy.PropScore).Gt(0.5)).
		FrameOutput(vqpy.Sel("p", vqpy.PropTrackID), vqpy.Sel("p", "feature"))

	blueCars := vqpy.NewQuery("BlueCars").
		Use("car", vqpy.Car()).
		Where(vqpy.And(
			vqpy.P("car", vqpy.PropScore).Gt(0.6),
			vqpy.P("car", "color").Eq("blue"),
		)).
		CountDistinct("car")

	// Heaviest first: the pool pulls jobs in order, so a
	// longest-processing-time ordering keeps the makespan near the
	// sum/workers bound instead of letting a heavy query straggle in
	// the last wave.
	return []vqpy.QueryNode{people, colorCarQuery("RedCar", "red"), whiteCarsQuery(), vans, speeding,
		ballsQuery(), platesQuery(), blueCars}
}

// MultiQueryVideo generates the experiment's clip.
func MultiQueryVideo(cfg Config) *vqpy.Video {
	cfg = cfg.withDefaults()
	return vqpy.GenerateVideo(vqpy.DatasetCityFlow(cfg.Seed, 40*cfg.Scale))
}

// workloadArm runs the 8-query workload over v on one fresh session, in
// one of the execution strategies E15 compares: "isolated" (each query
// executes alone), "runall" (the per-query scheduler at the given worker
// count, one shared cache) or "muxscan" (ExecuteShared: one scan fanned
// out to every query; opts apply to this mode only).
func workloadArm(name, mode string, workers int, v *vqpy.Video, opts ...vqpy.Option) arm[[]*vqpy.RunResult] {
	return arm[[]*vqpy.RunResult]{name: name, body: func(newSession sessions) ([]*vqpy.RunResult, error) {
		s, nodes := newSession(), MultiQueryWorkload()
		switch mode {
		case "isolated":
			results := make([]*vqpy.RunResult, 0, len(nodes))
			for _, node := range nodes {
				r, err := s.Execute(node, v)
				if err != nil {
					return nil, err
				}
				results = append(results, r)
			}
			return results, nil
		case "runall":
			return s.ExecuteAll(nodes, v, workers)
		case "muxscan":
			return s.ExecuteShared(nodes, v, opts...)
		}
		return nil, fmt.Errorf("bench: unknown workload mode %q", mode)
	}}
}

// RunWorkload executes the workload once in the given mode (see
// workloadArm) on a fresh session, with model latency offloaded when
// cfg.Burn is set, and returns the results plus the session for ledger
// reads.
func RunWorkload(cfg Config, mode string, workers int) ([]*vqpy.RunResult, *vqpy.Session, error) {
	cfg = cfg.withDefaults()
	results, st, err := runArm(cfg, workloadArm(mode, mode, workers, MultiQueryVideo(cfg)))
	if err != nil {
		return nil, nil, err
	}
	return results, st.sessions[0], nil
}

// RunMultiQuery is the E14 experiment entry point used by vqbench.
func RunMultiQuery(cfg Config) (*metrics.Report, error) {
	cfg = cfg.withDefaults()
	nQueries := len(MultiQueryWorkload())
	v := MultiQueryVideo(cfg)

	answers, stats, err := runArms(cfg,
		workloadArm("sequential", "runall", 1, v), workloadArm("parallel", "runall", cfg.Workers, v))
	if err != nil {
		return nil, err
	}
	identical := sameRuns(answers[0], answers[1])

	rep := &metrics.Report{
		Title:  "E14: multi-query serving — sequential vs parallel scheduler",
		Header: []string{"mode", "workers", "queries", "wall ms", "queries/sec", "speedup"},
	}
	seqMS, parMS := stats[0].wallMS, stats[1].wallMS
	speedup := 0.0
	if parMS > 0 {
		speedup = seqMS / parMS
	}
	rep.AddRow(stats[0].name, "1", fmt.Sprint(nQueries), metrics.Ms(seqMS),
		fmt.Sprintf("%.2f", float64(nQueries)/(seqMS/1000)), "1.0x")
	rep.AddRow(stats[1].name, fmt.Sprint(cfg.Workers), fmt.Sprint(nQueries), metrics.Ms(parMS),
		fmt.Sprintf("%.2f", float64(nQueries)/(parMS/1000)), fmt.Sprintf("%.2fx", speedup))
	rep.SetMetric("multi_seq_wall_ms", seqMS)
	rep.SetMetric("multi_par_wall_ms", parMS)
	rep.SetMetric("multi_speedup", speedup)
	rep.SetMetric("multi_identical", boolMetric(identical))
	rep.AddNote("results identical across modes: %v", identical)
	rep.AddNote("expected shape: speedup approaches min(workers, private-work ratio); " +
		"reuse-only queries (Plates, BlueCars) ride RedCar's detector in both modes")
	if !identical {
		return rep, fmt.Errorf("bench: parallel results diverge from sequential")
	}
	noteBurn(rep, cfg)
	return rep, nil
}
