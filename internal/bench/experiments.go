package bench

import "vqpy/internal/metrics"

// Experiment is one row of the experiments table.
type Experiment struct {
	// Name is the `vqbench -exp` key and the "exp" of a baseline check.
	Name string
	// Title is what the experiment reproduces: a figure, table or
	// section of the paper, or the E-number of a system experiment.
	Title string
	// Desc says in one line what the experiment shows.
	Desc string
	// Gated marks the experiments bench_baselines.json bounds: the gate
	// refuses a gated experiment no check names, and a check naming an
	// experiment that is not gated.
	Gated bool
	// Run produces the report; Text (the plan explainer only) produces
	// plain text instead. Exactly one is set.
	Run  func(Config) (*metrics.Report, error)
	Text func(Config) (string, error)
}

// Experiments is the single source of truth for what the harness can
// run, in `vqbench -exp all` execution order: the -exp vocabulary and
// help text, the DESIGN.md §4 index and the baselines gate all read it.
var Experiments = []Experiment{
	{Name: "fig13a", Title: "Figure 13(a)", Desc: "CVIP vs VQPy vs VQPy+intrinsic on five CityFlow queries", Run: RunFig13a},
	{Name: "fig13b", Title: "Figure 13(b)", Desc: "per-frame cost curves", Run: RunFig13b},
	{Name: "fig14", Title: "Figure 14", Desc: "VQPy vs EVA, red-car query", Run: RunFig14},
	{Name: "fig15", Title: "Figure 15", Desc: "VQPy vs EVA, speeding query", Run: RunFig15},
	{Name: "fig16", Title: "Figure 16", Desc: "VQPy vs EVA (naive and hand-refined), red-speeding query", Run: RunFig16},
	{Name: "table5", Title: "Table 5", Desc: "VQPy vs VideoChat-7B, Auburn Q1–Q5", Run: RunTable5},
	{Name: "table6", Title: "Table 6", Desc: "VQPy vs VideoChat-13B, Auburn Q1–Q5", Run: RunTable6},
	{Name: "table7", Title: "Table 7", Desc: "Q6 person-ball interaction, V-COCO", Run: RunTable7},
	{Name: "memo", Title: "§5.1 ablation", Desc: "intrinsic memoization on/off", Run: RunMemoAblation},
	{Name: "planner", Title: "§4.3", Desc: "candidate profiling and plan selection", Run: RunPlannerAblation},
	{Name: "lazy", Title: "§5.1", Desc: "lazy vs eager property evaluation", Run: RunLazyAblation},
	{Name: "edge", Title: "§4.1", Desc: "edge/server operator placement", Run: RunEdgeAblation},
	{Name: "multi", Title: "E14", Gated: true, Run: RunMultiQuery,
		Desc: "parallel multi-query scheduler vs sequential on the 8-query workload, answers identical"},
	{Name: "muxscan", Title: "E15", Gated: true, Run: RunMuxScan,
		Desc: "shared-scan engine vs isolated and scheduler-based per-query execution, by detector/tracker invocation counts"},
	{Name: "churn", Title: "E16", Gated: true, Run: RunChurn,
		Desc: "dynamic serving under attach/detach churn vs per-query streams"},
	{Name: "rescan", Title: "E17", Gated: true, Run: RunRescan,
		Desc: "archival rescan over the persistent result store: the warm pass runs no detector or tracker"},
	{Name: "fleet", Title: "E18", Gated: true, Run: RunFleet,
		Desc: "batched cross-source inference vs N isolated daemons: identical verdicts at equal detector work, lower virtual time, a cross-camera join"},
	{Name: "chaos", Title: "E19", Gated: true, Run: RunChaos,
		Desc: "deterministic fault injection across the serving stack: ≥99% parity on healthy frames, breakers, quarantine, a bit-identical no-op injector"},
	{Name: "search", Title: "E20", Gated: true, Run: RunSearch,
		Desc: "archive search through the appearance index vs full rescan at 1x and 3x: identical answers, sub-linear verified frames and cost"},
	{Name: "fidelity", Title: "E22", Gated: true, Run: RunFidelity,
		Desc: "accuracy-budgeted fidelity tiers vs the live scan: ≥5x cheaper within the 0.9 floor, strict queries bit-identical"},
	{Name: "text", Title: "E23", Gated: true, Run: RunText,
		Desc: "text queries: golden sentences compile to their hand-built plans, the lazy verifier runs on <10% of frames"},
	{Name: "dag", Title: "Figure 9/10", Desc: "plan DAG explanation for the suspect query", Text: ExplainSuspectDAG},
}

// FindExperiment resolves an -exp key.
func FindExperiment(name string) (Experiment, bool) {
	for _, e := range Experiments {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}
