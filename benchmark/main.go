// Command benchmark is the repository's benchmark: five workloads from
// Session.Execute to vqserve under load, measured in both cost
// currencies (wall clock with burn off, and virtual ms from the
// simulated models' ledger), with an outside-in per-layer trace.
//
//	go run ./benchmark -workload <name> -seed <n> -seconds <s> -trace <0|1>
//
// runs one workload and prints, as the last line of standard output,
// one JSON object {"correct","attempted","failed","metrics"}: the
// end-to-end metrics untraced, the per-layer metrics traced. Without
// -workload every workload runs, untraced then traced. -agree runs two
// full untraced sets and fails if they disagree beyond the bounds in
// BENCHMARK.json. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
)

func main() { os.Exit(realMain(frozen, os.Args[1:], os.Stdout, os.Stderr)) }

// workRoot is the benchmark's scratch space, relative to the working
// directory (the checkout root); .gitignore names it.
const workRoot = ".bench_work"

func realMain(p params, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run (default: all, untraced then traced)")
	seed := fs.Uint64("seed", 7, "seed every generated input derives from")
	seconds := fs.Float64("seconds", 15, "how long one run measures")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	agree := fs.Bool("agree", false, "run two full untraced sets and compare them against the bounds")
	corrupt := fs.Bool("corrupt-reference", false, "spoil one reference answer (oracle self-test: the run must fail)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	base := runEnv{P: p, Seed: *seed, Seconds: *seconds, WorkRoot: workRoot, corrupt: *corrupt}
	if *agree {
		return runAgree(base, stdout, stderr)
	}
	if *workload == "" {
		code := 0
		for _, traced := range []bool{false, true} {
			for _, w := range workloads {
				env := base
				env.Trace = traced
				if c := runOne(w, env, stdout, stderr); c != 0 {
					code = c
				}
			}
		}
		return code
	}
	w, ok := findWorkload(*workload)
	if !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *workload)
		return 2
	}
	base.Trace = *trace == 1
	return runOne(w, base, stdout, stderr)
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// traceFile is where a traced run of a workload leaves its spans.
func traceFile(root, workload string) string {
	return filepath.Join(root, "trace-"+workload+".jsonl")
}

// execute runs one workload in a scratch directory of its own.
func execute(w workloadDef, env runEnv) (*outcome, error) {
	if err := os.MkdirAll(env.WorkRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(env.WorkRoot, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	env.WorkDir = dir
	env.TraceFile = traceFile(env.WorkRoot, w.Name)
	return w.run(&env)
}

// runOne runs one workload and prints its run record, its metrics by
// name with unit, and the result line. It returns the exit code: 1 when
// the run failed or any answer differed from its reference.
func runOne(w workloadDef, env runEnv, stdout, stderr io.Writer) int {
	o, err := execute(w, env)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.Name, err)
		return 1
	}
	rec, _ := json.Marshal(runRecord(&env))
	fmt.Fprintf(stdout, "# run workload=%s trace=%v %s\n", w.Name, env.Trace, rec)
	for _, n := range o.Notes {
		fmt.Fprintf(stdout, "# %s\n", n)
	}
	defs := endToEnd
	if env.Trace {
		defs = perLayer
		fmt.Fprintf(stdout, "# trace file: %s\n", traceFile(env.WorkRoot, w.Name))
	}
	res := result{Correct: o.Failed == 0, Attempted: o.Attempted, Failed: o.Failed, Metrics: map[string]metricValue{}}
	for _, m := range defs {
		v := o.Metrics[m.Name]
		res.Metrics[m.Name] = metricValue{v, m.Unit}
		line := fmt.Sprintf("%-36s %16.6f %s", m.Name, v, m.Unit)
		if n, ok := o.Samples[m.Name]; ok {
			line += fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Fprintln(stdout, line)
	}
	fmt.Fprintf(stdout, "%-36s %16.6f ratio  (%d failed of %d)\n", "failed_ratio",
		ratio(float64(o.Failed), float64(o.Attempted)), o.Failed, o.Attempted)
	line, _ := json.Marshal(res)
	fmt.Fprintf(stdout, "%s\n", line)
	if o.Failed > 0 {
		fmt.Fprintf(stderr, "benchmark: %s: %d of %d operations failed the oracle\n", w.Name, o.Failed, o.Attempted)
		return 1
	}
	return 0
}

// runRecord is what every output carries: where the numbers came from.
func runRecord(env *runEnv) map[string]any {
	commit := os.Getenv("BENCH_COMMIT")
	if info, ok := debug.ReadBuildInfo(); ok && commit == "" {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"seed": env.Seed, "seconds": env.Seconds, "commit": commit,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "params": env.P,
	}
}
