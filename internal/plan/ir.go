package plan

// This file is the unified logical operator IR every frontend compiles
// into — the object-oriented core.Query API (with its event
// combinators), vql text queries, and the CLI all produce the same
// representation:
//
//	Scan(source) → FrameFilter* → Detect → Track → Prop* → Filter* → Output
//
// wrapped in a combinator tree (QueryIR) for duration/temporal events.
// A compiled workload can then be executed two ways by the physical
// layer (executeLeaves, under the one batch driver in run.go):
//
//   - per query (Run, RunAll): each basic pipeline scans the video itself,
//     the pre-shared-scan behaviour that RunAll parallelizes;
//   - shared scan (RunShared): exec.MuxStream groups pipelines whose
//     scan prefixes are structurally identical — same frame-filter
//     chain, same detector, same source (exec.ScanPrefixOf keys) — and
//     runs each group's scan/detect/track exactly once per frame,
//     fanning results out to every member query.
//
// Results are identical either way; only the amount of scan work and its
// ledger attribution change.

import (
	"fmt"
	"math"

	"vqpy/internal/core"
	"vqpy/internal/exec"
	"vqpy/internal/video"
)

// IRKind discriminates QueryIR nodes.
type IRKind int

// QueryIR node kinds: a basic pipeline leaf, an event combinator, an
// index-probe leaf (archive search), or a lazy verification stage (text
// queries).
const (
	IRBasic IRKind = iota
	IRDuration
	IRTemporal
	IRIndexProbe
	IRVerify
)

// ProbeIR is the compiled form of an archive search: probe the
// appearance index for tracks of Class whose embedding matches
// FeatureRef at Threshold (keeping the TopK best after verification),
// then verify only the frames those tracks span through the wrapped
// basic pipeline. Verify is the pipeline that would answer the query by
// full scan; the probe leaf is purely an access-path choice — executing
// Verify over every frame yields bit-identical results, which the
// crosscheck machinery (Search's probe-vs-full comparison) proves.
type ProbeIR struct {
	// Class is the tracked class the index was extracted for.
	Class int
	// FeatureRef is the exemplar appearance embedding being searched.
	FeatureRef []float64
	// Threshold is the cosine-similarity match bar.
	Threshold float64
	// TopK keeps the K most similar verified tracks; 0 keeps all.
	TopK int
	// Verify is the underlying basic pipeline (compiled with
	// DisableMemo, see Search) used to confirm candidate frames.
	Verify *BasicIR
}

// VerifyIR is the compiled form of a text query's open-vocabulary
// remainder (DESIGN.md §13): the concept conjunction the cheap cascade
// cannot decide, answered by the named ConceptModel. The wrapped basic
// pipeline's verdicts are the stage's input; under the conjunction a
// frame the cascade ruled out is decided (false) without consulting the
// model, which is the undecided-frame semantics that makes lazy
// invocation exact — only cascade-matched frames are undecided.
// Execution lives in RunText / exec.RunVerify; the eager every-frame
// mode exists purely as the parity baseline.
type VerifyIR struct {
	// Model names the registered ConceptModel (models.VLMModelName by
	// default).
	Model string
	// Class is the object class the question binds; Concepts the
	// normalized concept conjunction.
	Class    video.Class
	Concepts []string
	// Basic is the cheap-cascade pipeline whose verdicts gate the
	// model (also reachable as the node's only child).
	Basic *BasicIR
}

// BasicIR is the compiled logical pipeline of one basic (or merged
// spatial) query: the validated logical query plus the physical plan the
// optimizer selected for it. The plan's step list is the linearized
// Scan→Detect→Track→Prop→Filter chain; exec.ScanPrefixOf recovers the
// shareable scan prefix from it.
type BasicIR struct {
	Query *core.Query
	Plan  *exec.Plan
}

// QueryIR is the compiled form of any frontend query node: a combinator
// tree whose leaves are basic pipelines.
type QueryIR struct {
	Name string
	Kind IRKind

	// Basic is set for IRBasic leaves.
	Basic *BasicIR

	// Probe is set for IRIndexProbe leaves.
	Probe *ProbeIR

	// Verify is set for IRVerify nodes (compiled text queries).
	Verify *VerifyIR

	// MinSeconds (IRDuration) / WindowSeconds (IRTemporal) carry the
	// combinator parameters.
	MinSeconds    float64
	WindowSeconds float64

	// Children holds the base pipeline(s) of combinator nodes.
	Children []*QueryIR
}

// Leaves appends the tree's basic pipelines to out in execution order.
func (ir *QueryIR) Leaves(out []*BasicIR) []*BasicIR {
	if ir.Kind == IRBasic {
		return append(out, ir.Basic)
	}
	for _, c := range ir.Children {
		out = c.Leaves(out)
	}
	return out
}

// CompileNode compiles a frontend query node into the IR. Basic leaves
// are planned (and, when canary is non-nil, canary-profiled) by the
// candidate machinery of PlanBasic; spatial queries are lowered to
// merged basic queries first.
func (pl *Planner) CompileNode(node core.QueryNode, canary *video.Video) (*QueryIR, error) {
	switch n := node.(type) {
	case *core.Query:
		return pl.compileBasic(n, n.Name(), canary)
	case *core.SpatialQuery:
		merged, err := MergeSpatial(n)
		if err != nil {
			return nil, err
		}
		return pl.compileBasic(merged, n.NodeName(), canary)
	case *core.DurationQuery:
		base, err := pl.CompileNode(n.Base, canary)
		if err != nil {
			return nil, err
		}
		return &QueryIR{
			Name: n.NodeName(), Kind: IRDuration,
			MinSeconds: n.MinSeconds, Children: []*QueryIR{base},
		}, nil
	case *core.TemporalQuery:
		first, err := pl.CompileNode(n.First, canary)
		if err != nil {
			return nil, err
		}
		second, err := pl.CompileNode(n.Second, canary)
		if err != nil {
			return nil, err
		}
		return &QueryIR{
			Name: n.NodeName(), Kind: IRTemporal,
			WindowSeconds: n.WindowSeconds, Children: []*QueryIR{first, second},
		}, nil
	}
	return nil, fmt.Errorf("plan: unknown query node %T", node)
}

func (pl *Planner) compileBasic(q *core.Query, name string, canary *video.Video) (*QueryIR, error) {
	p, _, err := pl.PlanBasic(q, canary)
	if err != nil {
		return nil, err
	}
	return &QueryIR{Name: name, Kind: IRBasic, Basic: &BasicIR{Query: q, Plan: p}}, nil
}

// executor returns an execution executor bound to the session's
// environment, cross-query cache and result store, archiving under the
// given source name. (Profiling executors are built separately in
// profileOne: they must never see the store.)
func (pl *Planner) executor(source string) (*exec.Executor, error) {
	return exec.NewExecutor(exec.Options{
		Env: pl.opts.Env, Registry: pl.opts.Registry, Cache: pl.opts.Cache,
		Store: pl.opts.Store, StoreSource: source,
	})
}

// executeLeaves is the physical layer under every batch driver: it runs
// the compiled basic pipelines over src and returns their executor
// results keyed by leaf. Per query (shared false) every leaf performs
// its own scan of the source; shared, exec.RunMux multiplexes all of
// them over one pass.
func (pl *Planner) executeLeaves(leaves []*BasicIR, src video.FrameSource, shared bool) (map[*BasicIR]*exec.Result, error) {
	ex, err := pl.executor(src.SourceName())
	if err != nil {
		return nil, err
	}
	leafRes := make(map[*BasicIR]*exec.Result, len(leaves))
	if !shared {
		for _, leaf := range leaves {
			if leafRes[leaf], err = ex.Run(leaf.Plan, src); err != nil {
				return nil, err
			}
		}
		return leafRes, nil
	}
	plans := make([]*exec.Plan, len(leaves))
	for j, leaf := range leaves {
		plans[j] = leaf.Plan
	}
	execRes, err := ex.RunMux(plans, src)
	if err != nil {
		return nil, err
	}
	for j, leaf := range leaves {
		leafRes[leaf] = execRes[j]
	}
	return leafRes, nil
}

// assembleIR folds per-leaf executor results back up the combinator
// tree. It is shared by the per-query and shared-scan strategies, which
// is what makes them interchangeable: the physical layer only ever
// produces leaf results.
func assembleIR(ir *QueryIR, leafRes map[*BasicIR]*exec.Result, fps int) *RunResult {
	switch ir.Kind {
	case IRBasic:
		res := leafRes[ir.Basic]
		return &RunResult{
			Name: ir.Name, Matched: res.Matched, Events: exec.EventsOf(res.Matched),
			FPS: fps, Basic: res, Plans: []*exec.Plan{ir.Basic.Plan}, VirtualMS: res.VirtualMS,
		}
	case IRDuration:
		base := assembleIR(ir.Children[0], leafRes, fps)
		minFrames := int(math.Ceil(ir.MinSeconds * float64(fps)))
		matched, events := exec.Duration(base.Matched, minFrames)
		return &RunResult{
			Name: ir.Name, Matched: matched, Events: events, FPS: fps,
			Plans: base.Plans, VirtualMS: base.VirtualMS,
		}
	case IRTemporal:
		first := assembleIR(ir.Children[0], leafRes, fps)
		second := assembleIR(ir.Children[1], leafRes, fps)
		window := int(math.Ceil(ir.WindowSeconds * float64(fps)))
		matched, events := exec.Sequence(first.Matched, second.Matched, window)
		return &RunResult{
			Name: ir.Name, Matched: matched, Events: events, FPS: fps,
			Plans:     append(append([]*exec.Plan{}, first.Plans...), second.Plans...),
			VirtualMS: first.VirtualMS + second.VirtualMS,
		}
	}
	return nil
}

// canaryOf recovers a materialized video from a frame source for canary
// profiling and result-cache fingerprints. Both simulation sources can
// materialize; a live source would return nil and skip profiling.
func canaryOf(src video.FrameSource) *video.Video {
	switch s := src.(type) {
	case *video.Video:
		return s
	case *video.ScenarioSource:
		return s.Video()
	}
	return nil
}
