package plan

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"vqpy/internal/core"
	"vqpy/internal/exec"
	"vqpy/internal/video"
)

// RunResult is the outcome of executing any query node.
type RunResult struct {
	Name string

	// Matched marks, per processed frame position, whether the node's
	// condition holds.
	Matched []bool
	// Events are the qualifying spans for higher-order nodes (for
	// basic nodes, the maximal matched runs).
	Events []exec.Event

	FPS int

	// Basic holds the underlying executor result for basic/spatial
	// nodes (hits, counts, memo stats); nil for duration/temporal.
	Basic *exec.Result

	// Plans lists the physical plans chosen for every basic component,
	// for explanation.
	Plans []*exec.Plan

	// VirtualMS totals the virtual time charged by this node and its
	// children.
	VirtualMS float64
}

// MatchedCount returns the number of matched frames.
func (r *RunResult) MatchedCount() int {
	n := 0
	for _, m := range r.Matched {
		if m {
			n++
		}
	}
	return n
}

// Run plans and executes a query node over a video. Higher-order nodes
// are evaluated recursively and combined with the event semantics of §3.
func (pl *Planner) Run(node core.QueryNode, v *video.Video) (*RunResult, error) {
	res, err := pl.run([]core.QueryNode{node}, v, 1, false)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// RunAll plans and executes every query node over the video on a pool of
// `workers` goroutines. All nodes share one SharedCache (the planner's
// configured cache, or a fresh one for this call), so common detector
// and classifier work is computed once regardless of which worker needs
// it first. Each worker charges a forked virtual clock; forks are merged
// into the session clock before returning, keeping ledger totals
// worker-count independent.
//
// Results align positionally with nodes and are identical to running the
// nodes sequentially in order (hits, counts, track IDs — virtual-time
// attribution per query may shift, since the single-flight guard decides
// who pays shared model costs).
//
// workers <= 0 uses GOMAXPROCS; workers == 1 runs sequentially on the
// caller's goroutine.
func (pl *Planner) RunAll(nodes []core.QueryNode, v *video.Video, workers int) ([]*RunResult, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return pl.run(nodes, v, workers, false)
}

// RunShared plans and executes every query node over one frame source in
// a single shared pass: all nodes are compiled to the IR and
// exec.MuxStream multiplexes every basic pipeline over one frame
// stream, deduplicating structurally identical scan prefixes into
// shared operators. Results align
// positionally with nodes and are identical to running the nodes
// sequentially (per-query virtual-time attribution shifts: shared scan
// costs are split across the queries riding them).
func (pl *Planner) RunShared(nodes []core.QueryNode, src video.FrameSource) ([]*RunResult, error) {
	return pl.run(nodes, src, 1, true)
}

// run is the one batch driver behind Run, RunAll and RunShared:
// materialized-result reuse (§4.2: an identical node+video pair returns
// the stored result) → compile the misses to the IR (planning every
// basic leaf against the source as the profiling canary) → execute
// their leaf pipelines → assembleIR → store the result. The callers
// differ only in the physical strategy for the leaves: shared runs all
// misses as one batch over one exec.RunMux pass; otherwise every node is
// its own batch whose leaves each scan the source themselves, on the
// caller's goroutine or — workers > 1 — on a pool of forked clocks
// merged back before returning. All basic components of the call share
// one cache, so common detector work is not repeated (the shared
// sub-pipelines of the operator DAG, Figure 9).
func (pl *Planner) run(nodes []core.QueryNode, src video.FrameSource, workers int, shared bool) ([]*RunResult, error) {
	if len(nodes) == 0 {
		return nil, nil
	}
	opts := pl.opts
	if opts.Cache == nil {
		opts.Cache = exec.NewSharedCache()
	}
	canary := canaryOf(src)
	reuse := opts.ResultCache != nil && canary != nil

	results := make([]*RunResult, len(nodes))
	keys := make([]string, len(nodes)) // result-cache fingerprints, when reuse
	var pending []int
	for i, node := range nodes {
		if reuse {
			keys[i] = Fingerprint(node, canary)
			if r, ok := opts.ResultCache.Get(keys[i]); ok {
				results[i] = r
				continue
			}
		}
		pending = append(pending, i)
	}

	// A shared pass fails as a whole, so an error names every query of
	// the batch; a per-query batch is one query.
	fail := func(batch []int, err error) error {
		names := make([]string, len(batch))
		for k, i := range batch {
			names[k] = nodes[i].NodeName()
		}
		return fmt.Errorf("plan: query %s: %w", strings.Join(names, ", "), err)
	}
	// runBatch compiles the batch's nodes and executes their leaves
	// together.
	runBatch := func(inner *Planner, batch []int) error {
		irs := make([]*QueryIR, len(batch))
		var leaves []*BasicIR
		for k, i := range batch {
			ir, err := inner.CompileNode(nodes[i], canary)
			if err != nil {
				return fail([]int{i}, err)
			}
			irs[k] = ir
			leaves = ir.Leaves(leaves)
		}
		leafRes, err := inner.executeLeaves(leaves, src, shared)
		if err != nil {
			return fail(batch, err)
		}
		for k, i := range batch {
			r := assembleIR(irs[k], leafRes, src.SourceFPS())
			if reuse {
				opts.ResultCache.Put(keys[i], r)
			}
			results[i] = r
		}
		return nil
	}

	inner := &Planner{opts: opts}
	if shared {
		if len(pending) > 0 {
			if err := runBatch(inner, pending); err != nil {
				return nil, err
			}
		}
		return results, nil
	}
	if workers > len(pending) {
		workers = len(pending)
	}
	if workers <= 1 {
		for _, i := range pending {
			if err := runBatch(inner, []int{i}); err != nil {
				return nil, err
			}
		}
		return results, nil
	}

	// The worker pool schedules whole nodes: planning (canary profiling
	// included) and execution of a node happen inside one worker, so
	// higher-order nodes recurse entirely within it while every basic
	// component of every node shares the single-flighted cache.
	jobs := make(chan int)
	errs := make([]error, workers)
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wopts := opts
			wopts.Env = opts.Env.Fork()
			defer opts.Env.Clock.Merge(wopts.Env.Clock)
			inner := &Planner{opts: wopts}
			for i := range jobs {
				if failed.Load() {
					continue // drain remaining jobs after a failure
				}
				if err := runBatch(inner, []int{i}); err != nil {
					errs[w] = err
					failed.Store(true)
				}
			}
		}(w)
	}
	for _, i := range pending {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// MergeSpatial lowers a SpatialQuery into a single basic query: the
// union of both sides' instances and constraints plus the relation
// binding and its predicate (the planner-generated frame constraint of
// §3). Each side must bind exactly one instance, and names must not
// collide.
func MergeSpatial(s *core.SpatialQuery) (*core.Query, error) {
	leftInsts := s.Left.InstanceNames()
	rightInsts := s.Right.InstanceNames()
	if len(leftInsts) != 1 || len(rightInsts) != 1 {
		return nil, fmt.Errorf("plan: SpatialQuery %s sides must bind exactly one instance each", s.NodeName())
	}
	li, ri := leftInsts[0], rightInsts[0]
	if li == ri {
		return nil, fmt.Errorf("plan: SpatialQuery %s instance name collision %q", s.NodeName(), li)
	}
	q := core.NewQuery(s.NodeName())
	q.Use(li, s.Left.Instances()[li])
	q.Use(ri, s.Right.Instances()[ri])
	q.UseRelation(s.Relation.Name(), s.Relation, li, ri)
	q.Where(core.And(s.Left.FrameConstraint(), s.Right.FrameConstraint(), s.RelPred))
	var sels []core.Selector
	sels = append(sels, s.Left.FrameOutputSelectors()...)
	sels = append(sels, s.Right.FrameOutputSelectors()...)
	if len(sels) > 0 {
		q.FrameOutput(sels...)
	}
	return q, nil
}
