package plan

import (
	"fmt"

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
	// Materialized-result reuse (§4.2): identical node+video pairs
	// return the stored result.
	var fp string
	if pl.opts.ResultCache != nil {
		fp = Fingerprint(node, v)
		if r, ok := pl.opts.ResultCache.Get(fp); ok {
			return r, nil
		}
	}
	// All basic components within one Run share a cache so common
	// detector work is not repeated (the shared sub-pipelines of the
	// operator DAG, Figure 9).
	opts := pl.opts
	if opts.Cache == nil {
		opts.Cache = exec.NewSharedCache()
	}
	inner := &Planner{opts: opts}
	r, err := inner.runNode(node, v)
	if err == nil && pl.opts.ResultCache != nil {
		pl.opts.ResultCache.Put(fp, r)
	}
	return r, err
}

// runNode is the per-query physical strategy: the node is compiled to
// the operator IR (planning every basic leaf against the video as the
// profiling canary) and each leaf pipeline then scans the video itself.
// The shared-scan strategy over the same IR is RunShared.
func (pl *Planner) runNode(node core.QueryNode, v *video.Video) (*RunResult, error) {
	ir, err := pl.CompileNode(node, v)
	if err != nil {
		return nil, err
	}
	return pl.executeIR(ir, v)
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
