package plan

// Text-query planning and execution (DESIGN.md §13): the vql frontend
// splits a text query into a closed-vocabulary core.Query the ordinary
// cascade machinery answers cheaply and an open-vocabulary concept
// conjunction only the simulated VLM can decide. CompileTextIR plans
// the cascade with the full candidate machinery of PlanBasic and wraps
// it in a VerifyIR stage; RunText executes the cascade, consults the
// verifier lazily (only on cascade-matched frames — every other frame
// is already decided under the conjunction), and folds an optional
// duration clause over the verified verdicts. The eager mode asks the
// verifier on every frame instead; the verifier is a deterministic
// function of (seed, frame, question), so lazy and eager verdicts are
// identical by construction and the eager run exists purely as the
// cost/parity baseline (vqbench -exp text).

import (
	"fmt"
	"math"

	"vqpy/internal/core"
	"vqpy/internal/exec"
	"vqpy/internal/models"
	"vqpy/internal/video"
)

// TextSpec is a compiled text query handed to the planner: the cheap
// cascade part as a regular logical query plus the open-vocabulary
// remainder for the verification stage.
type TextSpec struct {
	// Query is the closed-vocabulary cascade query (vql.Compiled.Query).
	Query *core.Query
	// Class is the object class the verifier's question binds.
	Class video.Class
	// Concepts is the normalized concept conjunction; empty compiles to
	// a plain basic pipeline with no verify stage.
	Concepts []string
	// MinSeconds is the duration clause, applied after verification.
	MinSeconds float64
	// Model names the ConceptModel; "" uses models.VLMModelName.
	Model string
}

// model resolves the verifier model name.
func (s TextSpec) model() string {
	if s.Model == "" {
		return models.VLMModelName
	}
	return s.Model
}

// TextResult is the outcome of executing a text query.
type TextResult struct {
	// Name is the compiled query name ("Text(<canonical>)").
	Name string
	// Matched marks, per processed frame, whether the full query
	// (cascade AND verifier AND duration) holds.
	Matched []bool
	// Events are the maximal matched runs after the duration fold.
	Events []exec.Event
	// FPS is the source frame rate.
	FPS int
	// Frames counts the frames the cascade processed.
	Frames int
	// CascadeMatched counts the frames the cheap cascade matched — the
	// undecided frames a lazy run consults the verifier on.
	CascadeMatched int
	// VLMCalls counts verifier invocations (== Frames when eager,
	// == CascadeMatched when lazy).
	VLMCalls int
	// Hits are the cascade's frame hits restricted to finally-matched
	// frames.
	Hits []exec.FrameHit
	// VirtualMS totals the virtual time the run charged (cascade plus
	// verifier).
	VirtualMS float64
	// IR is the compiled node, for explanation.
	IR *QueryIR
}

// MatchedCount returns the number of finally-matched frames.
func (r *TextResult) MatchedCount() int {
	n := 0
	for _, m := range r.Matched {
		if m {
			n++
		}
	}
	return n
}

// CompileTextIR compiles a text query into the operator IR: the cascade
// query is planned (and canary-profiled) by PlanBasic, then wrapped in
// a VerifyIR stage when concepts remain and an IRDuration combinator
// when a duration clause was given.
func (pl *Planner) CompileTextIR(spec TextSpec, canary *video.Video) (*QueryIR, error) {
	if spec.Query == nil {
		return nil, fmt.Errorf("plan: text spec has no query")
	}
	node, err := pl.compileBasic(spec.Query, spec.Query.Name(), canary)
	if err != nil {
		return nil, err
	}
	if len(spec.Concepts) > 0 {
		node = &QueryIR{
			Name: spec.Query.Name(), Kind: IRVerify,
			Verify: &VerifyIR{
				Model: spec.model(), Class: spec.Class,
				Concepts: append([]string(nil), spec.Concepts...),
				Basic:    node.Basic,
			},
			Children: []*QueryIR{node},
		}
	}
	if spec.MinSeconds > 0 {
		node = &QueryIR{
			Name: spec.Query.Name(), Kind: IRDuration,
			MinSeconds: spec.MinSeconds, Children: []*QueryIR{node},
		}
	}
	return node, nil
}

// RunText compiles and executes a text query over a video. eager asks
// the verifier on every processed frame (the parity baseline); the
// default lazy mode asks only on cascade-matched frames.
func (pl *Planner) RunText(spec TextSpec, v *video.Video, eager bool) (*TextResult, error) {
	ir, err := pl.CompileTextIR(spec, v)
	if err != nil {
		return nil, err
	}
	leaves := ir.Leaves(nil)
	if len(leaves) != 1 {
		return nil, fmt.Errorf("plan: text query %s compiled to %d leaves, want 1", spec.Query.Name(), len(leaves))
	}

	startMS := pl.opts.Env.Clock.TotalMS()
	leafRes, err := pl.executeLeaves(leaves, v, false)
	if err != nil {
		return nil, err
	}
	res := leafRes[leaves[0]]

	final := res.Matched
	calls := 0
	if len(spec.Concepts) > 0 {
		m, ok := pl.opts.Registry.Get(spec.model())
		if !ok {
			return nil, fmt.Errorf("plan: verifier model %q is not registered", spec.model())
		}
		cm, ok := m.(models.ConceptModel)
		if !ok {
			return nil, fmt.Errorf("plan: model %q is not a ConceptModel", spec.model())
		}
		final, calls = exec.RunVerify(res.Matched, v.Frames, eager, func(f *video.Frame) bool {
			return cm.AnswerConcept(pl.opts.Env, f, spec.Class, spec.Concepts)
		})
	}
	events := exec.EventsOf(final)
	if spec.MinSeconds > 0 {
		minFrames := int(math.Ceil(spec.MinSeconds * float64(v.FPS)))
		final, events = exec.Duration(final, minFrames)
	}
	var hits []exec.FrameHit
	for _, h := range res.Hits {
		if h.FrameIdx < len(final) && final[h.FrameIdx] {
			hits = append(hits, h)
		}
	}
	return &TextResult{
		Name: spec.Query.Name(), Matched: final, Events: events, FPS: v.FPS,
		Frames: res.FramesProcessed, CascadeMatched: res.MatchedCount(),
		VLMCalls: calls, Hits: hits,
		VirtualMS: pl.opts.Env.Clock.TotalMS() - startMS,
		IR:        ir,
	}, nil
}
