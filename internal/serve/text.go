package serve

// Text-served queries (DESIGN.md §13): POST /queries with "mode":"text"
// answers a constrained natural-language query synchronously over the
// source's fed frames. The daemon compiles the sentence against the
// library catalog, runs the closed-vocabulary cascade, and consults the
// simulated open-vocabulary verifier only on the frames the cascade
// could not rule out — "eager" opts into the on-every-frame baseline,
// which yields the same verdicts at strictly higher cost.

import (
	"vqpy"
)

// TextRequest is one synchronous language query, and the POST /queries
// body of the "text" mode.
type TextRequest struct {
	// Source names the stream whose fed frames answer the query.
	Source string `json:"source"`
	// Text is the query sentence, e.g. "red car stopped for 2 seconds".
	Text string `json:"text"`
	// Eager asks the verifier on every frame instead of lazily (the
	// parity baseline).
	Eager bool `json:"eager,omitempty"`
	// Tenant is who the query's virtual cost is billed to; ignored in
	// single-tenant mode.
	Tenant string `json:"-"`
}

// TextSummary is the wire-level text-query reply.
type TextSummary struct {
	Source string `json:"source"`
	// Text echoes the request sentence; Canonical is its normalized
	// form, also the compiled query's name modulo the Text(...) wrapper.
	Text      string `json:"text"`
	Canonical string `json:"canonical"`
	// Concepts is the open-vocabulary remainder the verifier decided.
	Concepts []string `json:"concepts,omitempty"`
	// Frames is the fed-frame watermark the query spanned.
	Frames int `json:"frames"`
	// UndecidedFrames counts the frames the cheap cascade matched — the
	// only frames a lazy run pays the verifier for. VLMCalls is the
	// actual verifier invocation count (== Frames when eager) and
	// VLMFrameRatio its share of the processed frames.
	UndecidedFrames int     `json:"undecided_frames"`
	VLMCalls        int     `json:"vlm_calls"`
	VLMFrameRatio   float64 `json:"vlm_frame_ratio"`
	Eager           bool    `json:"eager,omitempty"`
	MatchedFrames   int     `json:"matched_frames"`
	Events          int     `json:"events"`
	Hits            int     `json:"hits"`
	VirtualMS       float64 `json:"virtual_ms"`
}

// TextQuery answers one language query over a source's fed frames.
// Refused in fleet mode and while draining; unlike search and fidelity
// it needs neither -store nor -index — the cascade scans live and the
// verifier is a model call. Synchronous like FidelityQuery, and like it
// holds no lock a tick needs.
func (s *Server) TextQuery(req TextRequest) (*TextSummary, error) {
	tq, err := vqpy.CompileText(req.Text)
	if err != nil {
		return nil, err
	}
	var sum *TextSummary
	err = s.runSync(&textMode, req.Tenant, req.Source, func(sess *vqpy.Session, v *vqpy.Video, fed int) error {
		// Clip shares the underlying frames, so frame indexes — and with
		// them the verifier's deterministic answers — match the live feed.
		clip := v.Clip(0, fed)
		opts := []vqpy.Option(nil)
		if req.Eager {
			opts = append(opts, vqpy.WithEagerVerify())
		}
		res, err := sess.Text(req.Text, clip, opts...)
		if err != nil {
			return err
		}

		s.counters.Add("text_queries", 1)
		s.counters.Add("text_frames", int64(res.Frames))
		s.counters.Add("text_undecided_frames", int64(res.CascadeMatched))
		s.counters.Add("text_vlm_calls", int64(res.VLMCalls))
		ratio := 0.0
		if res.Frames > 0 {
			ratio = float64(res.VLMCalls) / float64(res.Frames)
		}
		sum = &TextSummary{
			Source: req.Source, Text: req.Text, Canonical: tq.Canonical,
			Concepts:        tq.Concepts,
			Frames:          res.Frames,
			UndecidedFrames: res.CascadeMatched, VLMCalls: res.VLMCalls,
			VLMFrameRatio: ratio, Eager: req.Eager,
			MatchedFrames: res.MatchedCount(), Events: len(res.Events),
			Hits: len(res.Hits), VirtualMS: res.VirtualMS,
		}
		return nil
	})
	return sum, err
}
