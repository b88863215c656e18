package serve

// Fidelity-served queries (DESIGN.md §12): POST /queries with
// "mode":"fidelity" answers a query synchronously under a declared
// accuracy floor. The daemon first warms the reduced tiers of the
// fidelity lattice up to the source's fed-frame watermark (warming is
// idempotent: already-archived tier frames replay from the store), then
// lets the planner pick the cheapest archived fidelity whose calibrated
// accuracy meets the floor — live-scanning only the uncovered residual
// — or fall back to the live full-fidelity path when no tier qualifies
// or the floor demands exact answers.

import (
	"vqpy"
)

// FidelityRequest is one accuracy-budgeted synchronous query, and the
// POST /queries body of the "fidelity" mode.
type FidelityRequest struct {
	// Source / Query name the stream and the catalogue query to answer.
	Source string `json:"source"`
	Query  string `json:"query"`
	// Accuracy is the floor the answer must meet. 0 (undeclared) and 1
	// both demand exact answers, which only the live full-fidelity path
	// provides — fidelity serving is opt-in per request.
	Accuracy float64 `json:"accuracy,omitempty"`
	// Tenant is who the query's virtual cost is billed to; ignored in
	// single-tenant mode.
	Tenant string `json:"-"`
}

// FidelitySummary is the wire-level fidelity-query reply.
type FidelitySummary struct {
	Source   string  `json:"source"`
	Query    string  `json:"query"`
	Accuracy float64 `json:"accuracy"`
	// Frames is the fed-frame watermark the query spanned.
	Frames int `json:"frames"`
	// Chosen is the winning candidate's tier key ("live/full" for the
	// live path); Live mirrors it as a flag. EstimatedAccuracy and
	// CostMS are the winner's priced effective accuracy and virtual
	// cost at decision time.
	Chosen            string  `json:"chosen"`
	Live              bool    `json:"live"`
	EstimatedAccuracy float64 `json:"estimated_accuracy"`
	CostMS            float64 `json:"cost_ms"`
	// ReplayedFrames / DegradedFrames / ResidualFrames break down how
	// the frames were answered: from the tier archive at bookkeeping
	// cost, degraded live after archive misses, or live past coverage.
	ReplayedFrames int `json:"replayed_frames"`
	DegradedFrames int `json:"degraded_frames"`
	ResidualFrames int `json:"residual_frames"`
	// SkippedUnreadable lists archived tiers the planner probed and
	// found unreadable (store read faults) — they were priced out, not
	// trusted.
	SkippedUnreadable []string `json:"skipped_unreadable,omitempty"`
	// Candidates is the full priced field the decision chose from.
	Candidates    []vqpy.FidelityCandidate `json:"candidates"`
	MatchedFrames int                      `json:"matched_frames"`
	Hits          int                      `json:"hits"`
	VirtualMS     float64                  `json:"virtual_ms"`
}

// FidelityQuery answers one accuracy-budgeted query over a source's
// fed frames. Requires the daemon to run with -store (the index is not
// involved); refused in fleet mode and while draining. Synchronous like
// Search, and like it holds no lock a tick needs; warmed tiers replay
// from the store so repeat queries are cheap.
func (s *Server) FidelityQuery(req FidelityRequest) (*FidelitySummary, error) {
	q, err := BuildQuery(req.Query)
	if err != nil {
		return nil, err
	}
	var sum *FidelitySummary
	err = s.runSync(&fidelityMode, req.Tenant, req.Source, func(sess *vqpy.Session, v *vqpy.Video, fed int) error {
		// Warm the reduced tiers of the lattice up to the fed watermark
		// (the full-fidelity head tier is skipped: archiving it would
		// cost a full pass the live fallback already prices). Warming
		// runs on the fork, so the cost lands on the source's clock like
		// live work.
		for _, fid := range vqpy.FidelityLattice("")[1:] {
			if _, err := sess.ArchiveFidelity(q, v, fid, fed, vqpy.WithStore(s.store)); err != nil {
				return err
			}
		}
		res, err := sess.ExecuteFidelity(q, v, fed,
			vqpy.WithStore(s.store), vqpy.WithMinAccuracy(req.Accuracy))
		if err != nil {
			return err
		}

		chosen := res.Decision.ChosenCandidate()
		s.counters.Add("fidelity_queries", 1)
		s.counters.Add("fidelity_replayed_frames", int64(res.ReplayedFrames))
		s.counters.Add("fidelity_degraded_frames", int64(res.DegradedFrames))
		s.counters.Add("fidelity_residual_frames", int64(res.ResidualFrames))
		if chosen.Live {
			s.counters.Add("fidelity_live_decisions", 1)
		} else {
			s.counters.Add("fidelity_tier_decisions", 1)
		}
		matched := 0
		for _, m := range res.Matched {
			if m {
				matched++
			}
		}
		sum = &FidelitySummary{
			Source: req.Source, Query: req.Query, Accuracy: req.Accuracy,
			Frames: fed,
			Chosen: chosen.Key, Live: chosen.Live,
			EstimatedAccuracy: chosen.Accuracy, CostMS: chosen.CostMS,
			ReplayedFrames: res.ReplayedFrames, DegradedFrames: res.DegradedFrames,
			ResidualFrames:    res.ResidualFrames,
			SkippedUnreadable: res.Decision.SkippedUnreadable,
			Candidates:        res.Decision.Candidates,
			MatchedFrames:     matched, Hits: len(res.Hits),
			VirtualMS: res.VirtualMS,
		}
		return nil
	})
	return sum, err
}
