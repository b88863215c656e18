package main

// The answer oracle. Setup computes a reference answer per (query,
// clip) with plain per-query Session.Execute / Session.Text on a fresh
// session; every workload reduces what it got to the same shape and
// compares. A mismatch is a failed operation.

import (
	"slices"

	"vqpy"
)

// answer is the observable outcome of one query over a frame range.
type answer struct {
	matched []bool
	hits    int
	count   int
	tracks  []int
}

func answerOfRun(r *vqpy.RunResult) answer {
	a := answer{matched: r.Matched}
	if r.Basic != nil {
		a.hits, a.count, a.tracks = len(r.Basic.Hits), r.Basic.Count, r.Basic.TrackIDs
	}
	return a
}

func answerOfResult(r *vqpy.Result) answer {
	return answer{matched: r.Matched, hits: len(r.Hits), count: r.Count, tracks: r.TrackIDs}
}

func answerOfText(r *vqpy.TextResult) answer {
	return answer{matched: r.Matched, hits: len(r.Hits)}
}

// equal compares per-frame verdicts, hit counts and aggregates.
func (a answer) equal(b answer) bool {
	return slices.Equal(a.matched, b.matched) && a.hits == b.hits &&
		a.count == b.count && slices.Equal(a.tracks, b.tracks)
}

func (a answer) matchedCount() int {
	n := 0
	for _, m := range a.matched {
		if m {
			n++
		}
	}
	return n
}

// newSession is how every workload opens a session: burn off, so wall
// clock measures the engine's Go code and the simulated models' cost
// is read separately, in virtual ms, from the session's ledger.
func newSession(seed uint64, tr *tracer) *vqpy.Session {
	s := vqpy.NewSession(seed)
	s.SetNoBurn(true)
	if tr != nil {
		tr.wrapRegistry(s.Registry())
	}
	return s
}

// mixReferences runs the 8-query mix per query, the plain way.
func mixReferences(seed uint64, v *vqpy.Video) ([]answer, error) {
	var out []answer
	for _, q := range mixQueries() {
		res, err := newSession(seed, nil).Execute(q, v)
		if err != nil {
			return nil, err
		}
		out = append(out, answerOfRun(res))
	}
	return out, nil
}
