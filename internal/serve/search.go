package serve

// Archive search (DESIGN.md §10): POST /queries with "mode":"search"
// answers "find this object anywhere in the archive" synchronously —
// no lane is attached. Each search first brings the archive and the
// appearance index up to the source's fed-frame watermark (warming is
// idempotent: already-archived frames replay from the store, extraction
// resumes from its coverage watermark and embeds only unseen tracks),
// then runs probe-then-verify through the library's Search path. The
// first search over a cold archive pays one full store-backed pass;
// every later search probes.

import (
	"fmt"

	"vqpy"
)

// SearchRequest is one archive-search invocation, and the POST /queries
// body of the "search" mode.
type SearchRequest struct {
	// Source / Query name the stream and the catalogue query whose scan
	// group defines the archive to search.
	Source string `json:"source"`
	Query  string `json:"query"`
	// Track is the exemplar: search returns frames whose appearance
	// matches this indexed track. Nil picks the index's deterministic
	// exemplar.
	Track *int `json:"track,omitempty"`
	// Threshold is the cosine match bar (0 uses the library default);
	// TopK keeps only the best-ranked matching tracks (0 keeps all).
	Threshold float64 `json:"threshold,omitempty"`
	TopK      int     `json:"topk,omitempty"`
	// Tenant is who the query's virtual cost is billed to; ignored in
	// single-tenant mode.
	Tenant string `json:"-"`
}

// SearchSummary is the wire-level search reply.
type SearchSummary struct {
	Source    string  `json:"source"`
	Query     string  `json:"query"`
	Track     int     `json:"track"`
	Threshold float64 `json:"threshold"`
	// UsedIndex reports the probe-then-verify path ran; Covered is the
	// index's extracted frame prefix at search time.
	UsedIndex bool `json:"used_index"`
	Covered   int  `json:"covered"`
	// CandidateTracks / VerifiedFrames / ResidualFrames / SearchFrames
	// quantify the pruning: of SearchFrames searched, VerifiedFrames
	// were executed (candidate frames verified plus the ResidualFrames
	// full-scanned past coverage); the rest were pruned by the probe.
	CandidateTracks int `json:"candidate_tracks"`
	VerifiedFrames  int `json:"verified_frames"`
	ResidualFrames  int `json:"residual_frames"`
	SearchFrames    int `json:"search_frames"`
	// MatchedTracks (best-ranked first) and Sims are the appearance
	// join's verdict; MatchedFrames and Hits count the surviving frames.
	MatchedTracks []int           `json:"matched_tracks"`
	Sims          map[int]float64 `json:"sims,omitempty"`
	MatchedFrames int             `json:"matched_frames"`
	Hits          int             `json:"hits"`
	VirtualMS     float64         `json:"virtual_ms"`
	// Result is the library result with its compiled IR stripped (the
	// IR holds predicate closures, which do not serialize).
	Result *vqpy.SearchResult `json:"result"`
}

// Search answers one archive search over a source's fed frames.
// Requires the daemon to run with -store and -index; refused in fleet
// mode and while draining. The call is synchronous but holds no lock a
// tick needs (see runSync): frames keep flowing on every source while
// it runs, and searches on one source run one at a time (the warm pass
// replays archived frames, so a warm search is cheap).
func (s *Server) Search(req SearchRequest) (*SearchSummary, error) {
	q, err := BuildQuery(req.Query)
	if err != nil {
		return nil, err
	}
	var sum *SearchSummary
	err = s.runSync(&searchMode, req.Tenant, req.Source, func(sess *vqpy.Session, v *vqpy.Video, fed int) error {
		// Bring archive coverage and the index up to the fed watermark,
		// then search. All three run on the fork, so the cost lands on
		// the source's clock like the live work does.
		if err := sess.WarmSearchArchive(q, v, fed, vqpy.WithStore(s.store)); err != nil {
			return err
		}
		if _, err := sess.IndexArchive(s.index, q, v, fed, vqpy.WithStore(s.store)); err != nil {
			return err
		}
		spec := vqpy.SearchSpec{Query: q, Threshold: req.Threshold, TopK: req.TopK, Frames: fed}
		if req.Track != nil {
			spec.Track = *req.Track
		} else {
			ex, ok := s.index.Exemplar()
			if !ok {
				return fmt.Errorf("serve: index holds no embeddable exemplar; pass \"track\" explicitly")
			}
			spec.Track = ex.Track
		}
		res, err := sess.Search(v, spec, vqpy.WithStore(s.store), vqpy.WithIndex(s.index))
		if err != nil {
			return err
		}

		s.counters.Add("searches", 1)
		s.counters.Add("search_frames", int64(fed))
		s.counters.Add("search_verified_frames", int64(res.VerifiedFrames))
		s.counters.Add("search_residual_frames", int64(res.ResidualFrames))
		matched := 0
		for _, m := range res.Matched {
			if m {
				matched++
			}
		}
		wire := *res
		wire.IR = nil
		sum = &SearchSummary{
			Source: req.Source, Query: req.Query, Track: spec.Track,
			Threshold: res.IR.Probe.Threshold,
			UsedIndex: res.UsedIndex, Covered: res.Covered,
			CandidateTracks: res.CandidateTracks,
			VerifiedFrames:  res.VerifiedFrames, ResidualFrames: res.ResidualFrames,
			SearchFrames:  fed,
			MatchedTracks: res.MatchedTracks, Sims: res.Sims,
			MatchedFrames: matched, Hits: len(res.Hits),
			VirtualMS: res.VirtualMS, Result: &wire,
		}
		return nil
	})
	return sum, err
}
