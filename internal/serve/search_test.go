package serve

// Archive-search tests of the serving daemon: the synchronous
// POST /queries mode=search path, the /streamz index block, and the
// configuration contract (-index requires -store, no fleet mode).

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// TestArchiveSearchOverHTTP drives the full index-then-verify loop over
// the wire: feed the clip, search once (the warm pass archives and
// extracts, so even the first search probes), search again by the
// resolved track, and read the index block off /streamz.
func TestArchiveSearchOverHTTP(t *testing.T) {
	s := testServer(t, Config{StoreDir: t.TempDir(), IndexDir: t.TempDir()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for s.Streamz().Sources[0].FramesFed < s.Streamz().Sources[0].ClipFrames {
		if err := s.StepAll(); err != nil {
			t.Fatal(err)
		}
	}
	fed := s.Streamz().Sources[0].FramesFed

	search := func(body string) SearchSummary {
		t.Helper()
		resp, err := http.Post(ts.URL+"/queries", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /queries (search) status %d", resp.StatusCode)
		}
		var sum SearchSummary
		if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
			t.Fatal(err)
		}
		return sum
	}

	first := search(`{"source":"cityflow","query":"plates","mode":"search"}`)
	if !first.UsedIndex || first.Covered != fed {
		t.Fatalf("first search: used_index=%v covered=%d, want probe path over %d fed frames",
			first.UsedIndex, first.Covered, fed)
	}
	if first.SearchFrames != fed || first.VerifiedFrames >= fed {
		t.Errorf("first search verified %d of %d frames: no pruning", first.VerifiedFrames, first.SearchFrames)
	}
	if first.ResidualFrames != 0 {
		t.Errorf("fully-extracted search ran %d residual frames", first.ResidualFrames)
	}

	// Searching again by the resolved exemplar track must answer the
	// same way (and cheaper: the archive and index are warm).
	second := search(`{"source":"cityflow","query":"plates","mode":"search","track":` +
		jsonInt(first.Track) + `}`)
	if !second.UsedIndex {
		t.Error("second search did not use the index")
	}
	if !reflect.DeepEqual(first.MatchedTracks, second.MatchedTracks) {
		t.Errorf("matched tracks changed across searches: %v vs %v", first.MatchedTracks, second.MatchedTracks)
	}
	if second.MatchedFrames != first.MatchedFrames || second.Hits != first.Hits {
		t.Errorf("search answers changed: %d/%d frames, %d/%d hits",
			second.MatchedFrames, first.MatchedFrames, second.Hits, first.Hits)
	}

	var st Stats
	resp, err := http.Get(ts.URL + "/streamz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Index == nil {
		t.Fatal("streamz has no index block under -index")
	}
	if st.Index.Searches != 2 || st.Index.Stats.Probes < 2 {
		t.Errorf("index block: searches=%d probes=%d, want 2 searches with probes", st.Index.Searches, st.Index.Stats.Probes)
	}
	if st.Index.Stats.Entries == 0 || st.Index.Stats.CoveredRanges == 0 {
		t.Errorf("index block reports an empty index after extraction: %+v", st.Index.Stats)
	}
	if st.Index.PrunedFrameRatio <= 0 {
		t.Errorf("pruned_frame_ratio = %g, want > 0", st.Index.PrunedFrameRatio)
	}
}

func jsonInt(v int) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// TestSearchRequiresStoreAndIndex pins the error shapes of the search
// mode and the config contract of -index.
func TestSearchRequiresStoreAndIndex(t *testing.T) {
	// Search without an index is refused (HTTP 400 via the handler).
	s := testServer(t, Config{StoreDir: t.TempDir()})
	if err := s.StepAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Search(SearchRequest{Source: "cityflow", Query: "plates"}); err == nil {
		t.Error("search without -index should fail")
	}

	// An unknown mode is a 400, not a silent attach.
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/queries", "application/json",
		strings.NewReader(`{"source":"cityflow","query":"plates","mode":"probe"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown mode answered %d, want 400", resp.StatusCode)
	}

	// -index without -store refuses to construct.
	if _, err := NewServer(Config{Seed: 1, Seconds: 2, IndexDir: t.TempDir()}, []string{"cityflow"}); err == nil {
		t.Error("IndexDir without StoreDir should fail construction")
	}
	// Fleet mode combines with neither the store nor the index, and one
	// typed refusal names both.
	_, err = NewServer(Config{Seed: 1, Seconds: 2, FleetCams: 2,
		StoreDir: t.TempDir(), IndexDir: t.TempDir()}, nil)
	if !errors.Is(err, ErrUnsupported) || !strings.Contains(err.Error(), "-store") || !strings.Contains(err.Error(), "-index") {
		t.Errorf("FleetCams with StoreDir and IndexDir: %v, want ErrUnsupported naming both", err)
	}

	// Searching a source with no fed frames is refused.
	s2 := testServer(t, Config{StoreDir: t.TempDir(), IndexDir: t.TempDir()})
	if _, err := s2.Search(SearchRequest{Source: "cityflow", Query: "plates"}); err == nil {
		t.Error("search before any frame was fed should fail")
	}
}
