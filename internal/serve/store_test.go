package serve

// Persistence tests of the serving daemon: warm restarts over a store
// directory, backfill attaches (in-process and over HTTP) and the
// ?since= delta read path.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// TestWarmRestartServesFromStore runs one daemon over a store directory
// to the end of its clip, shuts it down, and starts a second one over
// the same directory: the second scan must do strictly less model work
// (its frames replay from the archive) while answering identically.
func TestWarmRestartServesFromStore(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Seed: 42, Seconds: 4, StoreDir: dir}

	runPass := func() (matched int, virtualMS float64) {
		s := testServer(t, cfg)
		id, err := s.AttachNamed("cityflow", "redcar")
		if err != nil {
			t.Fatal(err)
		}
		for s.Streamz().Sources[0].FramesFed < s.Streamz().Sources[0].ClipFrames {
			if err := s.StepAll(); err != nil {
				t.Fatal(err)
			}
		}
		res := cityflowResult(t, s, id)
		st := s.Streamz()
		return res.MatchedCount(), st.Sources[0].VirtualMS
	}

	coldMatched, coldMS := runPass()
	warmMatched, warmMS := runPass()
	if warmMatched != coldMatched {
		t.Errorf("warm restart changed answers: %d matched vs %d", warmMatched, coldMatched)
	}
	if warmMS >= coldMS {
		t.Errorf("warm restart did not reduce model work: %.1f ms vs %.1f ms", warmMS, coldMS)
	}
	if warmMS > coldMS/2 {
		t.Errorf("warm restart only reached %.1f ms vs cold %.1f ms; expected the scan to replay from the store", warmMS, coldMS)
	}
}

// TestBackfillAttachOverStore checks the in-process backfill path: a
// query attached mid-clip with AttachNamedBackfill reports results for
// every frame fed so far, identical to a resident sibling's view of the
// stream length.
func TestBackfillAttachOverStore(t *testing.T) {
	s := testServer(t, Config{Seed: 42, Seconds: 4, StoreDir: t.TempDir()})

	resident, err := s.AttachNamed("cityflow", "redcar")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if err := s.StepAll(); err != nil {
			t.Fatal(err)
		}
	}
	late, err := s.Attach(AttachRequest{Source: "cityflow", Query: "plates", Backfill: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := s.StepAll(); err != nil {
			t.Fatal(err)
		}
	}
	resResident, resLate := cityflowResult(t, s, resident), cityflowResult(t, s, late)
	if resLate.FramesProcessed != resResident.FramesProcessed {
		t.Errorf("backfilled query covers %d frames, resident covers %d",
			resLate.FramesProcessed, resResident.FramesProcessed)
	}
	if got := s.counters.Get("queries_backfilled"); got != 1 {
		t.Errorf("queries_backfilled = %d, want 1", got)
	}
}

// TestBackfillRequiresStore pins the error shape: without -store the
// backfill attach is refused.
func TestBackfillRequiresStore(t *testing.T) {
	s := testServer(t, Config{})
	if _, err := s.Attach(AttachRequest{Source: "cityflow", Query: "redcar", Backfill: true}); err == nil {
		t.Fatal("backfill without a store should fail")
	}
}

// TestResultsSinceFiltersHits checks the delta read path: ?since=F
// returns only hits at frame F or later, leaving aggregates whole.
func TestResultsSinceFiltersHits(t *testing.T) {
	s := testServer(t, Config{Seed: 42, Seconds: 4})
	id, err := s.AttachNamed("cityflow", "plates")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if err := s.StepAll(); err != nil {
			t.Fatal(err)
		}
	}
	full := cityflowResult(t, s, id)
	if len(full.Hits) < 2 {
		t.Fatalf("workload produced %d hits; need at least 2 to split", len(full.Hits))
	}
	cut := full.Hits[len(full.Hits)/2].FrameIdx
	delta := hitsSince(cityflowResult(t, s, id), cut)
	if len(delta.Hits) == 0 || len(delta.Hits) >= len(full.Hits) {
		t.Fatalf("since=%d returned %d of %d hits", cut, len(delta.Hits), len(full.Hits))
	}
	for _, h := range delta.Hits {
		if h.FrameIdx < cut {
			t.Errorf("hit at frame %d leaked past since=%d", h.FrameIdx, cut)
		}
	}
	if delta.FramesProcessed != full.FramesProcessed {
		t.Errorf("since filtering must not change FramesProcessed: %d vs %d",
			delta.FramesProcessed, full.FramesProcessed)
	}
}

// TestHTTPBackfillAndSince drives the persistence surface over HTTP:
// backfill attach via POST body, delta reads via ?since=, and the store
// block in /streamz.
func TestHTTPBackfillAndSince(t *testing.T) {
	s := testServer(t, Config{Seed: 42, Seconds: 4, StoreDir: t.TempDir()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(body string) attachResponse {
		t.Helper()
		resp, err := http.Post(ts.URL+"/queries", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /queries status %d", resp.StatusCode)
		}
		var ar attachResponse
		if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
			t.Fatal(err)
		}
		return ar
	}

	post(`{"source":"cityflow","query":"redcar"}`)
	for i := 0; i < 12; i++ {
		if err := s.StepAll(); err != nil {
			t.Fatal(err)
		}
	}
	late := post(`{"source":"cityflow","query":"plates","backfill":true}`)
	if !late.Backfill {
		t.Error("attach response should echo backfill")
	}

	resp, err := http.Get(ts.URL + "/queries/" + strconv.Itoa(late.ID) + "/results?since=6")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rr resultResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	if rr.FramesProcessed != 12 {
		t.Errorf("backfilled query processed %d frames over HTTP, want 12", rr.FramesProcessed)
	}
	for _, h := range rr.Result.Hits {
		if h.FrameIdx < 6 {
			t.Errorf("hit at frame %d leaked past since=6", h.FrameIdx)
		}
	}

	var st Stats
	resp2, err := http.Get(ts.URL + "/streamz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if err := json.NewDecoder(resp2.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Store == nil || st.Store.Tiers.ScanRecords == 0 {
		t.Fatalf("streamz store block missing or empty: %+v", st.Store)
	}
}
