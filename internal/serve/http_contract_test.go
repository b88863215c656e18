package serve

// Golden-JSON contract tests for POST /queries: the mode registry must
// dispatch every mode with its pre-registry request/response shape
// bit-for-bit intact. Each test posts the flat JSON body a client
// would send and pins the reply's exact key set (success and error
// shapes, status codes, Retry-After) so a registry change that drifts
// the wire contract fails here, not in a client.

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"testing"

	"vqpy/internal/config"
)

// postQueries posts a flat JSON body to POST /queries and decodes the
// reply into a generic map so tests can pin the exact key set.
func postQueries(t *testing.T, ts *httptest.Server, body, tenant string) (int, http.Header, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/queries", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("POST /queries %s: non-JSON reply: %v", body, err)
	}
	return resp.StatusCode, resp.Header, m
}

// checkShape pins a reply's key set: every required key present, no
// key outside required+optional (optional covers omitempty fields).
func checkShape(t *testing.T, label string, m map[string]any, required, optional []string) {
	t.Helper()
	got := make([]string, 0, len(m))
	for k := range m {
		got = append(got, k)
	}
	sort.Strings(got)
	for _, k := range required {
		if _, ok := m[k]; !ok {
			t.Errorf("%s: reply is missing required key %q (got %v)", label, k, got)
		}
	}
	for _, k := range got {
		if !slices.Contains(required, k) && !slices.Contains(optional, k) {
			t.Errorf("%s: reply has unexpected key %q", label, k)
		}
	}
}

// TestUnknownModeErrorDerivedFromRegistry pins that the unknown-mode
// error lists exactly the registered modes — both against the registry
// (so the list can never drift from dispatch) and against the literal
// current string (so registry edits are a conscious contract change).
func TestUnknownModeErrorDerivedFromRegistry(t *testing.T) {
	_, err := findQueryMode("probe")
	if err == nil {
		t.Fatal("mode \"probe\" resolved")
	}
	for _, m := range queryModes {
		if !strings.Contains(err.Error(), `"`+m.name+`"`) {
			t.Errorf("unknown-mode error %q does not list registered mode %q", err, m.name)
		}
	}
	want := `serve: unknown mode "probe" (want "attach", "search", "fidelity", "text" or "fleet")`
	if err.Error() != want {
		t.Errorf("unknown-mode error = %q, want %q", err, want)
	}

	// Over the wire it is a 400 with the same message.
	s := testServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	code, _, m := postQueries(t, ts, `{"source":"cityflow","query":"redcar","mode":"probe"}`, "")
	if code != http.StatusBadRequest {
		t.Errorf("unknown mode answered %d, want 400", code)
	}
	if m["error"] != want {
		t.Errorf("HTTP error = %q, want %q", m["error"], want)
	}
	checkShape(t, "unknown-mode", m, []string{"error"}, nil)
}

// TestQueryModeContracts drives all four registered modes over one
// daemon and pins each success reply's exact JSON shape.
func TestQueryModeContracts(t *testing.T) {
	s := testServer(t, Config{StoreDir: t.TempDir(), IndexDir: t.TempDir()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// attach (default mode): the pre-registry flat body, no "mode" key.
	code, _, m := postQueries(t, ts, `{"source":"cityflow","query":"redcar"}`, "")
	if code != http.StatusOK {
		t.Fatalf("attach answered %d: %v", code, m)
	}
	checkShape(t, "attach", m, []string{"id", "source", "query"}, []string{"tenant", "backfill"})
	if m["id"] != float64(0) || m["source"] != "cityflow" || m["query"] != "redcar" {
		t.Errorf("attach echo = %v", m)
	}

	// attach spelled explicitly, with backfill: same reply plus the flag.
	code, _, m = postQueries(t, ts, `{"source":"cityflow","query":"plates","mode":"attach","backfill":true}`, "")
	if code != http.StatusOK {
		t.Fatalf("attach+backfill answered %d: %v", code, m)
	}
	checkShape(t, "attach+backfill", m, []string{"id", "source", "query", "backfill"}, []string{"tenant"})
	if m["backfill"] != true {
		t.Errorf("backfill echo = %v", m["backfill"])
	}

	for s.Streamz().Sources[0].FramesFed < s.Streamz().Sources[0].ClipFrames {
		if err := s.StepAll(); err != nil {
			t.Fatal(err)
		}
	}

	// search: synchronous summary, no lane attach.
	code, _, m = postQueries(t, ts, `{"source":"cityflow","query":"plates","mode":"search"}`, "")
	if code != http.StatusOK {
		t.Fatalf("search answered %d: %v", code, m)
	}
	checkShape(t, "search", m,
		[]string{"source", "query", "track", "threshold", "used_index", "covered",
			"candidate_tracks", "verified_frames", "residual_frames", "search_frames",
			"matched_tracks", "matched_frames", "hits", "virtual_ms", "result"},
		[]string{"sims"})

	// fidelity: synchronous accuracy-budgeted summary.
	code, _, m = postQueries(t, ts, `{"source":"cityflow","query":"redcar","mode":"fidelity","accuracy":0.85}`, "")
	if code != http.StatusOK {
		t.Fatalf("fidelity answered %d: %v", code, m)
	}
	checkShape(t, "fidelity", m,
		[]string{"source", "query", "accuracy", "frames", "chosen", "live",
			"estimated_accuracy", "cost_ms", "replayed_frames", "degraded_frames",
			"residual_frames", "candidates", "matched_frames", "hits", "virtual_ms"},
		[]string{"skipped_unreadable"})
	if m["accuracy"] != 0.85 {
		t.Errorf("fidelity accuracy echo = %v", m["accuracy"])
	}

	// text: synchronous language query; lazy by default.
	code, _, m = postQueries(t, ts, `{"source":"cityflow","text":"red car stopped","mode":"text"}`, "")
	if code != http.StatusOK {
		t.Fatalf("text answered %d: %v", code, m)
	}
	textKeys := []string{"source", "text", "canonical", "frames", "undecided_frames",
		"vlm_calls", "vlm_frame_ratio", "matched_frames", "events", "hits", "virtual_ms"}
	checkShape(t, "text", m, textKeys, []string{"concepts", "eager"})
	if m["text"] != "red car stopped" || m["canonical"] != "red car stopped" {
		t.Errorf("text echo = %v / %v", m["text"], m["canonical"])
	}
	if _, ok := m["eager"]; ok {
		t.Error("lazy text reply carries the eager flag")
	}
	lazyCalls := m["vlm_calls"].(float64)
	lazyMatched := m["matched_frames"].(float64)

	// text eager: same verdicts, every frame asked.
	code, _, m = postQueries(t, ts, `{"source":"cityflow","text":"red car stopped","mode":"text","eager":true}`, "")
	if code != http.StatusOK {
		t.Fatalf("eager text answered %d: %v", code, m)
	}
	checkShape(t, "text+eager", m, append(slices.Clone(textKeys), "eager"), []string{"concepts"})
	if m["vlm_calls"].(float64) != m["frames"].(float64) {
		t.Errorf("eager asked %v of %v frames", m["vlm_calls"], m["frames"])
	}
	if m["vlm_calls"].(float64) <= lazyCalls {
		t.Errorf("eager calls %v not above lazy %v", m["vlm_calls"], lazyCalls)
	}
	if m["matched_frames"].(float64) != lazyMatched {
		t.Errorf("eager matched %v, lazy matched %v — parity broken", m["matched_frames"], lazyMatched)
	}

	// text parse errors are 400s carrying the vql position.
	code, _, m = postQueries(t, ts, `{"source":"cityflow","text":"purple banana","mode":"text"}`, "")
	if code != http.StatusBadRequest {
		t.Errorf("bad text answered %d, want 400", code)
	}
	if errStr, _ := m["error"].(string); !strings.HasPrefix(errStr, "vql: ") || !strings.Contains(errStr, " at 0") {
		t.Errorf("bad-text error = %q, want a positioned vql error", m["error"])
	}

	// unknown source on the text mode is a 404 like every other mode.
	code, _, m = postQueries(t, ts, `{"source":"nowhere","text":"red car stopped","mode":"text"}`, "")
	if code != http.StatusNotFound {
		t.Errorf("unknown source answered %d, want 404: %v", code, m)
	}

	// The text counters advanced: one lazy and one eager success above.
	st := s.Streamz()
	if st.Counters["text_queries"] != 2 {
		t.Errorf("text_queries counter = %d, want 2", st.Counters["text_queries"])
	}
	if st.Counters["text_vlm_calls"] <= st.Counters["text_undecided_frames"] {
		t.Errorf("counters: vlm_calls %d should exceed undecided %d (one eager run)",
			st.Counters["text_vlm_calls"], st.Counters["text_undecided_frames"])
	}
}

// TestFleetModeContracts pins the fleet rows of the one query surface:
// the "fleet" mode's reply and the shapes DELETE and GET answer for a
// fleet-wide id (a per-source id keeps its own shapes on the same
// routes).
func TestFleetModeContracts(t *testing.T) {
	s := newFleetServer(t, 0)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, _, m := postQueries(t, ts, `{"mode":"fleet","query":"redcar"}`, "")
	if code != http.StatusOK {
		t.Fatalf("fleet attach answered %d: %v", code, m)
	}
	checkShape(t, "fleet", m, []string{"id", "query", "sources"}, nil)
	if m["id"] != float64(0) || m["query"] != "redcar" {
		t.Errorf("fleet echo = %v", m)
	}
	code, _, m = postQueries(t, ts, `{"mode":"fleet","query":"redcar","source":"cityflow-cam0"}`, "")
	if code != http.StatusBadRequest {
		t.Errorf("fleet attach naming a source answered %d, want 400: %v", code, m)
	}
	code, _, m = postQueries(t, ts, `{"mode":"fleet","query":"plates"}`, "")
	if code != http.StatusNotFound {
		t.Errorf("unknown fleet query answered %d, want 404: %v", code, m)
	}
	if err := s.StepAll(); err != nil {
		t.Fatal(err)
	}
	// The per-source synchronous modes are refused on a fleet daemon by
	// one typed error, a 400 over HTTP.
	_, searchErr := s.Search(SearchRequest{Source: "cityflow-cam0", Query: "plates"})
	_, fidelityErr := s.FidelityQuery(FidelityRequest{Source: "cityflow-cam0", Query: "plates"})
	_, textErr := s.TextQuery(TextRequest{Source: "cityflow-cam0", Text: "red car"})
	for mode, err := range map[string]error{"search": searchErr, "fidelity": fidelityErr, "text": textErr} {
		if !errors.Is(err, ErrUnsupported) {
			t.Errorf("%s on a fleet daemon: %v, want ErrUnsupported", mode, err)
		}
		body := `{"mode":"` + mode + `","source":"cityflow-cam0","query":"plates","text":"red car"}`
		if code, _, m := postQueries(t, ts, body, ""); code != http.StatusBadRequest {
			t.Errorf("%s on a fleet daemon answered %d, want 400: %v", mode, code, m)
		}
	}

	do := func(method, path string) (int, map[string]any) {
		t.Helper()
		return doFleet(t, s.Handler(), method, path, "")
	}
	code, m = do("GET", "/queries/0/results")
	if code != http.StatusOK {
		t.Fatalf("fleet results answered %d: %v", code, m)
	}
	checkShape(t, "fleet results", m,
		[]string{"id", "query", "entities", "cross_camera", "min_sources", "window_sec", "per_source"}, nil)
	if m["min_sources"] != float64(2) || m["window_sec"] != float64(30) {
		t.Errorf("default predicate echo = %v / %v, want 2 / 30", m["min_sources"], m["window_sec"])
	}
	code, m = do("DELETE", "/queries/0")
	if code != http.StatusOK {
		t.Fatalf("fleet detach answered %d: %v", code, m)
	}
	checkShape(t, "fleet detach", m, []string{"id", "per_source"}, nil)
	for name, raw := range m["per_source"].(map[string]any) {
		checkShape(t, "per_source "+name, raw.(map[string]any),
			[]string{"frames_processed", "matched_frames", "hits"}, nil)
	}
	code, m = do("DELETE", "/queries/0")
	if code != http.StatusNotFound {
		t.Errorf("double fleet detach answered %d, want 404", code)
	}
	checkShape(t, "fleet 404", m, []string{"error"}, nil)
}

// TestTextModeTenantBilling pins that the text mode is charged against
// the tenant's token bucket like every registered mode: the burst-
// exceeding request answers 429 with a Retry-After hint, and an
// unknown tenant is refused outright.
func TestTextModeTenantBilling(t *testing.T) {
	s := testServer(t, Config{
		Tenants: []config.Tenant{
			{Name: "gold", Share: 3},
			{Name: "free", Share: 1, RatePerSec: 1, Burst: 2},
		},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if err := s.StepAll(); err != nil {
		t.Fatal(err)
	}

	body := `{"source":"cityflow","text":"red car stopped","mode":"text"}`
	for i := 0; i < 2; i++ {
		if code, _, m := postQueries(t, ts, body, "free"); code != http.StatusOK {
			t.Fatalf("burst text query %d answered %d: %v", i, code, m)
		}
	}
	code, hdr, m := postQueries(t, ts, body, "free")
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-burst text query answered %d, want 429: %v", code, m)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("429 without a Retry-After header")
	}
	checkShape(t, "rate-limited", m, []string{"error"}, nil)

	// The "tenant" body field works without the header, exactly as on
	// attach — the envelope decodes it before dispatch.
	code, _, _ = postQueries(t, ts, `{"source":"cityflow","text":"red car stopped","mode":"text","tenant":"gold"}`, "")
	if code != http.StatusOK {
		t.Errorf("body-tenant text query answered %d", code)
	}
	code, _, _ = postQueries(t, ts, body, "nobody")
	if code != http.StatusBadRequest {
		t.Errorf("unknown tenant answered %d, want 400", code)
	}
}

// TestQueryModes503Draining pins the draining error shape on the
// synchronous modes: 503 with the plain error body.
func TestQueryModes503Draining(t *testing.T) {
	s := testServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if err := s.StepAll(); err != nil {
		t.Fatal(err)
	}
	s.Drain()
	for _, body := range []string{
		`{"source":"cityflow","query":"redcar"}`,
		`{"source":"cityflow","text":"red car stopped","mode":"text"}`,
		`{"source":"cityflow","query":"redcar","mode":"fidelity","accuracy":0.9}`,
	} {
		code, _, m := postQueries(t, ts, body, "")
		if code != http.StatusServiceUnavailable {
			t.Errorf("draining %s answered %d, want 503: %v", body, code, m)
		}
		checkShape(t, "draining", m, []string{"error"}, nil)
	}
}
