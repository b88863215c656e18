package serve

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// newFleetServer builds a manual-stepping fleet daemon for tests.
func newFleetServer(t *testing.T, budgetMS float64) *Server {
	t.Helper()
	s, err := NewServer(Config{Seed: 11, Seconds: 5, Speed: 0, FleetCams: 2, BudgetMS: budgetMS}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// do runs one request against the daemon's handler.
func doFleet(t *testing.T, h http.Handler, method, path, body string) (int, map[string]any) {
	t.Helper()
	var r *http.Request
	if body != "" {
		r = httptest.NewRequest(method, path, strings.NewReader(body))
	} else {
		r = httptest.NewRequest(method, path, nil)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	out := make(map[string]any)
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatalf("%s %s: bad JSON %q: %v", method, path, w.Body.String(), err)
	}
	return w.Code, out
}

// TestFleetHTTPFlow drives a fleet-wide query end to end through the
// one query surface: attach it with mode "fleet", step the lockstep
// ticker, read the merged per-global-id results, check /streamz's fleet
// block and query rows, detach.
func TestFleetHTTPFlow(t *testing.T) {
	s := newFleetServer(t, 0)
	h := s.Handler()

	code, resp := doFleet(t, h, "POST", "/queries", `{"mode":"fleet","query":"people"}`)
	if code != http.StatusOK {
		t.Fatalf("fleet attach: %d %v", code, resp)
	}
	if n := len(resp["sources"].([]any)); n != 2 {
		t.Fatalf("fleet attach covers %d sources, want 2", n)
	}
	if id := int(resp["id"].(float64)); id != 0 {
		t.Fatalf("first fleet query id = %d, want 0", id)
	}
	// The old /fleet/queries tree is gone, not aliased.
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("POST", "/fleet/queries", strings.NewReader(`{"query":"people"}`)))
	if w.Code != http.StatusNotFound {
		t.Fatalf("POST /fleet/queries answered %d, want 404", w.Code)
	}

	for i := 0; i < 30; i++ {
		if err := s.StepAll(); err != nil {
			t.Fatal(err)
		}
	}

	code, resp = doFleet(t, h, "GET", "/queries/0/results?min_sources=2&window_sec=30", "")
	if code != http.StatusOK {
		t.Fatalf("fleet results: %d %v", code, resp)
	}
	per := resp["per_source"].(map[string]any)
	if len(per) != 2 {
		t.Fatalf("per_source = %v", per)
	}
	for name, raw := range per {
		if raw.(map[string]any)["frames_processed"].(float64) != 30 {
			t.Fatalf("source %s processed %v frames, want 30", name, raw)
		}
	}

	code, resp = doFleet(t, h, "GET", "/streamz", "")
	if code != http.StatusOK {
		t.Fatal("streamz failed")
	}
	fl, ok := resp["fleet"].(map[string]any)
	if !ok {
		t.Fatalf("streamz has no fleet block: %v", resp)
	}
	if fl["cams"].(float64) != 2 {
		t.Fatalf("fleet block cams = %v", fl["cams"])
	}
	batch := fl["batch"].(map[string]any)
	if batch["Ticks"].(float64) != 30 {
		t.Fatalf("batch ticks = %v, want 30", batch["Ticks"])
	}
	// One query, one row per camera it rides.
	rows := resp["queries"].([]any)
	onSource := make(map[string]bool)
	for _, raw := range rows {
		row := raw.(map[string]any)
		if row["id"].(float64) != 0 || row["frames"].(float64) != 30 {
			t.Fatalf("query row = %v, want id 0 over 30 frames", row)
		}
		onSource[row["source"].(string)] = true
	}
	if len(rows) != 2 || len(onSource) != 2 {
		t.Fatalf("query rows = %v, want one per camera", rows)
	}

	code, resp = doFleet(t, h, "DELETE", "/queries/0", "")
	if code != http.StatusOK || len(resp["per_source"].(map[string]any)) != 2 {
		t.Fatalf("fleet detach: %d %v", code, resp)
	}
	if code, _ = doFleet(t, h, "GET", "/queries/0/results", ""); code != http.StatusNotFound {
		t.Fatalf("detached fleet query still readable: %d", code)
	}
}

// TestFleetAttachAdmission checks budget enforcement across sources: a
// fleet attach whose per-camera estimate exceeds any camera's budget is
// rejected with the admission error and leaves no lanes behind.
func TestFleetAttachAdmission(t *testing.T) {
	s := newFleetServer(t, 0.001)
	var adm *ErrAdmission
	if _, err := s.Attach(AttachRequest{Query: "redcar", Fleet: true}); !errors.As(err, &adm) {
		t.Fatalf("fleet attach over budget = %v, want ErrAdmission", err)
	}
	st := s.Streamz()
	if len(st.Queries) != 0 {
		t.Fatalf("rejected attach left queries: %+v", st.Queries)
	}
	for _, src := range st.Sources {
		if len(src.Lanes) != 0 || src.Queries != 0 {
			t.Fatalf("rejected attach left lanes on %s", src.Name)
		}
	}
}

// TestFleetSurfaceDisabledWithoutFleetMode checks mode "fleet" answers
// 404 on a per-source daemon.
func TestFleetSurfaceDisabledWithoutFleetMode(t *testing.T) {
	s, err := NewServer(Config{Seed: 1, Seconds: 2, Speed: 0}, []string{"cityflow"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	code, _ := doFleet(t, s.Handler(), "POST", "/queries", `{"mode":"fleet","query":"people"}`)
	if code != http.StatusNotFound {
		t.Fatalf("fleet attach on per-source daemon: %d, want 404", code)
	}
}

// stepUntilDone drives a manual-stepping daemon to the end of every clip.
func stepUntilDone(t *testing.T, s *Server) {
	t.Helper()
	for {
		done := true
		for _, src := range s.Streamz().Sources {
			done = done && src.Done
		}
		if done {
			return
		}
		if err := s.StepAll(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFleetCrossCameraOverHTTP runs the planted-traveler scenario to
// completion and checks the merged view surfaces a cross-camera entity.
func TestFleetCrossCameraOverHTTP(t *testing.T) {
	s, err := NewServer(Config{Seed: 7, Seconds: 8, Speed: 0, FleetCams: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	if _, err := s.Attach(AttachRequest{Query: "redcar", Fleet: true}); err != nil {
		t.Fatal(err)
	}
	stepUntilDone(t, s)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/queries/0/results?min_sources=2&window_sec=30", nil))
	var view FleetResultView
	if err := json.Unmarshal(w.Body.Bytes(), &view); err != nil || w.Code != http.StatusOK {
		t.Fatalf("fleet results: %d %q: %v", w.Code, w.Body.String(), err)
	}
	if len(view.Entities) == 0 {
		t.Fatal("no merged entities")
	}
	if len(view.CrossCamera) == 0 {
		t.Fatal("planted traveler not matched across cameras")
	}
	st := s.Streamz()
	if st.Fleet.CrossCamera < 1 {
		t.Fatalf("registry cross-camera count = %d", st.Fleet.CrossCamera)
	}
	if st.Fleet.Batch.Batched == 0 {
		t.Fatal("no batched invocations in fleet mode")
	}
}

// TestMixedQueryTable attaches one per-camera query and one fleet-wide
// query on a fleet daemon: both live in the one table, so ids are dense,
// each source's admission load is the sum over both, and a drain
// finalizes each exactly once.
func TestMixedQueryTable(t *testing.T) {
	s := newFleetServer(t, 0)
	cams := s.SourceNamesRegistered()
	one, err := s.AttachNamed(cams[0], "people")
	if err != nil {
		t.Fatal(err)
	}
	wide, err := s.Attach(AttachRequest{Query: "redcar", Fleet: true})
	if err != nil {
		t.Fatal(err)
	}
	if one != 0 || wide != 1 {
		t.Fatalf("ids = %d, %d, want 0, 1", one, wide)
	}
	for i := 0; i < 5; i++ {
		if err := s.StepAll(); err != nil {
			t.Fatal(err)
		}
	}

	st := s.Streamz()
	load := make(map[string]float64)
	lanes := make(map[string]int)
	for _, row := range st.Queries {
		load[row.Source] += row.EstMS
		lanes[row.Source]++
	}
	if len(st.Queries) != 1+len(cams) {
		t.Fatalf("query rows = %+v, want 1 per-camera + %d fleet lanes", st.Queries, len(cams))
	}
	for i, src := range st.Sources {
		want := 1
		if i == 0 {
			want = 2
		}
		if src.Queries != want || len(src.Lanes) != want || lanes[src.Name] != want {
			t.Errorf("%s: %d resident, %d lanes, %d rows, want %d", src.Name, src.Queries, len(src.Lanes), lanes[src.Name], want)
		}
		if math.Abs(src.EstLoadMS-load[src.Name]) > 1e-9 || src.EstLoadMS <= 0 {
			t.Errorf("%s: est load %.6f, its query rows sum to %.6f", src.Name, src.EstLoadMS, load[src.Name])
		}
	}

	sum := s.Drain()
	if sum.QueriesDetached != 2 || len(sum.Results) != 2 {
		t.Fatalf("drain = %+v, want both queries finalized once", sum)
	}
	if got := sum.Results[one]; len(got) != 1 || got[cams[0]].FramesProcessed != 5 {
		t.Errorf("per-camera final = %+v", got)
	}
	if got := sum.Results[wide]; len(got) != len(cams) || got[cams[1]].FramesProcessed != 5 {
		t.Errorf("fleet finals = %+v", got)
	}
	if got := s.counters.Get("queries_detached"); got != 2 {
		t.Errorf("queries_detached = %d, want 2", got)
	}
}

// TestResultsParamValidation pins GET /queries/{id}/results' parameter
// checks: malformed, non-finite or negative values and parameters that
// do not apply to the query's kind are 400s, never ignored.
func TestResultsParamValidation(t *testing.T) {
	s := newFleetServer(t, 0)
	h := s.Handler()
	one, err := s.AttachNamed(s.SourceNamesRegistered()[0], "people")
	if err != nil {
		t.Fatal(err)
	}
	wide, err := s.Attach(AttachRequest{Query: "people", Fleet: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.StepAll(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		id    int
		query string
		want  int
	}{
		{wide, "", 200},
		{wide, "?min_sources=0&window_sec=0", 200},
		{wide, "?min_sources=3&window_sec=1.5", 200},
		{wide, "?window_sec=NaN", 400},
		{wide, "?window_sec=Inf", 400},
		{wide, "?window_sec=-1", 400},
		{wide, "?window_sec=soon", 400},
		{wide, "?min_sources=-1", 400},
		{wide, "?min_sources=two", 400},
		{wide, "?since=3", 400},
		{one, "", 200},
		{one, "?since=3", 200},
		{one, "?since=x", 400},
		{one, "?min_sources=2", 400},
		{one, "?window_sec=30", 400},
	} {
		path := "/queries/" + strconv.Itoa(tc.id) + "/results" + tc.query
		code, resp := doFleet(t, h, "GET", path, "")
		if code != tc.want {
			t.Errorf("GET %s = %d %v, want %d", path, code, resp, tc.want)
		}
		if _, isErr := resp["error"]; isErr != (tc.want != 200) {
			t.Errorf("GET %s: reply %v does not match status %d", path, resp, tc.want)
		}
	}
}

// TestFleetSingleSourceStepRefused pins the lockstep rule: stepping
// one camera of a fleet would feed it outside the batch window and out
// of lockstep, so Step must refuse and point at StepAll.
func TestFleetSingleSourceStepRefused(t *testing.T) {
	s := newFleetServer(t, 0)
	name := s.SourceNamesRegistered()[0]
	if err := s.Step(name); err == nil {
		t.Fatal("single-source Step on a fleet daemon must be refused")
	}
	if err := s.StepAll(); err != nil {
		t.Fatal(err)
	}
}
