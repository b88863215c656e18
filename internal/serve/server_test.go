package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"vqpy"
)

func testServer(t *testing.T, cfg Config, sources ...string) *Server {
	t.Helper()
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}
	if cfg.Seconds == 0 {
		cfg.Seconds = 4
	}
	if len(sources) == 0 {
		sources = []string{"cityflow"}
	}
	s, err := NewServer(cfg, sources)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// cityflowResult reads the live result of a query riding cityflow.
func cityflowResult(t *testing.T, s *Server, id int) *vqpy.Result {
	t.Helper()
	res, err := s.Results("", id)
	if err != nil {
		t.Fatal(err)
	}
	return res["cityflow"]
}

// TestServerAttachDetachFlow drives the whole serving flow in-process:
// register two queries sharing one scan group, feed frames, read live
// results, detach one and check the group shrinks without disturbing
// the other.
func TestServerAttachDetachFlow(t *testing.T) {
	s := testServer(t, Config{})

	red, err := s.AttachNamed("cityflow", "redcar")
	if err != nil {
		t.Fatal(err)
	}
	plates, err := s.AttachNamed("cityflow", "plates")
	if err != nil {
		t.Fatal(err)
	}
	st := s.Streamz()
	if len(st.Sources) != 1 || st.Sources[0].Queries != 2 {
		t.Fatalf("streamz sources = %+v", st.Sources)
	}
	if len(st.Sources[0].GroupMembers) != 1 || st.Sources[0].GroupMembers[0] != 2 {
		t.Fatalf("group members = %v, want [2] (redcar+plates share the car scan)", st.Sources[0].GroupMembers)
	}

	for i := 0; i < 10; i++ {
		if err := s.StepAll(); err != nil {
			t.Fatal(err)
		}
	}
	snaps, err := s.Results("", red)
	if err != nil {
		t.Fatal(err)
	}
	if snap := snaps["cityflow"]; snap.FramesProcessed != 10 {
		t.Errorf("live result frames = %d, want 10", snap.FramesProcessed)
	}

	finals, err := s.Detach("", plates)
	if err != nil {
		t.Fatal(err)
	}
	if final := finals["cityflow"]; final.FramesProcessed != 10 || final.Query != "Plates" {
		t.Errorf("final result = %s over %d frames", final.Query, final.FramesProcessed)
	}
	st = s.Streamz()
	if got := st.Sources[0].GroupMembers; len(got) != 1 || got[0] != 1 {
		t.Errorf("group members after detach = %v, want [1]", got)
	}
	if _, err := s.Detach("", plates); !errors.Is(err, ErrNotFound) {
		t.Errorf("double detach error = %v, want ErrNotFound", err)
	}
	if _, err := s.Results("", red); err != nil {
		t.Errorf("surviving query unreadable after sibling detach: %v", err)
	}
	if got := s.counters.Get("queries_attached"); got != 2 {
		t.Errorf("queries_attached = %d", got)
	}
}

// TestServerAdmission checks the virtual-time budget: a tiny budget
// admits the first query and rejects the second with ErrAdmission.
func TestServerAdmission(t *testing.T) {
	s := testServer(t, Config{BudgetMS: 40})
	if _, err := s.AttachNamed("cityflow", "redcar"); err != nil {
		t.Fatalf("first attach rejected: %v", err)
	}
	_, err := s.AttachNamed("cityflow", "people")
	var adm *ErrAdmission
	if !errors.As(err, &adm) {
		t.Fatalf("second attach error = %v, want ErrAdmission", err)
	}
	if adm.BudgetMS != 40 || adm.ResidentQueries != 1 {
		t.Errorf("admission detail = %+v", adm)
	}
	// The rejected query left no lane behind.
	if st := s.Streamz(); st.Sources[0].Queries != 1 || len(st.Sources[0].Lanes) != 1 {
		t.Errorf("rejected attach leaked a lane: %+v", st.Sources[0])
	}
	if got := s.counters.Get("admission_rejected"); got != 1 {
		t.Errorf("admission_rejected = %d", got)
	}
}

// TestServerLoopAndDone pins the two end-of-clip behaviours: without
// Loop the source stops feeding; with Loop it wraps.
func TestServerLoopAndDone(t *testing.T) {
	s := testServer(t, Config{Seconds: 1})
	n := len(s.sources["cityflow"].video.Frames)
	for i := 0; i < n+5; i++ {
		if err := s.StepAll(); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Streamz(); !st.Sources[0].Done || st.Sources[0].FramesFed != n {
		t.Errorf("non-loop source: done=%v fed=%d want fed=%d", st.Sources[0].Done, st.Sources[0].FramesFed, n)
	}

	lp := testServer(t, Config{Seconds: 1, Loop: true, Seed: 7})
	for i := 0; i < n+5; i++ {
		if err := lp.StepAll(); err != nil {
			t.Fatal(err)
		}
	}
	if st := lp.Streamz(); st.Sources[0].Done || st.Sources[0].FramesFed != n+5 {
		t.Errorf("loop source: done=%v fed=%d want fed=%d", st.Sources[0].Done, st.Sources[0].FramesFed, n+5)
	}
}

// TestHTTPFlow exercises the daemon's wire surface end to end against a
// httptest server: attach via POST, read /streamz and live results,
// detach via DELETE, and check the error statuses (404 unknown query
// name and id, 503 admission).
func TestHTTPFlow(t *testing.T) {
	s := testServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(body string) (*http.Response, attachResponse) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/queries", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var out attachResponse
		_ = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		return resp, out
	}

	resp, red := post(`{"source":"cityflow","query":"redcar"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("attach status = %d", resp.StatusCode)
	}
	resp, _ = post(`{"source":"cityflow","query":"plates"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("attach status = %d", resp.StatusCode)
	}
	if resp, _ := post(`{"source":"cityflow","query":"nonsense"}`); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown query status = %d, want 404", resp.StatusCode)
	}
	if resp, _ := post(`{"source":"mars","query":"redcar"}`); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown source status = %d, want 404", resp.StatusCode)
	}

	for i := 0; i < 6; i++ {
		if err := s.StepAll(); err != nil {
			t.Fatal(err)
		}
	}

	var st Stats
	resp2, err := http.Get(ts.URL + "/streamz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp2.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if len(st.Sources) != 1 || st.Sources[0].Queries != 2 {
		t.Fatalf("streamz = %+v", st.Sources)
	}
	if got := st.Sources[0].GroupMembers; len(got) != 1 || got[0] != 2 {
		t.Errorf("streamz group members = %v, want [2]", got)
	}

	resp3, err := http.Get(ts.URL + "/queries/" + itoa(red.ID) + "/results")
	if err != nil {
		t.Fatal(err)
	}
	var live resultResponse
	if err := json.NewDecoder(resp3.Body).Decode(&live); err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if live.FramesProcessed != 6 {
		t.Errorf("live frames = %d, want 6", live.FramesProcessed)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/queries/"+itoa(red.ID), nil)
	resp4, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var fin resultResponse
	if err := json.NewDecoder(resp4.Body).Decode(&fin); err != nil {
		t.Fatal(err)
	}
	resp4.Body.Close()
	if resp4.StatusCode != http.StatusOK || fin.FramesProcessed != 6 {
		t.Errorf("detach = %d, frames %d", resp4.StatusCode, fin.FramesProcessed)
	}

	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/queries/"+itoa(red.ID), nil)
	resp5, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp5.Body.Close()
	if resp5.StatusCode != http.StatusNotFound {
		t.Errorf("double delete status = %d, want 404", resp5.StatusCode)
	}
}

// TestHTTPAdmission503 maps budget rejection onto the wire.
func TestHTTPAdmission503(t *testing.T) {
	s := testServer(t, Config{BudgetMS: 40})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/queries", "application/json",
		strings.NewReader(`{"source":"cityflow","query":"redcar"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first attach status = %d", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/queries", "application/json",
		strings.NewReader(`{"source":"cityflow","query":"people"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("over-budget attach status = %d, want 503", resp.StatusCode)
	}
}

// TestTickerRunsConcurrentlyWithAttach starts the real ticker and
// attaches/detaches against it — the daemon's actual concurrency shape,
// exercised under -race in CI.
func TestTickerRunsConcurrentlyWithAttach(t *testing.T) {
	s := testServer(t, Config{Seconds: 2, Speed: 200, Loop: true})
	s.Run()
	for i := 0; i < 5; i++ {
		id, err := s.AttachNamed("cityflow", "redcar")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Results("", id); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Detach("", id); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Streamz().Sources[0].FramesFed == 0 {
		if time.Now().After(deadline) {
			t.Fatal("ticker fed no frames within 5s")
		}
		time.Sleep(time.Millisecond)
	}
	s.Close()
}

func itoa(v int) string { return strconv.Itoa(v) }
