package serve

// Failure-domain behavior of the daemon: graceful drain, health
// surfaces, stall quarantine and breaker-driven degradation. The
// underlying mechanics (retry, breakers, fallback tiers) are tested in
// internal/fault and at the repo root; these tests pin the daemon's
// view of them.

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"vqpy"
)

// TestDrainLifecycle: Drain finalizes live queries, flips the daemon
// into a terminal draining state that refuses new work, and leaves
// Close a no-op.
func TestDrainLifecycle(t *testing.T) {
	s := testServer(t, Config{})
	id, err := s.AttachNamed("cityflow", "redcar")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := s.StepAll(); err != nil {
			t.Fatal(err)
		}
	}

	sum := s.Drain()
	if sum.QueriesDetached != 1 {
		t.Fatalf("drained %d queries, want 1", sum.QueriesDetached)
	}
	res := sum.Results[id]["cityflow"]
	if res == nil || res.FramesProcessed != 5 {
		t.Fatalf("drain result for query %d = %+v", id, res)
	}

	if _, err := s.AttachNamed("cityflow", "plates"); !errors.Is(err, ErrDraining) {
		t.Errorf("attach after drain = %v, want ErrDraining", err)
	}
	if err := s.StepAll(); !errors.Is(err, ErrDraining) {
		t.Errorf("step after drain = %v, want ErrDraining", err)
	}
	if s.Ready() {
		t.Error("drained daemon still reports ready")
	}
	if h := s.Health(); h.Status != "draining" || !h.Draining {
		t.Errorf("health after drain = %+v", h)
	}

	// A second drain and the deferred Close must both be no-ops.
	if again := s.Drain(); again.QueriesDetached != 0 {
		t.Errorf("second drain detached %d queries", again.QueriesDetached)
	}
	s.Close()
}

// TestHealthEndpointsAcrossDrain: /healthz answers 200 through the
// whole lifecycle (liveness), /readyz flips to 503 the moment the
// daemon drains (traffic routing).
func TestHealthEndpointsAcrossDrain(t *testing.T) {
	s := testServer(t, Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body struct {
			Status string `json:"status"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		return resp.StatusCode, body.Status
	}

	if code, status := get("/healthz"); code != http.StatusOK || status != "ok" {
		t.Errorf("/healthz = %d %q, want 200 ok", code, status)
	}
	if code, status := get("/readyz"); code != http.StatusOK || status != "ready" {
		t.Errorf("/readyz = %d %q, want 200 ready", code, status)
	}

	s.Drain()

	if code, status := get("/healthz"); code != http.StatusOK || status != "draining" {
		t.Errorf("/healthz while draining = %d %q, want 200 draining", code, status)
	}
	if code, status := get("/readyz"); code != http.StatusServiceUnavailable || status != "draining" {
		t.Errorf("/readyz while draining = %d %q, want 503 draining", code, status)
	}
}

// TestStallQuarantineAndRecovery: a source stalling past the threshold
// is quarantined (degrading health), probed on the quarantine cadence,
// and lifted the moment a probe succeeds — with the stalled frame
// delivered, not skipped.
func TestStallQuarantineAndRecovery(t *testing.T) {
	inj := vqpy.NewFaultInjector(vqpy.FaultSchedule{
		Seed: 42,
		Rules: []vqpy.FaultRule{
			// Frame 2 stalls for 5 polls: 3 to trip quarantine, 2 more
			// absorbed by probes, then the frame arrives.
			{Kind: vqpy.FaultSourceStall, Rate: 1, FromFrame: 2, ToFrame: 3, Persist: 5},
		},
	})
	s := testServer(t, Config{Faults: inj})
	if _, err := s.AttachNamed("cityflow", "redcar"); err != nil {
		t.Fatal(err)
	}

	sawQuarantine := false
	for i := 0; i < 24; i++ {
		if err := s.StepAll(); err != nil {
			t.Fatal(err)
		}
		if h := s.Health(); len(h.Quarantined) > 0 {
			sawQuarantine = true
			if h.Status != "degraded" {
				t.Errorf("quarantined but health = %q, want degraded", h.Status)
			}
		}
	}
	if !sawQuarantine {
		t.Fatal("stalling source was never quarantined")
	}
	if h := s.Health(); h.Status != "ok" || len(h.Quarantined) != 0 {
		t.Errorf("health after recovery = %+v, want ok", h)
	}

	st := s.Streamz()
	src := st.Sources[0]
	if src.Stalls == 0 || src.Quarantines == 0 {
		t.Errorf("source stat %+v: stall/quarantine accounting missing", src)
	}
	if src.Quarantined {
		t.Error("source still marked quarantined after recovery")
	}
	// The stalled frame was delivered late, never dropped.
	if src.Dropped != 0 {
		t.Errorf("stall recovery dropped %d frames", src.Dropped)
	}
	if st.Chaos == nil || !st.Chaos.Enabled {
		t.Errorf("streamz chaos block = %+v, want enabled", st.Chaos)
	}
	if got := st.Counters["quarantine_events"]; got == 0 {
		t.Error("quarantine_events counter not surfaced")
	}
}

// TestBreakerDegradationSurfaces: terminal model faults trip breakers;
// /healthz goes degraded with the open breakers listed, /streamz
// reports per-source degraded frames and breaker rows.
func TestBreakerDegradationSurfaces(t *testing.T) {
	inj := vqpy.NewFaultInjector(vqpy.FaultSchedule{
		Seed:  42,
		Rules: []vqpy.FaultRule{{Kind: vqpy.FaultModelError, Rate: 1, Persist: 99}},
	})
	s := testServer(t, Config{Faults: inj})
	if _, err := s.AttachNamed("cityflow", "redcar"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := s.StepAll(); err != nil {
			t.Fatal(err)
		}
	}

	h := s.Health()
	if h.Status != "degraded" || len(h.OpenBreakers) == 0 {
		t.Fatalf("health under terminal faults = %+v, want degraded with open breakers", h)
	}

	st := s.Streamz()
	if st.Chaos == nil || st.Chaos.TrippedBreakers == 0 {
		t.Fatalf("streamz chaos = %+v, want tripped breakers", st.Chaos)
	}
	src := st.Sources[0]
	if src.DegradedFrames == 0 {
		t.Error("no degraded frames surfaced on the source stat")
	}
	if len(src.Breakers) == 0 {
		t.Error("no breaker rows surfaced on the source stat")
	}
}

// TestFleetQuarantineIsolatesOneCamera: in lockstep fleet mode a
// permanently stalled camera is quarantined on its own while its
// siblings keep feeding — one bad camera never freezes the fleet.
func TestFleetQuarantineIsolatesOneCamera(t *testing.T) {
	inj := vqpy.NewFaultInjector(vqpy.FaultSchedule{
		Seed: 11,
		Rules: []vqpy.FaultRule{
			{Kind: vqpy.FaultSourceStall, Target: "cityflow-cam1", Rate: 1, Persist: 999},
		},
	})
	s, err := NewServer(Config{Seed: 11, Seconds: 5, Speed: 0, FleetCams: 2, Faults: inj}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	if _, err := s.Attach(AttachRequest{Query: "people", Fleet: true}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if err := s.StepAll(); err != nil {
			t.Fatal(err)
		}
	}

	h := s.Health()
	if h.Status != "degraded" || len(h.Quarantined) != 1 || h.Quarantined[0] != "cityflow-cam1" {
		t.Fatalf("health = %+v, want degraded with cityflow-cam1 quarantined", h)
	}
	byName := make(map[string]SourceStat)
	for _, src := range s.Streamz().Sources {
		byName[src.Name] = src
	}
	if healthy := byName["cityflow-cam0"]; healthy.FramesFed != 12 || healthy.Quarantined {
		t.Errorf("healthy camera stat = %+v, want 12 frames fed and no quarantine", healthy)
	}
	if stalled := byName["cityflow-cam1"]; stalled.FramesFed != 0 || !stalled.Quarantined {
		t.Errorf("stalled camera stat = %+v, want 0 frames fed and quarantined", stalled)
	}
}

// TestStreamzChaosBlockAbsentWithoutInjector: a fault-free daemon's
// /streamz must not grow a chaos block — the surface itself obeys the
// no-op guarantee.
func TestStreamzChaosBlockAbsentWithoutInjector(t *testing.T) {
	s := testServer(t, Config{})
	if st := s.Streamz(); st.Chaos != nil {
		t.Errorf("chaos block without injector = %+v", st.Chaos)
	}
}
