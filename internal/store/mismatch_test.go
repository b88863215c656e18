package store

// Satellite hardening: the manifest mismatch diagnostic must name the
// offending field with both the expected and the found value — "store
// invalidated" with no reason was unactionable in production triage.
// The check itself is reclog.Mismatch, shared with the index (whose
// four-field identity reclog's own test covers).

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vqpy/internal/reclog"
)

func TestMetaMismatchNamesOffendingFields(t *testing.T) {
	want := Meta{Version: 1, Seed: 42}
	cases := []struct {
		name     string
		blob     string
		contains []string
		clean    bool
	}{
		{
			name:  "matching manifest",
			blob:  `{"Version":1,"Seed":42}`,
			clean: true,
		},
		{
			name:     "version mismatch",
			blob:     `{"Version":9,"Seed":42}`,
			contains: []string{"version", "found 9", "expected 1"},
		},
		{
			name:     "seed mismatch",
			blob:     `{"Version":1,"Seed":7}`,
			contains: []string{"seed", "found 7", "expected 42"},
		},
		{
			name: "both mismatch",
			blob: `{"Version":9,"Seed":7}`,
			contains: []string{
				"version", "found 9", "expected 1",
				"seed", "found 7", "expected 42",
			},
		},
		{
			name:     "garbage manifest",
			blob:     `{not json`,
			contains: []string{"unreadable"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reason := reclog.Mismatch([]byte(tc.blob), want)
			if tc.clean {
				if reason != "" {
					t.Fatalf("matching manifest reported %q", reason)
				}
				return
			}
			if reason == "" {
				t.Fatalf("mismatch not detected")
			}
			for _, frag := range tc.contains {
				if !strings.Contains(reason, frag) {
					t.Fatalf("reason %q missing %q", reason, frag)
				}
			}
		})
	}
}

// TestOpenMismatchWarningCarriesFieldDetail pins the integration: a
// reopen under a different identity surfaces the field-level reason in
// the store warnings, not just the invalidation counter.
func TestOpenMismatchWarningCarriesFieldDetail(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 42, 16)
	if err := s.PutScan(scanRec("cam", "sig", 0)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2 := openTest(t, dir, 43, 16)
	defer s2.Close()
	if s2.Counters().Get("invalidated") != 1 {
		t.Fatal("expected invalidation")
	}
	found := false
	for _, w := range s2.Warnings() {
		if strings.Contains(w, "seed found 42, expected 43") {
			found = true
		}
	}
	if !found {
		t.Fatalf("warnings lack field detail: %v", s2.Warnings())
	}
}

// TestInvalidationRemovesFidelityManifest: the fidelity manifest
// shares the store's identity rules — records calibrated under another
// seed must not price this seed's planner.
func TestInvalidationRemovesFidelityManifest(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 42, 16)
	if err := s.PutFidelity(FidelityEntry{
		Source: "cam", Key: "s2/half/yolov8m@half", ScanKey: "|yolov8m@half@s2/half/yolov8m@half",
		Detector: "yolov8m@half", Stride: 2, Res: "half", Covered: 100, Accuracy: 0.93, CostPerFrameMS: 20,
	}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := os.Stat(filepath.Join(dir, fidelityName)); err != nil {
		t.Fatalf("fidelity manifest not persisted: %v", err)
	}

	s2 := openTest(t, dir, 7, 16)
	defer s2.Close()
	if got := s2.Fidelities("cam"); len(got) != 0 {
		t.Fatalf("fidelity entries survived invalidation: %+v", got)
	}
	if _, err := os.Stat(filepath.Join(dir, fidelityName)); !os.IsNotExist(err) {
		t.Fatalf("fidelity manifest file survived invalidation (err=%v)", err)
	}
}

// TestFidelityManifestRoundTrip covers the manifest's persistence and
// upsert semantics across reopen.
func TestFidelityManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 42, 16)
	e := FidelityEntry{
		Source: "cam", Key: "s4/quarter/yolov5s@quarter", ScanKey: "|yolov5s@quarter@s4/quarter/yolov5s@quarter",
		Detector: "yolov5s@quarter", Stride: 4, Res: "quarter", Covered: 60, Accuracy: 0.8, CostPerFrameMS: 25,
	}
	if err := s.PutFidelity(e); err != nil {
		t.Fatal(err)
	}
	// Upsert: same (source, key) replaces, it does not duplicate.
	e.Covered, e.Accuracy = 240, 0.85
	if err := s.PutFidelity(e); err != nil {
		t.Fatal(err)
	}
	if st := s.TierStats(); st.FidelityEntries != 1 {
		t.Fatalf("FidelityEntries = %d, want 1", st.FidelityEntries)
	}
	s.Close()

	s2 := openTest(t, dir, 42, 16)
	defer s2.Close()
	got := s2.Fidelities("cam")
	if len(got) != 1 || got[0] != e {
		t.Fatalf("after reopen: %+v, want %+v", got, e)
	}
	if got := s2.Fidelities("other"); len(got) != 0 {
		t.Fatalf("entries leaked across sources: %+v", got)
	}
}

// TestFidelityManifestCorruptStartsEmpty: an unreadable manifest is
// derived state — the open succeeds with a warning and an empty
// manifest rather than failing the store.
func TestFidelityManifestCorruptStartsEmpty(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 42, 16)
	s.Close()
	// Valid store, garbage fidelity manifest.
	if err := os.WriteFile(filepath.Join(dir, fidelityName), []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openTest(t, dir, 42, 16)
	defer s2.Close()
	if got := s2.Fidelities("cam"); len(got) != 0 {
		t.Fatalf("corrupt manifest served entries: %+v", got)
	}
	if s2.Counters().Get("fidelity_corrupt") != 1 {
		t.Fatal("expected fidelity_corrupt counter")
	}
	// And a healthy manifest round-trips as JSON (guards the file shape
	// against accidental framing changes).
	if err := s2.PutFidelity(FidelityEntry{Source: "cam", Key: "k", ScanKey: "sk", Detector: "d", Stride: 2, Res: "half"}); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(filepath.Join(dir, fidelityName))
	if err != nil {
		t.Fatal(err)
	}
	var entries []FidelityEntry
	if err := json.Unmarshal(blob, &entries); err != nil {
		t.Fatalf("manifest not valid JSON: %v", err)
	}
}
