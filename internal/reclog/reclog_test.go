package reclog_test

// The frame round trip and the manifest gate. The tests that reopen a
// directory drive store.Open and index.Open — the two owners of a
// reclog manifest — so the contract is checked where an operator meets
// it.

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"vqpy/internal/index"
	"vqpy/internal/models"
	"vqpy/internal/reclog"
	"vqpy/internal/store"
)

type payload struct {
	N    int
	Text string
}

func TestAppendReadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.log")
	l, rec, err := reclog.Open(path, "t", 1<<10, func(int64, []byte) error { return nil })
	if err != nil || rec.Corrupt+rec.Torn != 0 {
		t.Fatalf("open empty log: %v, %+v", err, rec)
	}
	defer l.Close()
	type at struct {
		off int64
		n   int
	}
	var where []at
	for i := 0; i < 5; i++ {
		frame, err := reclog.Encode(payload{N: i, Text: strings.Repeat("x", i)})
		if err != nil {
			t.Fatal(err)
		}
		off, err := l.Append(frame)
		if err != nil {
			t.Fatal(err)
		}
		where = append(where, at{off, len(frame)})
	}
	for i, w := range where {
		frame, err := l.Read(w.off, w.n)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		var got payload
		if err := reclog.Decode(frame, &got); err != nil || got.N != i || len(got.Text) != i {
			t.Fatalf("record %d decoded as %+v (%v)", i, got, err)
		}
	}
	// A span that is not a frame — wrong length, wrong offset — is an
	// error, never a payload.
	if _, err := l.Read(where[1].off, where[1].n-1); err == nil {
		t.Error("Read accepted a short span")
	}
	if _, err := l.Read(where[1].off+1, where[1].n); err == nil {
		t.Error("Read accepted a misaligned span")
	}
	if _, err := l.Read(where[4].off, where[4].n+1); err == nil {
		t.Error("Read accepted a span past the end of the log")
	}
}

// TestMismatchNamesFieldsOfAnyManifest: Mismatch names fields by their
// JSON names for whatever flat identity struct it is given — here the
// index's four-field Meta (the store's two-field cases live beside
// store.Meta in internal/store) — and an empty manifest is unreadable,
// never a match.
func TestMismatchNamesFieldsOfAnyManifest(t *testing.T) {
	want := index.Meta{Version: 1, Seed: 42, ZooVersion: 3, Embedder: "fleet_reid"}
	cases := []struct {
		name     string
		blob     string
		contains []string
	}{
		{name: "matching manifest", blob: `{"version":1,"seed":42,"zoo_version":3,"embedder":"fleet_reid"}`},
		{
			name:     "zoo and embedder mismatch",
			blob:     `{"version":1,"seed":42,"zoo_version":2,"embedder":"osnet"}`,
			contains: []string{"zoo_version found 2, expected 3", "embedder found osnet, expected fleet_reid"},
		},
		{name: "empty manifest", blob: ``, contains: []string{"unreadable"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reason := reclog.Mismatch([]byte(tc.blob), want)
			if (reason == "") != (len(tc.contains) == 0) {
				t.Fatalf("reason %q, want fragments %q", reason, tc.contains)
			}
			for _, frag := range tc.contains {
				if !strings.Contains(reason, frag) {
					t.Fatalf("reason %q missing %q", reason, frag)
				}
			}
			if strings.Contains(reason, "seed found") {
				t.Fatalf("reason %q names a field that matches", reason)
			}
		})
	}
}

// manifestOwners are the two packages that put a reclog manifest in
// front of their logs; open opens (or reopens) dir under seed and
// reports the "invalidated" counter.
var manifestOwners = []struct {
	name string
	log  string // a log file the manifest guards
	open func(t *testing.T, dir string, seed uint64) (invalidated int64)
}{
	{"store", "scans.log", func(t *testing.T, dir string, seed uint64) int64 {
		s, err := store.Open(dir, store.Meta{Seed: seed}, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		return s.Counters().Get("invalidated")
	}},
	{"index", "segments.log", func(t *testing.T, dir string, seed uint64) int64 {
		x, err := index.Open(dir, index.Meta{Seed: seed, ZooVersion: models.ZooVersion, Embedder: "fleet_reid"})
		if err != nil {
			t.Fatal(err)
		}
		defer x.Close()
		return x.Counters().Get("invalidated")
	}},
}

// TestReopenLeavesMatchingManifestUntouched: a manifest that already
// matches is never rewritten — rewriting it on every open put a window
// in every start-up where a crash leaves it empty, and an empty
// manifest reads as a mismatch that deletes the archive.
func TestReopenLeavesMatchingManifestUntouched(t *testing.T) {
	for _, o := range manifestOwners {
		t.Run(o.name, func(t *testing.T) {
			dir := t.TempDir()
			o.open(t, dir, 7)
			path := filepath.Join(dir, "manifest.json")
			before, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			// Backdate the file so a rewrite cannot hide inside the
			// filesystem's timestamp granularity.
			old := time.Now().Add(-time.Hour).Truncate(time.Second)
			if err := os.Chtimes(path, old, old); err != nil {
				t.Fatal(err)
			}
			if inv := o.open(t, dir, 7); inv != 0 {
				t.Fatalf("matching reopen invalidated (%d)", inv)
			}
			after, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before, after) {
				t.Errorf("manifest bytes changed: %q → %q", before, after)
			}
			st, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if !st.ModTime().Equal(old) {
				t.Errorf("manifest rewritten: mtime %v, want %v", st.ModTime(), old)
			}
			// A mismatch does rewrite it — atomically, leaving no
			// temporary file behind.
			if inv := o.open(t, dir, 8); inv != 1 {
				t.Fatalf("seed change: invalidated = %d, want 1", inv)
			}
			if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp*")); len(tmps) != 0 {
				t.Errorf("temporary files left behind: %v", tmps)
			}
			if inv := o.open(t, dir, 8); inv != 0 {
				t.Fatalf("reopen under the new seed invalidated again (%d)", inv)
			}
		})
	}
}

// TestUnreadableManifestStillInvalidates: the other half of the rule. A
// manifest that cannot be parsed proves nothing about the identity the
// logs were written under, so they must not be served.
func TestUnreadableManifestStillInvalidates(t *testing.T) {
	for _, o := range manifestOwners {
		for name, blob := range map[string]string{"empty": "", "half-written": `{"version":1,"se`} {
			t.Run(o.name+"/"+name, func(t *testing.T) {
				dir := t.TempDir()
				o.open(t, dir, 7)
				// A well-framed record: recovery alone would keep its bytes
				// (skipped, not truncated), so an empty log afterwards
				// means the invalidation removed the file.
				logPath := filepath.Join(dir, o.log)
				frame, err := reclog.Encode(payload{N: 1, Text: "written under an unknown identity"})
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(logPath, frame, 0o644); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte(blob), 0o644); err != nil {
					t.Fatal(err)
				}
				if inv := o.open(t, dir, 7); inv != 1 {
					t.Fatalf("invalidated = %d, want 1", inv)
				}
				if st, err := os.Stat(logPath); err != nil || st.Size() != 0 {
					t.Errorf("log survived invalidation: %v, %v", st, err)
				}
			})
		}
	}
}

func TestWriteFileReplacesAtomically(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fidelity.json")
	for _, content := range []string{"first\n", "second, longer than the first\n", "3\n"} {
		if err := reclog.WriteFile(path, []byte(content)); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil || string(got) != content {
			t.Fatalf("read back %q (%v), want %q", got, err, content)
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Errorf("directory holds %d files, want only the target", len(ents))
	}
	if st, _ := os.Stat(path); st.Mode().Perm() != 0o644 {
		t.Errorf("mode %v, want 0644", st.Mode().Perm())
	}
	// A directory that cannot take the temporary file fails the write
	// and leaves the old content in place.
	if err := reclog.WriteFile(filepath.Join(dir, "missing", "x.json"), []byte("x")); err == nil {
		t.Error("write into a missing directory succeeded")
	}
}
