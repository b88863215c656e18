package index

// Durability tests mirror the store's recovery contract at the index
// level, plus the one rule the index adds: coverage is a soundness
// claim, so a mid-log corrupt record voids it (a lost entry under
// surviving coverage would make probes silently miss that track's
// frames), while a torn tail merely rolls coverage back to the last
// intact watermark — the log is append-ordered with each pass's
// coverage record written after its entries, so a lost suffix always
// loses the claim before the facts it covered.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vqpy/internal/store"
	"vqpy/internal/video"
)

// frameHeaderBytes is reclog's frame header (length + CRC).
const frameHeaderBytes = 8

func segmentsPath(dir string) string { return filepath.Join(dir, segmentsName) }

func TestCorruptRecordVoidsCoverage(t *testing.T) {
	f := newFixture(t, 99, 8, store.Options{})
	n := len(f.v.Frames)
	dir := t.TempDir()
	x := openTestIndex(t, dir, 99)
	f.extract(x, fxSource, n)
	total := len(x.Entries(fxSource, fxSig, int(video.ClassCar)))
	if total < 2 {
		t.Fatalf("fixture indexed only %d tracks", total)
	}
	if err := x.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip one payload byte of the first record: framing stays intact,
	// the CRC fails, and replay must skip exactly that record.
	blob, err := os.ReadFile(segmentsPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	blob[frameHeaderBytes+2] ^= 0xFF
	if err := os.WriteFile(segmentsPath(dir), blob, 0o644); err != nil {
		t.Fatal(err)
	}

	x2 := openTestIndex(t, dir, 99)
	if got := x2.Counters().Get("corrupt_records"); got != 1 {
		t.Errorf("corrupt_records = %d, want 1", got)
	}
	if got := len(x2.Entries(fxSource, fxSig, int(video.ClassCar))); got != total-1 {
		t.Errorf("reopen kept %d entries, want %d (all but the corrupted one)", got, total-1)
	}
	if got := x2.Covered(fxSource, fxSig); got != 0 {
		t.Errorf("Covered = %d after corruption, want 0 (coverage voided)", got)
	}
	voided := false
	for _, w := range x2.Warnings() {
		if strings.Contains(w, "voided coverage") {
			voided = true
		}
	}
	if !voided {
		t.Error("no warning about voided coverage")
	}

	// Re-extraction re-establishes coverage and re-embeds only the one
	// lost track — surviving entries are reusable memoized facts.
	s := f.extract(x2, fxSource, n)
	if s.From != 0 || s.To != n {
		t.Fatalf("re-extraction covered [%d,%d), want [0,%d)", s.From, s.To, n)
	}
	if s.NewTracks != 1 {
		t.Errorf("re-extraction embedded %d tracks, want 1 (only the lost entry)", s.NewTracks)
	}
	if got := x2.Covered(fxSource, fxSig); got != n {
		t.Errorf("Covered = %d after re-extraction, want %d", got, n)
	}
	checkSpans(t, x2, fxSource, f.truthSpans(nil))
}

func TestTornTailRollsBackToLastWatermark(t *testing.T) {
	f := newFixture(t, 100, 8, store.Options{})
	n := len(f.v.Frames)
	half := n / 2
	dir := t.TempDir()
	x := openTestIndex(t, dir, 100)
	f.extract(x, fxSource, half)
	f.extract(x, fxSource, n)
	if err := x.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail mid-record: the final record is the second pass's
	// coverage watermark, so its claim is lost but every entry survives.
	st, err := os.Stat(segmentsPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segmentsPath(dir), st.Size()-5); err != nil {
		t.Fatal(err)
	}

	x2 := openTestIndex(t, dir, 100)
	if got := x2.Counters().Get("torn_tail_truncated"); got != 1 {
		t.Errorf("torn_tail_truncated = %d, want 1", got)
	}
	if got := x2.Counters().Get("corrupt_records"); got != 0 {
		t.Errorf("corrupt_records = %d, want 0 (a torn tail is not corruption)", got)
	}
	if got := x2.Covered(fxSource, fxSig); got != half {
		t.Errorf("Covered = %d after torn tail, want last intact watermark %d", got, half)
	}
	checkSpans(t, x2, fxSource, f.truthSpans(nil))

	// The truncated log accepts appends: re-extraction walks the tail
	// range again and restores full coverage durably.
	s := f.extract(x2, fxSource, n)
	if s.From != half || s.To != n {
		t.Fatalf("re-extraction covered [%d,%d), want [%d,%d)", s.From, s.To, half, n)
	}
	if err := x2.Close(); err != nil {
		t.Fatal(err)
	}
	x3 := openTestIndex(t, dir, 100)
	if got := x3.Covered(fxSource, fxSig); got != n {
		t.Errorf("Covered = %d after repair+reopen, want %d", got, n)
	}
}

func TestManifestMismatchInvalidates(t *testing.T) {
	f := newFixture(t, 101, 6, store.Options{})
	n := len(f.v.Frames)
	dir := t.TempDir()
	x := openTestIndex(t, dir, 101)
	f.extract(x, fxSource, n)
	total := len(x.Entries(fxSource, fxSig, int(video.ClassCar)))
	if err := x.Close(); err != nil {
		t.Fatal(err)
	}

	// A different seed means every persisted embedding is wrong, not
	// stale: the index must start empty.
	x2 := openTestIndex(t, dir, 102)
	if got := x2.Counters().Get("invalidated"); got != 1 {
		t.Errorf("invalidated = %d, want 1", got)
	}
	if got := len(x2.Entries(fxSource, fxSig, int(video.ClassCar))); got != 0 {
		t.Errorf("invalidated index still serves %d entries", got)
	}
	if got := x2.Covered(fxSource, fxSig); got != 0 {
		t.Errorf("invalidated index still claims coverage %d", got)
	}
	if err := x2.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopening under the original identity invalidates again (the
	// manifest now names seed 102) and a fresh extraction rebuilds.
	x3 := openTestIndex(t, dir, 101)
	if got := x3.Counters().Get("invalidated"); got != 1 {
		t.Errorf("re-invalidated = %d, want 1", got)
	}
	s := f.extract(x3, fxSource, n)
	if s.To != n || s.NewTracks != total {
		t.Errorf("rebuild covered [%d,%d) with %d tracks, want [0,%d) with %d", s.From, s.To, s.NewTracks, n, total)
	}
	if err := x3.Close(); err != nil {
		t.Fatal(err)
	}

	// Zoo-version and embedder mismatches invalidate the same way.
	zoo := testMeta(101)
	zoo.ZooVersion++
	xz, err := Open(dir, zoo)
	if err != nil {
		t.Fatal(err)
	}
	if got := xz.Counters().Get("invalidated"); got != 1 {
		t.Errorf("zoo-version mismatch: invalidated = %d, want 1", got)
	}
	if err := xz.Close(); err != nil {
		t.Fatal(err)
	}
	emb := testMeta(101)
	emb.Embedder = "other_embedder"
	xe, err := Open(dir, emb)
	if err != nil {
		t.Fatal(err)
	}
	if got := xe.Counters().Get("invalidated"); got != 1 {
		t.Errorf("embedder mismatch: invalidated = %d, want 1", got)
	}
	xe.Close()
}
