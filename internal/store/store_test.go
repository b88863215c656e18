package store

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"vqpy/internal/geom"
)

// frameHeaderBytes is reclog's frame header (length + CRC): the tests
// that poison a record's payload in place skip past it.
const frameHeaderBytes = 8

func openTest(t *testing.T, dir string, seed uint64, memCap int) *Store {
	t.Helper()
	s, err := Open(dir, Meta{Seed: seed}, Options{MemRecords: memCap})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func scanRec(source, sig string, frame int) *ScanRecord {
	return &ScanRecord{
		Source: source, ScanKey: sig, Detect: "yolox", Frame: frame,
		IDs: map[int][]int{1: {frame, frame + 1}},
	}
}

// getScan reads one scan record through the reader, for the detector
// scanRec writes and without touching the dets tier.
func getScan(s *Store, source, sig string, frame int) (*ScanRecord, bool) {
	fr, miss := s.Scans(source, sig, "yolox").Frame(frame, false)
	return fr.Rec, miss == MissNone
}

func TestRoundTripAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 42, 16)

	dets := []Detection{
		{Box: geom.Rect(1, 2, 3, 4), Class: 1, Score: 0.9, TruthID: 7},
		{Box: geom.Rect(5, 6, 7, 8), Class: 2, Score: 0.4, TruthID: 8},
	}
	if err := s.PutDets("cam", "yolox", 3, dets); err != nil {
		t.Fatalf("PutDets: %v", err)
	}
	if err := s.PutScan(scanRec("cam", "f|yolox", 3)); err != nil {
		t.Fatalf("PutScan: %v", err)
	}
	if err := s.PutLabel("cam", "color_detect", 3, geom.Rect(1, 2, 3, 4), 7, "red"); err != nil {
		t.Fatalf("PutLabel: %v", err)
	}
	if err := s.PutLabel("cam", "reid", 3, geom.Rect(1, 2, 3, 4), 7, []float64{0.5, -1}); err != nil {
		t.Fatalf("PutLabel: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := openTest(t, dir, 42, 16)
	defer s2.Close()
	gotDets, ok := s2.GetDets("cam", "yolox", 3)
	if !ok || !reflect.DeepEqual(gotDets, dets) {
		t.Fatalf("GetDets after reopen = %v, %v; want %v", gotDets, ok, dets)
	}
	gotScan, ok := getScan(s2, "cam", "f|yolox", 3)
	if !ok || !reflect.DeepEqual(gotScan.IDs, map[int][]int{1: {3, 4}}) || gotScan.Detect != "yolox" {
		t.Fatalf("scan after reopen = %+v, %v", gotScan, ok)
	}
	if v, ok := s2.GetLabel("cam", "color_detect", 3, geom.Rect(1, 2, 3, 4), 7); !ok || v != "red" {
		t.Fatalf("GetLabel = %v, %v; want red", v, ok)
	}
	if v, ok := s2.GetLabel("cam", "reid", 3, geom.Rect(1, 2, 3, 4), 7); !ok ||
		!reflect.DeepEqual(v, []float64{0.5, -1}) {
		t.Fatalf("GetLabel embedding = %v (%T), %v", v, v, ok)
	}
	if _, ok := getScan(s2, "cam", "f|yolox", 99); ok {
		t.Fatal("scan of unknown frame should miss")
	}
	if s2.Counters().Get("scan_disk_hits") == 0 {
		t.Fatal("reopened store should serve from the disk tier")
	}
}

func TestLatestRecordWins(t *testing.T) {
	s := openTest(t, t.TempDir(), 1, 16)
	defer s.Close()
	r1 := scanRec("cam", "sig", 0)
	if err := s.PutScan(r1); err != nil {
		t.Fatal(err)
	}
	r2 := scanRec("cam", "sig", 0)
	r2.IDs = map[int][]int{1: {5}, 2: {9}}
	if err := s.PutScan(r2); err != nil {
		t.Fatal(err)
	}
	got, ok := getScan(s, "cam", "sig", 0)
	if !ok || !reflect.DeepEqual(got.IDs, r2.IDs) {
		t.Fatalf("scan = %+v; want the updated record", got)
	}
}

// TestLRUEvictionUnderChurn: the hot tier is a plain size-driven LRU —
// it never outgrows its capacity, a read refreshes recency, and what it
// drops stays readable from the archival tier.
func TestLRUEvictionUnderChurn(t *testing.T) {
	s := openTest(t, t.TempDir(), 1, 4)
	defer s.Close()
	resident := func(f int) bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		_, ok := s.scans.mem[scanKey{"cam", "sig", f}]
		return ok
	}

	for f := 0; f < 40; f++ {
		if err := s.PutScan(scanRec("cam", "sig", f)); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.TierStats(); st.MemRecords != 4 || st.Evicted != 36 {
		t.Fatalf("after 40 puts into a 4-record hot tier: %+v, want 4 resident and 36 evicted", st)
	}
	if resident(0) || !resident(36) || !resident(39) {
		t.Fatal("hot tier should hold exactly the four most recent records")
	}

	// Evicted records remain readable from the archival tier.
	if got, ok := getScan(s, "cam", "sig", 5); !ok || got.Frame != 5 {
		t.Fatalf("evicted record not readable from disk: %+v, %v", got, ok)
	}
	if s.Counters().Get("scan_disk_hits") != 1 {
		t.Fatal("expected a disk-tier hit after eviction")
	}

	// A read refreshes recency: 37 is now the oldest resident (5, 38, 39
	// were touched or installed after it), so touching it and installing
	// one more record evicts 38 instead.
	if _, ok := getScan(s, "cam", "sig", 37); !ok {
		t.Fatal("resident record unreadable")
	}
	if err := s.PutScan(scanRec("cam", "sig", 40)); err != nil {
		t.Fatal(err)
	}
	if !resident(37) || resident(38) {
		t.Fatal("eviction ignored the recency a read established")
	}
}

func TestCorruptTailIsTruncatedAndSkipped(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 1, 16)
	for f := 0; f < 3; f++ {
		if err := s.PutScan(scanRec("cam", "sig", f)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	// Append garbage that looks like a torn write.
	path := filepath.Join(dir, "scans.log")
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := openTest(t, dir, 1, 16)
	defer s2.Close()
	for f := 0; f < 3; f++ {
		if got, ok := getScan(s2, "cam", "sig", f); !ok || got.Frame != f {
			t.Fatalf("frame %d lost to tail corruption: %+v, %v", f, got, ok)
		}
	}
	if len(s2.Warnings()) == 0 {
		t.Fatal("expected a corruption warning")
	}
	if s2.Counters().Get("corrupt_records") == 0 {
		t.Fatal("expected corrupt_records counter")
	}
	// The store must keep accepting appends after recovery.
	if err := s2.PutScan(scanRec("cam", "sig", 3)); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
	if got, ok := getScan(s2, "cam", "sig", 3); !ok || got.Frame != 3 {
		t.Fatalf("record appended after recovery unreadable: %+v, %v", got, ok)
	}
}

func TestGarbageRecordMidFileIsSkipped(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 1, 16)
	if err := s.PutScan(scanRec("cam", "sig", 0)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Corrupt the first record's payload in place (framing stays valid),
	// then append a healthy record after it.
	path := filepath.Join(dir, "scans.log")
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob[frameHeaderBytes+2] ^= 0xFF
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openTest(t, dir, 1, 16)
	if _, ok := getScan(s2, "cam", "sig", 0); ok {
		t.Fatal("corrupt record should not be served")
	}
	if s2.Counters().Get("corrupt_records") == 0 {
		t.Fatal("expected corrupt_records counter")
	}
	if err := s2.PutScan(scanRec("cam", "sig", 1)); err != nil {
		t.Fatal(err)
	}
	s2.Close()

	s3 := openTest(t, dir, 1, 16)
	defer s3.Close()
	if got, ok := getScan(s3, "cam", "sig", 1); !ok || got.Frame != 1 {
		t.Fatalf("healthy record after corrupt one unreadable: %+v, %v", got, ok)
	}
}

func TestSeedMismatchInvalidates(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 42, 16)
	if err := s.PutScan(scanRec("cam", "sig", 0)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2 := openTest(t, dir, 43, 16)
	defer s2.Close()
	if _, ok := getScan(s2, "cam", "sig", 0); ok {
		t.Fatal("records from another seed must not be served")
	}
	if s2.Counters().Get("invalidated") != 1 {
		t.Fatal("expected invalidation counter")
	}
	if s2.Seed() != 43 {
		t.Fatalf("Seed = %d; want 43", s2.Seed())
	}
}

func TestCoversScans(t *testing.T) {
	s := openTest(t, t.TempDir(), 1, 2) // tiny hot tier: coverage must come from the index
	defer s.Close()
	for f := 0; f < 10; f++ {
		if err := s.PutScan(scanRec("cam", "sig", f)); err != nil {
			t.Fatal(err)
		}
	}
	if !s.Scans("cam", "sig", "yolox").Covers(10) {
		t.Fatal("Covers(10) should hold")
	}
	if s.Scans("cam", "sig", "yolox").Covers(11) {
		t.Fatal("Covers(11) should fail")
	}
	if s.Scans("cam", "other", "yolox").Covers(1) {
		t.Fatal("Covers of unknown signature should fail")
	}
	if st := s.TierStats(); st.MemRecords != 2 || s.Counters().Get("scan_disk_hits")+s.Counters().Get("scan_mem_hits") != 0 {
		t.Fatalf("Covers must neither promote nor count reads: %+v", st)
	}
}

func TestUnsupportedLabelTypeIsSkippedNotFatal(t *testing.T) {
	s := openTest(t, t.TempDir(), 1, 16)
	defer s.Close()
	type odd struct{ X int }
	if err := s.PutLabel("cam", "m", 0, geom.Rect(0, 0, 1, 1), 0, odd{1}); err != nil {
		t.Fatalf("unsupported label type should be skipped, got %v", err)
	}
	if _, ok := s.GetLabel("cam", "m", 0, geom.Rect(0, 0, 1, 1), 0); ok {
		t.Fatal("skipped label must not be served")
	}
	if s.Counters().Get("label_skipped_type") != 1 {
		t.Fatal("expected label_skipped_type counter")
	}
}
