package store

import (
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"vqpy/internal/geom"
)

// TestScanReaderContract pins the archived-frame reader on one archive
// holding every way a frame can be (un)usable: what Frame hands back —
// record, detections, typed miss — and what Class says about the two
// classes of the frame's detections. MemRecords 1 keeps every read on
// the disk tier, where the per-case read fault can reach it.
func TestScanReaderContract(t *testing.T) {
	const car, person = 1, 2
	dets := []Detection{
		{Box: geom.Rect(0, 0, 10, 10), Class: car, Score: 0.9, TruthID: 7},
		{Box: geom.Rect(5, 5, 9, 9), Class: person, Score: 0.8, TruthID: 8},
		{Box: geom.Rect(20, 0, 30, 10), Class: car, Score: 0.7, TruthID: 9},
	}
	cars := []Detection{dets[0], dets[2]}

	var faultKind atomic.Value // tier name whose disk reads fail; "" for none
	faultKind.Store("")
	s, err := Open(t.TempDir(), Meta{Seed: 1}, Options{
		MemRecords: 1,
		ReadFault: func(kind string) error {
			if kind == faultKind.Load() {
				return errors.New("injected read fault")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	cases := []struct {
		name   string
		rec    *ScanRecord // nil: the frame is never archived
		noDets bool        // archive the frame without its det record
		fault  string      // tier whose read is failed while the case is read

		miss     Miss
		wantRec  bool // Frame hands the record back
		wantDets bool // … and the detections
		haveCar  bool // Class(car) is usable
	}{
		{name: "absent frame", miss: MissAbsent},
		{name: "faulted scan read", rec: &ScanRecord{Detect: "yolox", IDs: map[int][]int{car: {3, 4}}},
			fault: "scans", miss: MissFaulted},
		{name: "faulted det read", rec: &ScanRecord{Detect: "yolox", IDs: map[int][]int{car: {3, 4}}},
			fault: "dets", miss: MissFaulted, wantRec: true},
		{name: "another detector's record", rec: &ScanRecord{Detect: "yolov5s", IDs: map[int][]int{car: {3, 4}}},
			miss: MissDetector},
		{name: "dropped frame", rec: &ScanRecord{Detect: "yolox", Dropped: true}, noDets: true,
			miss: MissNone, wantRec: true},
		{name: "kept frame without det record", rec: &ScanRecord{Detect: "yolox", IDs: map[int][]int{car: {3, 4}}},
			noDets: true, miss: MissNoDets, wantRec: true},
		{name: "class archived id-less", rec: &ScanRecord{Detect: "yolox", IDs: map[int][]int{}},
			miss: MissNone, wantRec: true, wantDets: true},
		{name: "ids and detections disagree", rec: &ScanRecord{Detect: "yolox", IDs: map[int][]int{car: {3}}},
			miss: MissNone, wantRec: true, wantDets: true},
		{name: "healthy", rec: &ScanRecord{Detect: "yolox", IDs: map[int][]int{car: {3, -1}}},
			miss: MissNone, wantRec: true, wantDets: true, haveCar: true},
	}
	for f, tc := range cases {
		if tc.rec == nil {
			continue
		}
		tc.rec.Source, tc.rec.ScanKey, tc.rec.Frame = "cam", "sig", f
		if err := s.PutScan(tc.rec); err != nil {
			t.Fatal(err)
		}
		if !tc.noDets {
			if err := s.PutDets("cam", "yolox", f, dets); err != nil {
				t.Fatal(err)
			}
		}
	}
	// One more frame, so no case's records are the hot tier's residents.
	if err := s.PutScan(scanRec("cam", "sig", len(cases))); err != nil {
		t.Fatal(err)
	}
	if err := s.PutDets("cam", "yolox", len(cases), nil); err != nil {
		t.Fatal(err)
	}

	scans := s.Scans("cam", "sig", "yolox")
	for f, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			faultKind.Store(tc.fault)
			fr, miss := scans.Frame(f, true)
			faultKind.Store("")
			if miss != tc.miss {
				t.Fatalf("miss = %v, want %v", miss, tc.miss)
			}
			if tc.wantRec != (fr.Rec != nil) || (tc.wantRec && !reflect.DeepEqual(fr.Rec, tc.rec)) {
				t.Errorf("record = %+v, want %+v (handed back: %v)", fr.Rec, tc.rec, tc.wantRec)
			}
			if tc.wantDets != (fr.Dets != nil) || (tc.wantDets && !reflect.DeepEqual(fr.Dets, dets)) {
				t.Errorf("detections = %+v (wanted: %v)", fr.Dets, tc.wantDets)
			}
			if miss != MissNone || fr.Rec.Dropped {
				return
			}
			got, ids, have := fr.Class(car, nil)
			if !reflect.DeepEqual(got, cars) {
				t.Errorf("Class(car) detections = %+v, want %+v", got, cars)
			}
			if have != tc.haveCar || (have && !reflect.DeepEqual(ids, tc.rec.IDs[car])) {
				t.Errorf("Class(car) ids = %v, have = %v; want have = %v", ids, have, tc.haveCar)
			}
			// Persons were detected but never tracked under this signature.
			if got, _, have := fr.Class(person, nil); have || len(got) != 1 {
				t.Errorf("Class(person) = %+v, have = %v; want one detection and no ids", got, have)
			}
			// Merging reconstructed ids copies; the shared record is untouched.
			merged := fr.Rec.WithIDs(person, []int{5})
			if _, leaked := fr.Rec.IDs[person]; leaked || !reflect.DeepEqual(merged.IDs[person], []int{5}) ||
				!reflect.DeepEqual(merged.IDs[car], fr.Rec.IDs[car]) {
				t.Errorf("WithIDs = %+v from %+v", merged.IDs, fr.Rec.IDs)
			}
		})
	}
}

// TestFaultedReadsCountedOncePerRead: every faulted disk read — through
// the reader (the engine's path) or the plain det cache — bumps its
// kind's faulted_reads counter exactly once, and TierStats agrees.
func TestFaultedReadsCountedOncePerRead(t *testing.T) {
	const n = 6
	dir := t.TempDir()
	s := openTest(t, dir, 9, 1)
	for f := 0; f < n; f++ {
		if err := s.PutScan(scanRec("cam", "sig", f)); err != nil {
			t.Fatal(err)
		}
		if err := s.PutDets("cam", "yolox", f, []Detection{{Class: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	s2, err := Open(dir, Meta{Seed: 9}, Options{
		MemRecords: 1,
		ReadFault:  func(string) error { return errors.New("injected read fault") },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for f := 0; f < n; f++ {
		if _, miss := s2.Scans("cam", "sig", "yolox").Frame(f, true); miss != MissFaulted {
			t.Fatalf("frame %d: miss = %v, want %v", f, miss, MissFaulted)
		}
	}
	if got, stat := s2.Counters().Get("scan_faulted_reads"), s2.TierStats().FaultedReads; got != n || stat != n {
		t.Fatalf("after %d faulted reader reads: scan_faulted_reads = %d, TierStats.FaultedReads = %d", n, got, stat)
	}
	if _, ok := s2.GetDets("cam", "yolox", 0); ok {
		t.Fatal("faulted det read served")
	}
	if got, stat := s2.Counters().Get("det_faulted_reads"), s2.TierStats().FaultedReads; got != 1 || stat != n+1 {
		t.Fatalf("det_faulted_reads = %d, TierStats.FaultedReads = %d; want 1 and %d", got, stat, n+1)
	}
	if got := s2.Counters().Get("scan_misses"); got != n {
		t.Errorf("scan_misses = %d, want %d (a faulted read is also a miss)", got, n)
	}
}

// TestMemoryHitsAllocateNothing keeps the tiers typed: a hot-tier hit of
// any record kind through the public API builds no key string, no
// counter name and no boxed record.
func TestMemoryHitsAllocateNothing(t *testing.T) {
	s := openTest(t, t.TempDir(), 1, 16)
	defer s.Close()
	box := geom.Rect(1, 2, 3, 4)
	if err := s.PutScan(scanRec("cam", "sig", 0)); err != nil {
		t.Fatal(err)
	}
	if err := s.PutDets("cam", "yolox", 0, []Detection{{Class: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := s.PutLabel("cam", "color", 0, box, 7, "red"); err != nil {
		t.Fatal(err)
	}
	scans := s.Scans("cam", "sig", "yolox")
	for name, read := range map[string]func() bool{
		"scan+dets": func() bool { _, miss := scans.Frame(0, true); return miss == MissNone },
		"dets":      func() bool { _, ok := s.GetDets("cam", "yolox", 0); return ok },
		"label":     func() bool { _, ok := s.GetLabel("cam", "color", 0, box, 7); return ok },
		"label miss": func() bool {
			_, ok := s.GetLabel("cam", "color", 1, box, 7)
			return !ok
		},
	} {
		if !read() {
			t.Fatalf("%s: unexpected outcome", name)
		}
		if allocs := testing.AllocsPerRun(100, func() { read() }); allocs != 0 {
			t.Errorf("%s: %v allocations per read, want 0", name, allocs)
		}
	}
	if hits := s.Counters().Get("scan_mem_hits"); hits == 0 {
		t.Error("reads were not memory-tier hits")
	}
}
