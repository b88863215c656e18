package index

// Fault-injection test: an injected store read failure during
// extraction must degrade to "index that range as uncovered" — coverage
// stops exactly at the faulted frame, the index_faulted_reads counter
// distinguishes chaos from genuine absence, and once the fault heals a
// later pass resumes to full, correct coverage. The query layer's
// residual full-rescan over uncovered frames keeps answers right in
// the meantime; the index itself never claims a frame it did not read.

import (
	"errors"
	"sync/atomic"
	"testing"

	"vqpy/internal/store"
)

func TestExtractStoreReadFaultStopsCoverage(t *testing.T) {
	var failScans atomic.Bool
	var allowed atomic.Int64
	// MemRecords 1 forces every extraction read of an already-archived
	// frame onto the disk tier, where the fault hook fires (hot-tier
	// hits never consult it).
	opts := store.Options{
		MemRecords: 1,
		ReadFault: func(kind string) error {
			if kind == "scans" && failScans.Load() && allowed.Add(-1) < 0 {
				return errors.New("injected scan-read fault")
			}
			return nil
		},
	}
	f := newFixture(t, 104, 6, opts)
	n := len(f.v.Frames)
	x := openTestIndex(t, t.TempDir(), 104)

	// Allow five disk scan reads, then fault: frames 0-4 index, frame
	// 5's read fails, coverage stops there.
	allowed.Store(5)
	failScans.Store(true)
	s, err := x.Extract(f.config(fxSource, nil), n)
	if err != nil {
		t.Fatal(err)
	}
	if !s.FaultStopped {
		t.Fatal("extraction did not report FaultStopped on an injected read fault")
	}
	if s.From != 0 || s.To != 5 {
		t.Fatalf("faulted extraction covered [%d,%d), want [0,5)", s.From, s.To)
	}
	if got := x.Covered(fxSource, fxSig); got != 5 {
		t.Errorf("Covered = %d after fault, want 5", got)
	}
	if got := x.Counters().Get("index_faulted_reads"); got != 1 {
		t.Errorf("index_faulted_reads = %d, want 1", got)
	}
	if got := f.st.Counters().Get("scan_faulted_reads"); got == 0 {
		t.Error("store booked no scan_faulted_reads; fault never reached the disk tier")
	}
	if st := x.TierStats(); st.FaultedReads != 1 {
		t.Errorf("TierStats.FaultedReads = %d, want 1", st.FaultedReads)
	}

	// Heal the fault: the next pass resumes from the watermark and the
	// final index matches ground truth exactly — the faulted pass left
	// nothing wrong behind, only a shorter coverage claim.
	failScans.Store(false)
	s2, err := x.Extract(f.config(fxSource, nil), n)
	if err != nil {
		t.Fatal(err)
	}
	if s2.From != 5 || s2.To != n || s2.FaultStopped {
		t.Fatalf("healed extraction covered [%d,%d) fault=%v, want [5,%d)", s2.From, s2.To, s2.FaultStopped, n)
	}
	if got := x.Covered(fxSource, fxSig); got != n {
		t.Errorf("Covered = %d after heal, want %d", got, n)
	}
	checkSpans(t, x, fxSource, f.truthSpans(nil))

	// A fresh index extracting under a still-active fault on the very
	// first read claims nothing at all.
	failScans.Store(true)
	allowed.Store(0)
	x2 := openTestIndex(t, t.TempDir(), 104)
	s3, err := x2.Extract(f.config(fxSource, nil), n)
	if err != nil {
		t.Fatal(err)
	}
	if !s3.FaultStopped || s3.To != 0 {
		t.Errorf("fault-at-zero extraction covered [%d,%d) fault=%v, want [0,0) faulted", s3.From, s3.To, s3.FaultStopped)
	}
	if got := x2.Covered(fxSource, fxSig); got != 0 {
		t.Errorf("Covered = %d, want 0", got)
	}
	failScans.Store(false)
}

// TestExtractAbsenceNotBlamedOnAnotherSourcesFaults: the store is shared
// by every source of a daemon, so "did my read fault" must come from the
// read itself. One goroutine extracts over a source the archive never
// saw while another takes injected read faults on a different source of
// the same store; the extraction must report plain absence every time.
// Run under -race.
func TestExtractAbsenceNotBlamedOnAnotherSourcesFaults(t *testing.T) {
	f := newFixture(t, 105, 2, store.Options{
		MemRecords: 1,
		ReadFault:  func(string) error { return errors.New("injected read fault") },
	})
	x := openTestIndex(t, t.TempDir(), 105)
	const rounds = 300
	done := make(chan struct{})
	go func() {
		defer close(done)
		scans := f.st.Scans(fxSource, fxSig, fxDetect)
		for i := 0; i < rounds; i++ {
			if _, miss := scans.Frame(i%(len(f.v.Frames)-1), true); miss != store.MissFaulted {
				t.Errorf("read %d of the archived source: miss = %v, want a fault", i, miss)
				return
			}
		}
	}()
	for i := 0; i < rounds; i++ {
		s, err := x.Extract(f.config("ghost", nil), len(f.v.Frames))
		if err != nil || s.FaultStopped || s.To != 0 {
			t.Errorf("round %d: extraction over an unarchived source = %+v, %v; want a plain stop at 0", i, s, err)
			break
		}
	}
	<-done
	if got := x.Counters().Get("index_faulted_reads"); got != 0 {
		t.Errorf("index_faulted_reads = %d, want 0", got)
	}
}
