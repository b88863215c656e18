package store

// Corruption-recovery under concurrency: a store that truncated a torn
// tail and CRC-skipped a poisoned record at open must serve the
// surviving log correctly while readers and writers race against the
// hot tier's eviction pressure. Run under
// -race (CI does).

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// TestCorruptionRecoveryUnderConcurrentReaders seeds a log, poisons one
// record's payload (bad CRC) and tears the tail, then reopens with a
// tiny hot tier and hammers the recovered store from goroutines that
// hold records across other reads and writes.
func TestCorruptionRecoveryUnderConcurrentReaders(t *testing.T) {
	const frames = 48
	dir := t.TempDir()
	s := openTest(t, dir, 11, 8)
	for f := 0; f < frames; f++ {
		if err := s.PutScan(scanRec("cam", "sig", f)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	// Poison record 0's payload in place (framing intact → CRC skip at
	// open) and append a torn tail (framing garbage → truncation).
	path := filepath.Join(dir, "scans.log")
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob[frameHeaderBytes+2] ^= 0xFF
	blob = append(blob, 0xde, 0xad, 0xbe)
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openTest(t, dir, 11, 8)
	defer s2.Close()
	if got := s2.TierStats().CorruptRecords; got != 2 {
		t.Fatalf("corrupt records at open = %d, want 2 (one CRC skip + one torn tail)", got)
	}
	if len(s2.Warnings()) < 2 {
		t.Fatalf("warnings = %v, want CRC-skip and torn-tail entries", s2.Warnings())
	}

	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for f := 1; f < frames; f++ {
				switch (f + g) % 3 {
				case 0:
					// Held read: keep the record across a sibling read while
					// writers churn its hot-tier entry out — eviction must
					// not disturb a record a reader already holds.
					rec, ok := getScan(s2, "cam", "sig", f)
					if !ok {
						t.Errorf("goroutine %d: surviving frame %d unreadable", g, f)
						return
					}
					if got, ok := getScan(s2, "cam", "sig", (f%(frames-1))+1); !ok || got == nil {
						t.Errorf("goroutine %d: sibling read failed at %d", g, f)
						return
					}
					if rec.Frame != f {
						t.Errorf("goroutine %d: held frame %d decoded as %d", g, f, rec.Frame)
					}
				case 1:
					if _, ok := getScan(s2, "cam", "sig", f); !ok {
						t.Errorf("goroutine %d: surviving frame %d unreadable", g, f)
						return
					}
				case 2:
					// Fresh appends keep eviction pressure on the readers
					// and prove the recovered log accepts writes.
					if err := s2.PutScan(scanRec("cam", fmt.Sprintf("sig%d", g), frames+f)); err != nil {
						t.Errorf("goroutine %d: append after recovery: %v", g, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()

	if _, ok := getScan(s2, "cam", "sig", 0); ok {
		t.Error("CRC-poisoned record served after recovery")
	}
	for f := 1; f < frames; f++ {
		if got, ok := getScan(s2, "cam", "sig", f); !ok || got.Frame != f {
			t.Fatalf("surviving frame %d lost after concurrent churn: %+v, %v", f, got, ok)
		}
	}
	if st := s2.TierStats(); st.Evicted == 0 {
		t.Errorf("stats = %+v: churn was supposed to force evictions", st)
	}
}

// TestWriteFaultDegradesTierUnderConcurrency: a write fault mid-churn
// degrades just the scans tier to memory-only — appends stop, puts
// install in the hot tier only, sibling tiers stay durable — without
// racing or failing the writers.
func TestWriteFaultDegradesTierUnderConcurrency(t *testing.T) {
	var mu sync.Mutex
	writes := 0
	opts := Options{
		MemRecords: 256,
		WriteFault: func(kind string) error {
			if kind != "scans" {
				return nil
			}
			mu.Lock()
			defer mu.Unlock()
			writes++
			if writes > 4 {
				return errors.New("injected: disk full")
			}
			return nil
		},
	}
	s, err := Open(t.TempDir(), Meta{Seed: 3}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const goroutines = 6
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for f := 0; f < 40; f++ {
				if err := s.PutScan(scanRec("cam", fmt.Sprintf("sig%d", g), f)); err != nil {
					t.Errorf("goroutine %d: PutScan must absorb the write fault, got %v", g, err)
					return
				}
				if got, ok := getScan(s, "cam", fmt.Sprintf("sig%d", g), f); !ok || got.Frame != f {
					t.Errorf("goroutine %d: mem-only record %d unreadable right after put", g, f)
					return
				}
				if err := s.PutDets("cam", "yolox", f, []Detection{{Score: 0.5}}); err != nil {
					t.Errorf("goroutine %d: healthy dets tier failed: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	st := s.TierStats()
	if st.MemOnlyTiers != 1 {
		t.Fatalf("MemOnlyTiers = %d, want 1 (scans only)", st.MemOnlyTiers)
	}
	if st.ScanRecords > 4 {
		t.Errorf("durable scan records = %d, want <= 4 (appends stopped at degrade)", st.ScanRecords)
	}
	if st.DetRecords == 0 {
		t.Error("dets tier should have stayed durable")
	}
	if got := s.Counters().Get("tier_degraded_mem_only"); got != 1 {
		t.Errorf("tier_degraded_mem_only = %d, want 1", got)
	}
	if got := s.Counters().Get("scan_write_failures"); got == 0 {
		t.Error("scan_write_failures counter not bumped")
	}
	if got := s.Counters().Get("scan_puts_mem_only"); got == 0 {
		t.Error("scan_puts_mem_only counter not bumped")
	}
}

// TestReadFaultServedAsMissUnderConcurrency: injected disk-read faults
// surface as misses (the engine recomputes), never as errors or stale
// data, even while writers keep appending.
func TestReadFaultServedAsMissUnderConcurrency(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 5, 4) // tiny hot tier: most reads must go to disk
	for f := 0; f < 32; f++ {
		if err := s.PutScan(scanRec("cam", "sig", f)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	fail := true
	s2, err := Open(dir, Meta{Seed: 5}, Options{
		MemRecords: 4,
		ReadFault: func(kind string) error {
			if fail {
				return errors.New("injected: read error")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()

	var wg sync.WaitGroup
	misses := make([]int, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for f := 0; f < 32; f++ {
				if _, ok := getScan(s2, "cam", "sig", f); !ok {
					misses[g]++
				}
			}
		}(g)
	}
	wg.Wait()

	total := 0
	for _, m := range misses {
		total += m
	}
	if total == 0 {
		t.Fatal("read faults never surfaced as misses (hot tier too large?)")
	}
	if got := s2.TierStats().FaultedReads; got == 0 {
		t.Error("FaultedReads stat not bumped")
	}
	if got := s2.Counters().Get("scan_faulted_reads"); got == 0 {
		t.Error("scan_faulted_reads counter not bumped")
	}

	// Lift the fault: everything durable is readable again.
	fail = false
	for f := 0; f < 32; f++ {
		if got, ok := getScan(s2, "cam", "sig", f); !ok || got.Frame != f {
			t.Fatalf("frame %d unreadable after faults lifted: %+v, %v", f, got, ok)
		}
	}
}
