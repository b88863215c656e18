package store

import (
	"fmt"
	"sync"
	"testing"

	"vqpy/internal/geom"
)

// TestConcurrentAccess drives writers and readers from many goroutines
// at once — the shape of MuxStream lanes populating the store while a
// backfill replays and a rescan reads. Run under -race.
func TestConcurrentAccess(t *testing.T) {
	s := openTest(t, t.TempDir(), 7, 32)
	defer s.Close()

	const (
		goroutines = 8
		frames     = 200
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sig := fmt.Sprintf("sig%d", g%2)
			for f := 0; f < frames; f++ {
				switch f % 4 {
				case 0:
					rec := scanRec("cam", sig, f)
					if err := s.PutScan(rec); err != nil {
						t.Errorf("PutScan: %v", err)
						return
					}
				case 1:
					getScan(s, "cam", sig, f-1)
				case 2:
					// This goroutine wrote frame f-2 two steps ago, and no
					// det record with it: the reader crosses both tiers.
					if fr, miss := s.Scans("cam", sig, "yolox").Frame(f-2, true); miss != MissNoDets || fr.Rec.Frame != f-2 {
						t.Errorf("frame %d read back as %+v, %v", f-2, fr.Rec, miss)
					}
				case 3:
					if err := s.PutLabel("cam", "m", f, geom.Rect(0, 0, 1, 1), g, fmt.Sprint(g)); err != nil {
						t.Errorf("PutLabel: %v", err)
						return
					}
					s.GetLabel("cam", "m", f, geom.Rect(0, 0, 1, 1), g)
				}
			}
		}(g)
	}
	wg.Wait()

	stats := s.TierStats()
	if stats.ScanRecords == 0 || stats.LabelRecords == 0 {
		t.Fatalf("expected durable records after concurrent churn: %+v", stats)
	}
}
