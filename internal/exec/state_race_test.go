package exec

// Concurrency suite for the sharded SharedCache: run with -race. The
// shards, atomic stats and single-flight guards exist for plan.RunAll's
// worker pool, so these tests hammer them from many goroutines at once.

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vqpy/internal/geom"
	"vqpy/internal/track"
)

func TestSharedCacheConcurrentGetPutStats(t *testing.T) {
	c := NewSharedCache()
	const goroutines = 8
	const perG = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				model := fmt.Sprintf("m%d", i%3)
				frame := i % 50
				box := geom.Rect(float64(i%7)*10, 0, 40, 30)
				dets, err := c.DoDetections(model, frame, func() ([]track.Detection, error) {
					return []track.Detection{{Box: box, Class: 1, Score: 0.9, Ref: g}}, nil
				})
				if err != nil || len(dets) != 1 {
					t.Errorf("detections = %v, %v", dets, err)
					return
				}
				v, err := c.DoLabel(model, frame, box, g, func() (any, error) { return "red", nil })
				if err != nil || v != "red" {
					t.Errorf("label = %v, %v", v, err)
					return
				}
				c.Stats()
			}
		}(g)
	}
	wg.Wait()
	hits, misses := c.Stats()
	if hits+misses == 0 {
		t.Fatal("stats recorded nothing")
	}
}

// TestDoDetectionsSingleFlight asserts the dedup guarantee: concurrent
// misses on one (model, frame) key run the detector exactly once, and
// every caller observes the same output slice.
func TestDoDetectionsSingleFlight(t *testing.T) {
	c := NewSharedCache()
	const goroutines = 16
	var computes atomic.Int32
	var wg sync.WaitGroup
	outs := make([][]track.Detection, goroutines)
	start := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			dets, err := c.DoDetections("yolox", 7, func() ([]track.Detection, error) {
				computes.Add(1)
				time.Sleep(2 * time.Millisecond) // widen the race window
				return []track.Detection{{Box: geom.Rect(1, 2, 3, 4), Class: 2, Score: 0.8}}, nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			outs[g] = dets
		}(g)
	}
	close(start)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("detector ran %d times; single-flight wants 1", n)
	}
	for g := 1; g < goroutines; g++ {
		if &outs[g][0] != &outs[0][0] {
			t.Fatalf("goroutine %d got a different slice than goroutine 0", g)
		}
	}
	if hits, _ := c.Stats(); hits != goroutines-1 {
		t.Errorf("hits = %d, want %d (every waiter counts as a hit)", hits, goroutines-1)
	}
}

func TestDoLabelSingleFlight(t *testing.T) {
	c := NewSharedCache()
	const goroutines = 12
	box := geom.Rect(10, 10, 40, 30)
	var computes atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := c.DoLabel("color_detect", 3, box, 17, func() (any, error) {
				computes.Add(1)
				time.Sleep(2 * time.Millisecond)
				return "red", nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			if v != "red" {
				t.Errorf("label = %v", v)
			}
		}()
	}
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("classifier ran %d times; single-flight wants 1", n)
	}
}

// TestDoDetectionsErrorNotCached checks that a failed computation is
// propagated to concurrent waiters but not stored, so a later call
// retries.
func TestDoDetectionsErrorNotCached(t *testing.T) {
	c := NewSharedCache()
	boom := errors.New("model exploded")
	if _, err := c.DoDetections("m", 1, func() ([]track.Detection, error) {
		return nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	dets, err := c.DoDetections("m", 1, func() ([]track.Detection, error) {
		return []track.Detection{{Class: 5}}, nil
	})
	if err != nil || len(dets) != 1 {
		t.Fatalf("retry after error: dets=%v err=%v", dets, err)
	}
}

// TestNilCachePassthrough: a nil cache must degrade to direct compute
// for the Do* APIs (an executor without Options.Cache calls them on nil).
func TestNilCachePassthrough(t *testing.T) {
	var c *SharedCache
	dets, err := c.DoDetections("m", 0, func() ([]track.Detection, error) {
		return []track.Detection{{Class: 1}}, nil
	})
	if err != nil || len(dets) != 1 {
		t.Fatalf("nil cache DoDetections: %v %v", dets, err)
	}
	v, err := c.DoLabel("m", 0, geom.Rect(0, 0, 1, 1), -1, func() (any, error) { return 42, nil })
	if err != nil || v != 42 {
		t.Fatalf("nil cache DoLabel: %v %v", v, err)
	}
}
