package vqpy_test

import (
	"reflect"
	"testing"

	"vqpy"

	"vqpy/internal/bench"
)

// TestSharedScanIdenticalToPerQuery is the shared-scan acceptance
// crosscheck: ExecuteShared over the 8-query serving workload must
// produce results identical to sequential per-query execution — matched
// vectors, events, hits, aggregations — while the ledger shows the scan
// work collapsing (tracker runs once per scan group per frame instead
// of once per query per frame, and detector invocations stay at one per
// (model, frame)).
func TestSharedScanIdenticalToPerQuery(t *testing.T) {
	cfg := bench.Config{Seed: 77, Scale: 0.25}

	seq, seqSession, err := bench.RunWorkload(cfg, "runall", 1)
	if err != nil {
		t.Fatal(err)
	}
	shared, sharedSession, err := bench.RunWorkload(cfg, "muxscan", 1)
	if err != nil {
		t.Fatal(err)
	}

	if len(seq) != len(shared) {
		t.Fatalf("%d vs %d results", len(seq), len(shared))
	}
	for i := range seq {
		if seq[i].Name != shared[i].Name {
			t.Fatalf("query %d: name %q vs %q", i, seq[i].Name, shared[i].Name)
		}
		if !reflect.DeepEqual(seq[i].Matched, shared[i].Matched) {
			t.Errorf("query %s: matched vectors differ", seq[i].Name)
		}
		if !reflect.DeepEqual(seq[i].Events, shared[i].Events) {
			t.Errorf("query %s: events differ", seq[i].Name)
		}
		sb, hb := seq[i].Basic, shared[i].Basic
		if (sb == nil) != (hb == nil) {
			t.Fatalf("query %s: basic result presence differs", seq[i].Name)
		}
		if sb != nil {
			if !reflect.DeepEqual(sb.Hits, hb.Hits) {
				t.Errorf("query %s: hits differ", seq[i].Name)
			}
			if sb.Count != hb.Count || !reflect.DeepEqual(sb.TrackIDs, hb.TrackIDs) {
				t.Errorf("query %s: aggregation differs", seq[i].Name)
			}
		}
	}

	seqTrack := seqSession.Clock().Invocations("tracker")
	sharedTrack := sharedSession.Clock().Invocations("tracker")
	if sharedTrack >= seqTrack {
		t.Errorf("shared scan did not reduce tracker work: %d vs %d invocations",
			sharedTrack, seqTrack)
	}

	// Detector work is already deduplicated by the cache on the
	// sequential path; the shared scan must not add any.
	if sd, qd := sharedDetects(sharedSession), sharedDetects(seqSession); sd > qd {
		t.Errorf("shared scan ran more detector invocations (%d) than per-query (%d)", sd, qd)
	}
}

// sharedDetects sums detector-model invocation counts from a session's
// ledger (detector accounts are the model names).
func sharedDetects(s *vqpy.Session) int64 {
	var total int64
	for name, n := range s.Clock().InvocationTotals() {
		switch name {
		case "yolox", "yolov8m", "yolov5s", "car_detector", "person_detector",
			"red_car_specialized", "ball_person_cheap":
			total += n
		}
	}
	return total
}
