package bench

import "testing"

// TestChurnShape runs the E16 experiment at test scale and pins its
// contract: shared invocation counts strictly below per-query, ratios
// exported for the gate, and the internal identity crosscheck passing
// (RunChurn errors otherwise).
func TestChurnShape(t *testing.T) {
	rep, err := RunChurn(Config{Seed: 11, Scale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rep.Rows))
	}
	sharedTrk, ok1 := rep.Metric("churn_shared_tracker_inv")
	perqTrk, ok2 := rep.Metric("churn_perquery_tracker_inv")
	if !ok1 || !ok2 {
		t.Fatalf("missing tracker metrics: %v", rep.Metrics)
	}
	if sharedTrk >= perqTrk {
		t.Errorf("shared tracker inv %.0f not below per-query %.0f", sharedTrk, perqTrk)
	}
	if ratio, ok := rep.Metric("churn_tracker_ratio"); !ok || ratio >= 1 {
		t.Errorf("churn_tracker_ratio = %v, %v", ratio, ok)
	}
	if det, ok := rep.Metric("churn_shared_detect_inv"); !ok || det <= 0 {
		t.Errorf("churn_shared_detect_inv = %v, %v", det, ok)
	}
}
