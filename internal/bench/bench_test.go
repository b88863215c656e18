package bench

import (
	"strconv"
	"strings"
	"testing"

	"vqpy"

	"vqpy/internal/video"
)

// smallCfg keeps harness tests fast; the shapes must already hold at
// this scale.
func smallCfg() Config { return Config{Seed: 7, Scale: 0.25} }

// cell parses a numeric report cell (stripping % and x suffixes).
func cell(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(strings.TrimSuffix(strings.TrimSpace(s), "%"), "x")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", s, err)
	}
	return v
}

func TestFig13aShape(t *testing.T) {
	rep, err := RunFig13a(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", rep)
	if len(rep.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(rep.Rows))
	}
	var cvipCosts []float64
	for _, row := range rep.Rows {
		cvipS := cell(t, row[2])
		vqpyS := cell(t, row[3])
		memoS := cell(t, row[5])
		cvipCosts = append(cvipCosts, cvipS)
		if vqpyS >= cvipS {
			t.Errorf("%s: VQPy (%.1f) not faster than CVIP (%.1f)", row[0], vqpyS, cvipS)
		}
		if memoS >= vqpyS {
			t.Errorf("%s: memo (%.1f) not faster than vanilla (%.1f)", row[0], memoS, vqpyS)
		}
		if sp := cell(t, row[6]); sp < 4 {
			t.Errorf("%s: memo speedup %.1fx below 4x", row[0], sp)
		}
	}
	// CVIP flat: all five costs within 5%.
	for _, c := range cvipCosts[1:] {
		if c < cvipCosts[0]*0.95 || c > cvipCosts[0]*1.05 {
			t.Errorf("CVIP runtime not flat: %v", cvipCosts)
		}
	}
	// Rarity effect: green sedan (Q1) speedup should exceed black sedan
	// (Q4) speedup for vanilla VQPy.
	q1 := cell(t, rep.Rows[0][4])
	q4 := cell(t, rep.Rows[3][4])
	if q1 <= q4 {
		t.Logf("note: rare-color speedup %.1fx not above common-color %.1fx at this scale", q1, q4)
	}
}

func TestFig13bShape(t *testing.T) {
	rep, err := RunFig13b(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", rep)
	if len(rep.Rows) != 3 || len(rep.Curves) != 3 {
		t.Fatalf("rows/curves = %d/%d", len(rep.Rows), len(rep.Curves))
	}
	cvipMean := cell(t, rep.Rows[0][2])
	vqpyMean := cell(t, rep.Rows[1][2])
	memoMean := cell(t, rep.Rows[2][2])
	if !(memoMean < vqpyMean && vqpyMean < cvipMean) {
		t.Errorf("per-frame means not ordered: cvip=%.1f vqpy=%.1f memo=%.1f", cvipMean, vqpyMean, memoMean)
	}
	// Memoization flattens the curve: last-quarter mean close to overall
	// mean (warm memo) and far below vanilla's last quarter.
	memoLast := cell(t, rep.Rows[2][4])
	vqpyLast := cell(t, rep.Rows[1][4])
	if memoLast >= vqpyLast {
		t.Errorf("memo last-quarter %.1f not below vanilla %.1f", memoLast, vqpyLast)
	}
}

func TestFig14Shape(t *testing.T) {
	rep, err := RunFig14(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", rep)
	if len(rep.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		if sp := cell(t, row[4]); sp < 1.5 {
			t.Errorf("%s/%s min: speedup %.1fx below 1.5x", row[0], row[1], sp)
		}
	}
}

func TestFig15Shape(t *testing.T) {
	rep, err := RunFig15(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", rep)
	for _, row := range rep.Rows {
		if sp := cell(t, row[4]); sp < 1.1 {
			t.Errorf("%s/%s min: speedup %.1fx below 1.1x", row[0], row[1], sp)
		}
	}
}

func TestFig16Shape(t *testing.T) {
	rep, err := RunFig16(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", rep)
	for _, row := range rep.Rows {
		naive := cell(t, row[4])
		refined := cell(t, row[6])
		if naive < 3 {
			t.Errorf("%s/%s min: naive EVA speedup %.1fx below 3x", row[0], row[1], naive)
		}
		if refined >= naive {
			t.Errorf("%s/%s min: refined (%.1fx) not better than naive (%.1fx)", row[0], row[1], refined, naive)
		}
		if refined < 1.0 {
			t.Errorf("%s/%s min: VQPy slower than refined EVA (%.1fx)", row[0], row[1], refined)
		}
	}
}

func TestTable5Shape(t *testing.T) {
	rep, err := RunTable5(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", rep)
	// Row order: Pre, Q1..Q5, Q6.
	if len(rep.Rows) != 7 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	for _, row := range rep.Rows[1:] {
		vc7 := cell(t, row[1])
		vc13 := cell(t, row[2])
		vq := cell(t, row[3])
		if vq >= vc7 {
			t.Errorf("%s: VQPy (%.1f) not faster than VideoChat-7B (%.1f)", row[0], vq, vc7)
		}
		if vc13 <= vc7 {
			t.Errorf("%s: 13B low-resource (%.1f) not slower than 7B (%.1f)", row[0], vc13, vc7)
		}
	}
	// VQPy-Opt Q6 cheaper than plain Q6.
	q6 := rep.Rows[6]
	if opt := cell(t, q6[4]); opt >= cell(t, q6[3]) {
		t.Errorf("Q6 opt (%.1f) not cheaper than plain (%.1f)", opt, cell(t, q6[3]))
	}
}

func TestTable6Shape(t *testing.T) {
	rep, err := RunTable6(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", rep)
	if len(rep.Rows) != 4 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		vc7 := cell(t, row[2])
		vc13 := cell(t, row[3])
		vq := cell(t, row[4])
		if vq <= vc7 || vq <= vc13 {
			t.Errorf("%s: VQPy F1 %.2f not above VideoChat (%.2f, %.2f)", row[0], vq, vc7, vc13)
		}
		if vq < 0.5 {
			t.Errorf("%s: VQPy F1 %.2f implausibly low", row[0], vq)
		}
	}
}

func TestTable7Shape(t *testing.T) {
	rep, err := RunTable7(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", rep)
	// VideoChat over-counts relative to truth; VQPy near truth.
	truthQ4 := cell(t, rep.Rows[3][1])
	vc7Q4 := cell(t, rep.Rows[0][1])
	vqQ4 := cell(t, rep.Rows[2][1])
	if vc7Q4 <= truthQ4 {
		t.Errorf("VideoChat Q4 average %.2f does not over-count truth %.2f", vc7Q4, truthQ4)
	}
	if diff := vqQ4 - truthQ4; diff < -1.5 || diff > 1.5 {
		t.Errorf("VQPy Q4 average %.2f too far from truth %.2f", vqQ4, truthQ4)
	}
}

func TestMemoAblationShape(t *testing.T) {
	rep, err := RunMemoAblation(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", rep)
	if len(rep.Rows) != 3 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	slow := cell(t, rep.Rows[0][5])
	fast := cell(t, rep.Rows[2][5])
	if slow <= fast {
		t.Errorf("memo speedup should grow with dwell: slow=%.1fx fast=%.1fx", slow, fast)
	}
}

func TestPlannerAblationShape(t *testing.T) {
	rep, err := RunPlannerAblation(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", rep)
	chosen := 0
	for _, row := range rep.Rows {
		if strings.Contains(row[3], "selected") {
			chosen++
			// The chosen plan must not be the most expensive.
			if cell(t, row[1]) > cell(t, rep.Rows[0][1]) {
				t.Errorf("selected plan costs more than the reference")
			}
		}
	}
	if chosen != 1 {
		t.Errorf("chosen plans = %d", chosen)
	}
}

func TestLazyAblationShape(t *testing.T) {
	rep, err := RunLazyAblation(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", rep)
	eager := cell(t, rep.Rows[0][1])
	lazy := cell(t, rep.Rows[1][1])
	if lazy >= eager {
		t.Errorf("lazy (%.1f) not cheaper than eager (%.1f)", lazy, eager)
	}
}

func TestExplainSuspectDAG(t *testing.T) {
	out, err := ExplainSuspectDAG(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", out)
	for _, want := range []string{"detect", "track", "rel_project", "similarity", "color"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain output missing %q", want)
		}
	}
}

func TestEdgeAblationShape(t *testing.T) {
	rep, err := RunEdgeAblation(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", rep)
	if len(rep.Rows) != 2 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	serverOnly := cell(t, rep.Rows[0][2])
	edgeFiltered := cell(t, rep.Rows[1][2])
	if edgeFiltered >= serverOnly {
		t.Errorf("edge filtering did not reduce server load: %.1f vs %.1f", edgeFiltered, serverOnly)
	}
	if cell(t, rep.Rows[1][3]) <= 0 {
		t.Error("no edge cost recorded in edge_filtered config")
	}
	if cell(t, rep.Rows[1][4]) <= 0 {
		t.Error("no uplink cost recorded")
	}
}

func TestMuxScanShape(t *testing.T) {
	rep, err := RunMuxScan(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", rep)
	if len(rep.Rows) != 4 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	// Detector invocations must collapse from isolated to the
	// cache-sharing modes, and tracker invocations must collapse only
	// under muxscan.
	inv := func(kind, mode string) float64 {
		v, ok := rep.Metric("muxscan_" + kind + "_inv_" + mode)
		if !ok {
			t.Fatalf("metric muxscan_%s_inv_%s missing: %v", kind, mode, rep.Metrics)
		}
		return v
	}
	isoDet, seqDet, muxDet := inv("detect", "isolated"), inv("detect", "runall-seq"), inv("detect", "muxscan")
	if seqDet >= isoDet || muxDet > seqDet {
		t.Errorf("detector invocations: isolated=%v seq=%v mux=%v", isoDet, seqDet, muxDet)
	}
	if seqTrack, muxTrack := inv("tracker", "runall-seq"), inv("tracker", "muxscan"); muxTrack >= seqTrack {
		t.Errorf("tracker invocations did not drop: seq=%v mux=%v", seqTrack, muxTrack)
	}
	// Total virtual work of the shared pass must not exceed the
	// sequential scheduler's (a report cell; no metric carries it).
	if muxMS, seqMS := cell(t, rep.Rows[3][5]), cell(t, rep.Rows[1][5]); muxMS > seqMS {
		t.Errorf("shared scan charged more virtual time (%v) than sequential (%v)", muxMS, seqMS)
	}
}

func TestStreamingFacade(t *testing.T) {
	// The real-time mode: feed frames one by one through the facade.
	cfg := smallCfg().withDefaults()
	s := cfg.session()
	v := video.CityFlow(cfg.Seed, 30).Generate()
	q := vqpyRedCarQuery()
	st, err := s.OpenStream(q, v, v.FPS, vqpy.WithoutFrameFilters(), vqpy.WithoutSpecialized())
	if err != nil {
		t.Fatal(err)
	}
	matched := 0
	for i := range v.Frames {
		verdict, err := st.Feed(&v.Frames[i])
		if err != nil {
			t.Fatal(err)
		}
		if verdict.Matched {
			matched++
		}
	}
	res := st.Close()
	if res.MatchedCount() != matched {
		t.Errorf("stream verdicts (%d) disagree with result (%d)", matched, res.MatchedCount())
	}
	if matched == 0 {
		t.Error("stream matched nothing")
	}
}
