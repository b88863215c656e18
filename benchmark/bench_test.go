package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"vqpy"

	"vqpy/internal/geom"
	"vqpy/internal/models"
)

// small shrinks the benchmark to seconds: 10 s clips, one setup, the
// fewest rounds that still reach a traced one.
var small = params{
	ClipSeconds:   10,
	ServeSeconds:  10,
	SetupRepeats:  1,
	MinRounds:     2,
	BackfillAt:    0.75,
	SnapshotEvery: 50,
	TickRate:      100,
	ReqRate:       20,
	PacedShare:    0.6,
}

func smallEnv(t *testing.T, trace bool) runEnv {
	t.Helper()
	return runEnv{P: small, Seed: 7, Seconds: 0.01, Trace: trace, WorkRoot: t.TempDir()}
}

// chdir moves the test into dir and back when it ends (the command
// reads BENCHMARK.json and writes its scratch space relative to the
// working directory).
func chdir(t *testing.T, dir string) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.Chdir(old) })
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestManifestMatchesCode pins BENCHMARK.json to the tables the code
// emits from, and both to the contract's limits.
func TestManifestMatchesCode(t *testing.T) {
	man, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(man.Paths, []string{"benchmark"}) || !reflect.DeepEqual(man.Command, []string{"go", "run", "./benchmark"}) {
		t.Errorf("command %v, paths %v", man.Command, man.Paths)
	}
	if man.RunSeconds < 1 || man.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", man.RunSeconds)
	}
	if n := len(man.Workloads); n != len(workloads) || n < 2 || n > 8 {
		t.Fatalf("%d workloads in the manifest, %d in code (want 2..8)", n, len(workloads))
	}
	seen := map[string]bool{}
	unique := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside the charset", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, w := range man.Workloads {
		unique(w.Name)
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: manifest %q, code %q", i, w.Name, workloads[i].Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if n := len(man.EndToEnd); n != len(endToEnd) || n > 16 {
		t.Fatalf("%d end-to-end metrics in the manifest, %d in code (want <= 16)", n, len(endToEnd))
	}
	hasSetup := false
	for i, m := range man.EndToEnd {
		unique(m.Name)
		if m.metricDef != endToEnd[i] {
			t.Errorf("end-to-end %d: manifest %+v, code %+v", i, m.metricDef, endToEnd[i])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == lower
		}
	}
	if !hasSetup {
		t.Error("setup_s (unit s, lower is better) is missing")
	}
	if n := len(man.PerLayer); n != len(perLayer) || n > 128 {
		t.Fatalf("%d per-layer metrics in the manifest, %d in code (want <= 128)", n, len(perLayer))
	}
	for i, m := range man.PerLayer {
		unique(m.Name)
		if m != perLayer[i] {
			t.Errorf("per-layer %d: manifest %+v, code %+v", i, m, perLayer[i])
		}
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !unitRE.MatchString(m.Unit) || (m.Better != lower && m.Better != higher) {
			t.Errorf("%s: unit %q / better %q", m.Name, m.Unit, m.Better)
		}
	}
}

// TestSmokeEveryWorkload runs every workload once untraced and once
// traced at the small size: the oracle passes, every metric of the mode
// is reported, end-to-end metrics are never 0, the trace file parses,
// and the workloads stress the layers they claim to.
func TestSmokeEveryWorkload(t *testing.T) {
	layers := map[string]map[string]float64{}
	for _, w := range workloads {
		env := smallEnv(t, false)
		if w.Name == "serve_mixed" {
			env.Seconds = 0.6
		}
		o, err := execute(w, env)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if o.Failed != 0 || o.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", w.Name, o.Failed, o.Attempted, o.Notes)
		}
		for _, m := range endToEnd {
			if v, ok := o.Metrics[m.Name]; !ok || v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v (reported %v)", w.Name, m.Name, v, ok)
			}
		}
		if len(o.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d end-to-end metrics reported, want %d", w.Name, len(o.Metrics), len(endToEnd))
		}

		env = smallEnv(t, true)
		if w.Name == "serve_mixed" {
			env.Seconds = 1.2
		}
		o, err = execute(w, env)
		if err != nil {
			t.Fatalf("%s traced: %v", w.Name, err)
		}
		if o.Failed != 0 {
			t.Errorf("%s traced: %d of %d operations failed: %v", w.Name, o.Failed, o.Attempted, o.Notes)
		}
		for _, m := range perLayer {
			if _, ok := o.Metrics[m.Name]; !ok {
				t.Errorf("%s traced: per-layer metric %s not reported", w.Name, m.Name)
			}
		}
		if len(o.Metrics) != len(perLayer) {
			t.Errorf("%s traced: %d per-layer metrics reported, want %d", w.Name, len(o.Metrics), len(perLayer))
		}
		layers[w.Name] = o.Metrics
		checkTraceFile(t, traceFile(env.WorkRoot, w.Name))
	}

	// The read side of the archive calls (almost) no model and tracks
	// nothing — what remains is the planner's canary profiling, a fixed
	// number of frames that weighs 0.09 per frame on a clip this short
	// (0.007 at full size) against 1 on the live workloads; the
	// store-less workloads never enter store or index.
	warm := layers["archive_warm"]
	for _, name := range []string{"models.detect_calls_per_frame", "models.label_calls_per_frame", "track.updates_per_frame"} {
		if warm[name] > 0.15 {
			t.Errorf("archive_warm: %s = %g, want ~0", name, warm[name])
		}
	}
	for _, w := range []string{"batch_perquery", "mux_churn"} {
		for name, v := range layers[w] {
			if (strings.HasPrefix(name, "store.") || strings.HasPrefix(name, "index.")) && v != 0 {
				t.Errorf("%s: %s = %g, want 0", w, name, v)
			}
		}
		if layers[w]["models.detect_calls_per_frame"] == 0 || layers[w]["exec.self_ns_per_frame"] <= 0 {
			t.Errorf("%s: models and exec rows are empty: %v", w, layers[w])
		}
	}
	cold := layers["archive_cold"]
	for _, name := range []string{"store.put_ns", "store.close_ms", "store.bytes_per_frame", "index.extract_ns_per_frame", "index.entries", "disk_bytes_per_frame"} {
		if cold[name] <= 0 {
			t.Errorf("archive_cold: %s = %g, want > 0", name, cold[name])
		}
	}
	for _, name := range []string{"store.open_ms", "store.get_disk_ns", "index.open_ms", "index.probe_ns", "exec.replay_ns_per_frame", "exec.backfill_ns_per_frame", "exec.index_verify_ns_per_frame", "exec.fidelity_replay_ns_per_frame"} {
		if warm[name] <= 0 {
			t.Errorf("archive_warm: %s = %g, want > 0", name, warm[name])
		}
	}
	srv := layers["serve_mixed"]
	for _, name := range []string{"serve.step_ns", "serve.results_ns", "serve.text_ns", "serve.search_ns", "serve.fidelity_ns", "serve.lock_busy_ratio", "serve.status_2xx", "serve.req_per_s", "metrics.render_ns", "metrics.bytes"} {
		if srv[name] <= 0 {
			t.Errorf("serve_mixed: %s = %g, want > 0", name, srv[name])
		}
	}
	if srv["serve.status_4xx"] != 0 || srv["serve.status_5xx"] != 0 {
		t.Errorf("serve_mixed: %g 4xx and %g 5xx replies", srv["serve.status_4xx"], srv["serve.status_5xx"])
	}
}

// checkTraceFile reads a trace back: a run record, then spans whose
// parents exist and contain them.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	if !sc.Scan() {
		t.Fatalf("%s is empty", path)
	}
	var record map[string]any
	if err := json.Unmarshal(sc.Bytes(), &record); err != nil || record["seed"] == nil || record["go"] == nil {
		t.Fatalf("%s: bad run record %s (%v)", path, sc.Bytes(), err)
	}
	spans := map[int32]span{}
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if s.Name == "" || s.End < s.Start {
			t.Fatalf("%s: malformed span %+v", path, s)
		}
		spans[s.ID] = s
	}
	if len(spans) == 0 {
		t.Fatalf("%s holds no spans", path)
	}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := spans[s.Parent]
		if !ok || p.Start > s.Start || p.End < s.End {
			t.Fatalf("%s: span %+v is not inside its parent %+v", path, s, p)
		}
	}
}

// TestCorruptReferenceExitsNonZero spoils one reference answer: the
// command must count failures and exit non-zero, on an engine workload
// and on the serving one.
func TestCorruptReferenceExitsNonZero(t *testing.T) {
	for _, w := range []string{"batch_perquery", "serve_mixed"} {
		var stdout, stderr bytes.Buffer
		chdir(t, t.TempDir())
		code := realMain(small, []string{"-workload", w, "-seconds", "0.5", "-corrupt-reference"}, &stdout, &stderr)
		if code == 0 {
			t.Fatalf("%s: exit code 0 with a corrupted reference\n%s", w, stdout.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("%s: last line is not the result: %v", w, err)
		}
		if res.Correct || res.Failed == 0 || res.Failed > res.Attempted {
			t.Errorf("%s: result %+v does not report the failures", w, res)
		}
	}
}

// TestResultLine checks the command's contract on a clean run: exit 0,
// last line one JSON object with exactly the four keys, every metric of
// the mode with its unit.
func TestResultLine(t *testing.T) {
	chdir(t, t.TempDir())
	var stdout, stderr bytes.Buffer
	if code := realMain(small, []string{"--workload", "mux_churn", "--seed", "11", "--seconds", "0.01", "--trace", "0"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
		t.Fatal(err)
	}
	if len(raw) != 4 || raw["correct"] == nil || raw["attempted"] == nil || raw["failed"] == nil || raw["metrics"] == nil {
		t.Fatalf("result keys: %v", raw)
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted < 1 || len(res.Metrics) != len(endToEnd) {
		t.Errorf("result %+v", res)
	}
	for _, m := range endToEnd {
		if got := res.Metrics[m.Name]; got.Unit != m.Unit || got.Value <= 0 {
			t.Errorf("%s = %+v", m.Name, got)
		}
	}
	if !strings.Contains(stdout.String(), `"seed":11`) || !strings.Contains(stdout.String(), `"nproc"`) {
		t.Errorf("run record is missing from the output:\n%s", lines[0])
	}
	for _, bad := range [][]string{{"-workload", "nope"}, {"-trace", "2"}, {"-seconds", "0"}, {"stray"}} {
		if code := realMain(small, bad, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit code %d, want 2", bad, code)
		}
	}
}

// TestCompareSets feeds the -agree comparison two synthetic sets: the
// table covers every pairing, a difference inside the bound passes, one
// outside it is counted in either direction, and the ledger metric must
// repeat exactly on the engine workloads.
func TestCompareSets(t *testing.T) {
	man, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	bound := map[string]float64{}
	for _, m := range man.EndToEnd {
		bound[m.Name] = m.Bound
	}
	set := func(scale map[string]float64) map[string]*outcome {
		out := map[string]*outcome{}
		for _, w := range workloads {
			o := newOutcome()
			for _, m := range endToEnd {
				o.Metrics[m.Name] = 100
				if f, ok := scale[w.Name+"/"+m.Name]; ok {
					o.Metrics[m.Name] = 100 * f
				}
			}
			out[w.Name] = o
		}
		return out
	}
	var table bytes.Buffer
	if n := compareSets(man, [2]map[string]*outcome{set(nil), set(nil)}, &table); n != 0 {
		t.Errorf("identical sets disagree on %d metrics", n)
	}
	if rows := strings.Count(table.String(), "\n") - 1; rows != len(workloads)*len(endToEnd) {
		t.Errorf("%d table rows, want %d", rows, len(workloads)*len(endToEnd))
	}
	inside := 1 + bound["frames_per_s"]/2
	outside := 1 + 2*bound["req_p95_ms"]
	got := compareSets(man, [2]map[string]*outcome{set(nil), set(map[string]float64{
		"mux_churn/frames_per_s":           inside,      // within the bound
		"batch_perquery/req_p95_ms":        outside,     // set 2 worse
		"archive_cold/frames_per_s":        1 / outside, // set 2 worse (higher is better)
		"archive_warm/req_p95_ms":          1 / outside, // set 1 worse
		"mux_churn/virtual_ms_per_frame":   1.0000001,   // exact on an engine workload
		"serve_mixed/virtual_ms_per_frame": 1.0000001,   // timing-dependent on the server
	})}, &table)
	if got != 4 {
		t.Errorf("%d disagreements counted, want 4:\n%s", got, table.String())
	}
	if !strings.Contains(table.String(), "NOT IDENTICAL") {
		t.Error("a moved ledger metric was not reported as NOT IDENTICAL")
	}
	if worsening(higher, 100, 90) != 0.1 || worsening(lower, 100, 110) != 0.1 || worsening(lower, 100, 90) != -0.1 {
		t.Error("worsening has the wrong sign")
	}
}

// modelInterfaces are the capabilities the engine type-asserts for.
func modelInterfaces(m any) [8]bool {
	_, det := m.(models.Detector)
	_, cls := m.(models.Classifier)
	_, emb := m.(models.Embedder)
	_, ocr := m.(models.OCRModel)
	_, hoi := m.(models.HOIModel)
	_, bin := m.(models.BinaryFilter)
	_, vlm := m.(models.ConceptModel)
	_, cln := m.(models.Cloner)
	return [8]bool{det, cls, emb, ocr, hoi, bin, vlm, cln}
}

// TestWrappedModelsIdentical: a traced registry must be invisible to
// the engine — every wrapped model keeps its name and every interface
// of the original, returns bit-identical outputs and charges the same
// virtual cost.
func TestWrappedModelsIdentical(t *testing.T) {
	const seed = 5
	v := vqpy.GenerateVideo(vqpy.DatasetCityFlow(seed, 5))
	plain := models.BuiltinRegistry()
	traced := models.BuiltinRegistry()
	tr := newTracer()
	tr.wrapRegistry(traced)
	box := geom.BBox{X1: 100, Y1: 100, X2: 220, Y2: 180}
	for _, name := range plain.Names() {
		pm, _ := plain.Get(name)
		tm, _ := traced.Get(name)
		if modelInterfaces(pm) != modelInterfaces(tm) {
			t.Errorf("%s: wrapper changes the interface set: %v → %v", name, modelInterfaces(pm), modelInterfaces(tm))
		}
		if c, ok := tm.(models.Cloner); ok {
			if modelInterfaces(c.CloneModel()) != modelInterfaces(tm) {
				t.Errorf("%s: a clone of the wrapper loses the wrapper", name)
			}
		}
		penv, tenv := models.NewEnv(seed), models.NewEnv(seed)
		penv.NoBurn, tenv.NoBurn = true, true
		for i := range v.Frames {
			f := &v.Frames[i]
			var a, b any
			switch m := pm.(type) {
			case models.Detector:
				a, b = m.Detect(penv, f), tm.(models.Detector).Detect(tenv, f)
			case models.Classifier:
				a, b = m.Classify(penv, f, nil, box, 3), tm.(models.Classifier).Classify(tenv, f, nil, box, 3)
			case models.Embedder:
				a, b = m.Embed(penv, f, box, 3), tm.(models.Embedder).Embed(tenv, f, box, 3)
			case models.OCRModel:
				a, b = m.ReadPlate(penv, f, box, 3), tm.(models.OCRModel).ReadPlate(tenv, f, box, 3)
			case models.HOIModel:
				a, b = m.DetectInteractions(penv, f), tm.(models.HOIModel).DetectInteractions(tenv, f)
			case models.BinaryFilter:
				a, b = m.Keep(penv, f), tm.(models.BinaryFilter).Keep(tenv, f)
			case models.ConceptModel:
				a, b = m.AnswerConcept(penv, f, 0, []string{"stopped"}), tm.(models.ConceptModel).AnswerConcept(tenv, f, 0, []string{"stopped"})
			default:
				t.Fatalf("%s: model of no known kind", name)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s frame %d: wrapped output differs", name, i)
			}
		}
		if pm.(interface{ Name() string }).Name() != tm.(interface{ Name() string }).Name() {
			t.Errorf("%s: wrapper changes the name", name)
		}
		if !reflect.DeepEqual(penv.Clock.Accounts(), tenv.Clock.Accounts()) ||
			!reflect.DeepEqual(penv.Clock.InvocationTotals(), tenv.Clock.InvocationTotals()) {
			t.Errorf("%s: wrapped virtual cost differs: %v vs %v", name, penv.Clock.Accounts(), tenv.Clock.Accounts())
		}
	}

	// And through the engine: same answers, same ledger, with spans.
	for _, q := range mixQueries() {
		ps, ts := newSession(seed, nil), newSession(seed, tr)
		pr, err := ps.Execute(q, v)
		if err != nil {
			t.Fatal(err)
		}
		trr, err := ts.Execute(q, v)
		if err != nil {
			t.Fatal(err)
		}
		if !answerOfRun(pr).equal(answerOfRun(trr)) || !reflect.DeepEqual(pr.Basic.Hits, trr.Basic.Hits) {
			t.Errorf("%s: traced session answers differently", q.Name())
		}
		if !reflect.DeepEqual(ps.Clock().Accounts(), ts.Clock().Accounts()) {
			t.Errorf("%s: traced session charges differently", q.Name())
		}
	}
	if tr.total(spanDetect).Calls == 0 || tr.total(spanLabel).Calls == 0 {
		t.Error("the traced sessions recorded no model spans")
	}
}

func TestStatistics(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if median(xs) != 3 || percentile(xs, 1) != 5 || percentile(xs, 0) != 1 || percentile(nil, 0.5) != 0 {
		t.Error("percentile")
	}
	if got := percentile([]float64{0, 10}, 0.95); got != 9.5 {
		t.Errorf("interpolated p95 = %g", got)
	}
	ws := []weighted{{10, 1}, {1, 98}, {5, 1}}
	if weightedPercentile(ws, 0.5) != 1 || weightedPercentile(ws, 0.99) != 5 || weightedPercentile(ws, 1) != 10 {
		t.Error("weightedPercentile")
	}
	if mean(xs) != 3 || mean(nil) != 0 || ratio(1, 0) != 0 {
		t.Error("mean / ratio")
	}
	var w wire
	if err := decodeWire([]byte(`{"id":3,"frames_processed": 412,"result":{"Matched":[true`), true, &w); err != nil || w.FramesProcessed != 412 {
		t.Errorf("decodeWire on a snapshot: %+v, %v", w, err)
	}
	if err := decodeWire([]byte(`{"id":3}`), true, &w); err == nil {
		t.Error("decodeWire accepted a snapshot without frames_processed")
	}
}
