package main

// Shared plumbing of the benchmark: the frozen constants, the metric
// tables (the single source BENCHMARK.json is checked against), the
// per-run environment and the small statistics helpers.

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// params are the calibrated constants of the benchmark. frozen holds
// the values every real run uses; tests shrink the clips and rates.
type params struct {
	// ClipSeconds is the CityFlow clip length of the four engine
	// workloads; ServeSeconds the per-source clip length of serve_mixed.
	ClipSeconds  float64
	ServeSeconds float64
	// SetupRepeats is how often setup runs; setup_s is the median.
	SetupRepeats int
	// MinRounds is the least number of timed rounds of an engine
	// workload, whatever -seconds says.
	MinRounds int
	// BackfillAt is where archive_warm attaches its late query, as a
	// fraction of the clip (frame 900 of 1200).
	BackfillAt float64
	// SnapshotEvery is the poll period, in frames, of the standing
	// RedCar lane in mux_churn.
	SnapshotEvery int
	// TickRate is the open-loop frame rate of the benchmark's camera on
	// the banff source (ticks/s); ReqRate the paced request rate of
	// each client (req/s); PacedShare the share of -seconds spent in
	// the paced phase A, the rest being the closed-loop phase B.
	TickRate   float64
	ReqRate    float64
	PacedShare float64
}

var frozen = params{
	ClipSeconds:   120,
	ServeSeconds:  30,
	SetupRepeats:  3,
	MinRounds:     3,
	BackfillAt:    0.75,
	SnapshotEvery: 100,
	TickRate:      200,
	ReqRate:       12,
	PacedShare:    0.6,
}

// metricDef names one metric with its unit and direction.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd lists the metrics a user of the system would see. Every
// workload reports every one of them (README.md says how each reads on
// each workload); bounds live in BENCHMARK.json.
var endToEnd = []metricDef{
	{"setup_s", "s", lower},
	{"live_heap_mb", "MB", lower},
	{"frames_per_s", "1/s", higher},
	{"virtual_ms_per_frame", "vms/frame", lower},
	{"allocs_per_frame", "1/frame", lower},
	{"req_p50_ms", "ms", lower},
	{"req_p95_ms", "ms", lower},
	{"first_verdict_p50_ms", "ms", lower},
	{"tick_late_p95_ms", "ms", lower},
}

// perLayer lists the single-layer metrics of the traced run; layers
// are the module names. A workload that never enters a layer reports
// that layer's rows as 0.
var perLayer = []metricDef{
	{"trace_overhead_ratio", "ratio", lower},
	{"disk_bytes_per_frame", "B/frame", lower},

	{"video.generate_ms", "ms", lower},
	{"video.frame_at_ns", "ns", lower},
	{"video.render_ns", "ns", lower},

	{"models.detect_calls_per_frame", "1/frame", lower},
	{"models.detect_ns", "ns", lower},
	{"models.detect_virtual_ms_per_frame", "vms/frame", lower},
	{"models.label_calls_per_frame", "1/frame", lower},
	{"models.label_ns", "ns", lower},
	{"models.label_virtual_ms_per_frame", "vms/frame", lower},
	{"models.filter_calls_per_frame", "1/frame", lower},
	{"models.filter_ns", "ns", lower},
	{"models.filter_drop_ratio", "ratio", higher},
	{"models.vlm_calls_per_frame", "1/frame", lower},
	{"models.vlm_virtual_ms_per_frame", "vms/frame", lower},

	{"track.updates_per_frame", "1/frame", lower},
	{"track.update_ns", "ns", lower},
	{"track.dets_per_update", "count", lower},

	{"sim.charges_per_frame", "1/frame", lower},
	{"sim.charge_ns", "ns", lower},

	{"exec.feed_ns_per_frame", "ns/frame", lower},
	{"exec.self_ns_per_frame", "ns/frame", lower},
	{"exec.allocs_per_frame", "1/frame", lower},
	{"exec.alloc_bytes_per_frame", "B/frame", lower},
	{"exec.memo_hit_ratio", "ratio", higher},
	{"exec.lanes_per_group", "count", higher},
	{"exec.attach_ns", "ns", lower},
	{"exec.detach_ns", "ns", lower},
	{"exec.snapshot_ns", "ns", lower},
	{"exec.pool_speedup", "ratio", higher},
	{"exec.replay_ns_per_frame", "ns/frame", lower},
	{"exec.backfill_ns_per_frame", "ns/frame", lower},
	{"exec.index_verify_ns_per_frame", "ns/frame", lower},
	{"exec.fidelity_replay_ns_per_frame", "ns/frame", lower},

	{"plan.plan_query_ns", "ns", lower},
	{"plan.compile_ns", "ns", lower},
	{"plan.candidates", "count", lower},
	{"plan.est_error_ratio", "ratio", lower},
	{"plan.search_ns", "ns", lower},
	{"plan.fidelity_plan_ns", "ns", lower},

	{"store.put_ns", "ns", lower},
	{"store.get_mem_ns", "ns", lower},
	{"store.get_disk_ns", "ns", lower},
	{"store.open_ms", "ms", lower},
	{"store.close_ms", "ms", lower},
	{"store.bytes_per_frame", "B/frame", lower},
	{"store.records_per_frame", "1/frame", lower},
	{"store.mem_hit_ratio", "ratio", higher},
	{"store.evictions_per_frame", "1/frame", lower},

	{"index.extract_ns_per_frame", "ns/frame", lower},
	{"index.bytes_per_track", "B", lower},
	{"index.open_ms", "ms", lower},
	{"index.entries", "count", lower},
	{"index.probe_ns", "ns", lower},
	{"index.candidates_per_probe", "count", lower},
	{"index.pruned_ratio", "ratio", higher},

	{"vql.parse_ns", "ns", lower},
	{"vql.compile_ns", "ns", lower},

	{"serve.step_ns", "ns", lower},
	{"serve.attach_ns", "ns", lower},
	{"serve.detach_ns", "ns", lower},
	{"serve.results_ns", "ns", lower},
	{"serve.results_bytes", "B", lower},
	{"serve.streamz_ns", "ns", lower},
	{"serve.text_ns", "ns", lower},
	{"serve.search_ns", "ns", lower},
	{"serve.fidelity_ns", "ns", lower},
	{"serve.transport_ns", "ns", lower},
	{"serve.lock_busy_ratio", "ratio", lower},
	{"serve.queue_wait_p95_ms", "ms", lower},
	{"serve.status_2xx", "count", higher},
	{"serve.status_4xx", "count", lower},
	{"serve.status_5xx", "count", lower},
	{"serve.generator_late_p95_ms", "ms", lower},
	{"serve.req_per_s", "1/s", higher},
	{"serve.text_p50_ms", "ms", lower},
	{"serve.search_p50_ms", "ms", lower},
	{"serve.fidelity_p50_ms", "ms", lower},
	{"serve.first_verdict_p90_ms", "ms", lower},
	{"serve.backlog_growth_ratio", "ratio", lower},

	{"metrics.render_ns", "ns", lower},
	{"metrics.bytes", "B", lower},
}

// workloadDef is one workload: why it exists and how to run it.
type workloadDef struct {
	Name string
	Why  string
	run  func(*runEnv) (*outcome, error)
}

var workloads = []workloadDef{
	{"batch_perquery", "analyst path: 8 queries and 3 text sentences, each planned and run on a fresh session; single-threaded baseline that scan sharing and the store never touch", runBatchPerQuery},
	{"mux_churn", "8 standing queries attach and detach on one live stream; shared scan groups and lane binding carry the work, planning is a small share and the store none", runMuxChurn},
	{"archive_cold", "write side of the archive: models run and every record is encoded, appended, indexed, tiered and flushed; the only workload where store and index writes dominate", runArchiveCold},
	{"archive_warm", "read side of the archive: reopen, warm rescans, index probes, fidelity replays and a backfill with no model calls; pairs with archive_cold to show a read gain bought with a write cost", runArchiveWarm},
	{"serve_mixed", "operator path over loopback HTTP: paced ticks on one source while sync queries hit another (cross-source head-of-line blocking), then a closed-loop capacity phase", runServeMixed},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// runEnv is what one run of one workload is given.
type runEnv struct {
	P       params
	Seed    uint64
	Seconds float64
	Trace   bool
	// WorkRoot is the benchmark's scratch space; WorkDir a directory
	// under it for this run alone, removed when the run ends; TraceFile
	// is where a traced run writes its spans.
	WorkRoot  string
	WorkDir   string
	TraceFile string
	// corrupt, when set, spoils one reference answer after setup (the
	// oracle self-test: the run must then report failures).
	corrupt bool
	dirSeq  int
}

// tempDir returns a fresh directory under the run's scratch space.
func (e *runEnv) tempDir(prefix string) (string, error) {
	e.dirSeq++
	dir := filepath.Join(e.WorkDir, fmt.Sprintf("%s-%d", prefix, e.dirSeq))
	return dir, os.MkdirAll(dir, 0o755)
}

// outcome is what a workload reports: every metric of the mode it ran
// in (end-to-end untraced, per-layer traced), and the oracle's tally.
type outcome struct {
	Metrics   map[string]float64
	Attempted int
	Failed    int
	// Samples counts the observations behind the percentile metrics.
	Samples map[string]int
	// Notes are run-record lines printed with the metrics.
	Notes []string
}

func newOutcome() *outcome {
	return &outcome{Metrics: map[string]float64{}, Samples: map[string]int{}}
}

func (o *outcome) note(format string, args ...any) {
	o.Notes = append(o.Notes, fmt.Sprintf(format, args...))
}

// check tallies one oracle comparison.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.Attempted++
	if !ok {
		o.Failed++
		if o.Failed <= 10 {
			o.note("FAILED: "+format, args...)
		}
	}
}

// memDelta is the allocation done between two points.
type memMark struct{ mallocs, bytes uint64 }

func markMem() memMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memMark{ms.Mallocs, ms.TotalAlloc}
}

// liveHeapMB is HeapAlloc after a forced collection: what stays
// reachable, so state that grows with uptime shows.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// percentile returns the p-quantile (0..1) of xs by linear
// interpolation; 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// weighted is one observation counted weight times.
type weighted struct {
	v float64
	w int
}

// weightedPercentile is percentile over observations that each stand
// for w identical ones (a call that answers w frames).
func weightedPercentile(xs []weighted, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]weighted(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i].v < s[j].v })
	total := 0
	for _, x := range s {
		total += x.w
	}
	target := p * float64(total)
	acc := 0.0
	for _, x := range s {
		acc += float64(x.w)
		if acc >= target {
			return x.v
		}
	}
	return s[len(s)-1].v
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}

// splitmix64 derives independent streams from one seed.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
