package main

// The shared runner of the four engine workloads. A workload is a
// state built by setup and a round function; the runner repeats setup
// (setup_s is the median), then runs rounds for -seconds, each round a
// fixed amount of work checked against the oracle. Untraced runs report
// the end-to-end metrics; traced runs alternate plain and traced rounds
// (so the tracing overhead is measured inside the run) and report the
// per-layer metrics.

import (
	"runtime"
	"time"

	"vqpy"

	"vqpy/internal/models"
	"vqpy/internal/sim"
)

// roundStats is what one round adds up.
type roundStats struct {
	frames int     // query-frames answered
	vms    float64 // virtual ms charged, all sessions
	// reqs are the latencies (ms) of the round's public calls;
	// firstVerdict the submit-to-first-verdict times (ms); late the
	// per-frame verdict lateness (ms, weighted by frames answered).
	reqs         []float64
	firstVerdict []float64
	late         []weighted
	ledger       *ledger
}

// request books one public call that answered frames frames.
func (rs *roundStats) request(d time.Duration, frames int) {
	rs.reqs = append(rs.reqs, ms(d))
	if frames > 0 {
		rs.late = append(rs.late, weighted{ms(d), frames})
		rs.frames += frames
	}
}

// session books a finished session's ledger.
func (rs *roundStats) session(s *vqpy.Session) {
	rs.vms += s.Clock().TotalMS()
	rs.ledger.add(s.Clock())
}

// ledger sums the virtual-time ledgers of a run by layer.
type ledger struct {
	family   map[string]float64 // virtual ms per models.* family
	tracker  int64              // tracker updates
	charges  int64              // every charge, any account
	memoHit  int
	memoMiss int
}

func newLedger() *ledger {
	return &ledger{family: map[string]float64{}}
}

// familyOf classifies ledger accounts (model names) by models.* family.
var familyOf = func() map[string]string {
	out := map[string]string{}
	reg := models.BuiltinRegistry()
	for _, name := range reg.Names() {
		m, _ := reg.Get(name)
		out[name] = modelFamily(m)
	}
	return out
}()

func (l *ledger) add(c *sim.Clock) {
	accounts := c.Accounts()
	for name, n := range c.InvocationTotals() {
		l.charges += n
		if name == "tracker" {
			l.tracker += n
		}
		if fam := familyOf[name]; fam != "" {
			l.family[fam] += accounts[name]
		}
	}
}

func (l *ledger) memo(r *vqpy.Result) {
	if r != nil {
		l.memoHit += r.MemoHits
		l.memoMiss += r.MemoMisses
	}
}

// engineState is one engine workload after setup.
type engineState interface {
	// round runs one round of fixed work, checking answers into o.
	round(tr *tracer, rs *roundStats, o *outcome) error
	// corrupt spoils one reference answer (the oracle self-test).
	corrupt()
	// layers adds the workload's own per-layer rows after a traced run.
	layers(tr *tracer, lm *layerMetrics) error
}

// layerMetrics collects what the per-layer rows are computed from.
type layerMetrics struct {
	env    *runEnv
	out    *outcome
	frames int // query-frames of the traced rounds (what spans cover)
	// allFrames / allLedger cover every round, traced or not (what the
	// sessions' virtual-time ledgers cover).
	allFrames int
	allLedger *ledger
}

func (lm *layerMetrics) set(name string, v float64) { lm.out.Metrics[name] = v }

// runEngine is the shared runner.
func runEngine(env *runEnv, setup func(o *outcome) (engineState, error)) (*outcome, error) {
	o := newOutcome()
	var st engineState
	var setups []float64
	for i := 0; i < env.P.SetupRepeats; i++ {
		start := time.Now()
		var err error
		if st, err = setup(o); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	if env.corrupt {
		st.corrupt()
	}

	var tr *tracer
	if env.Trace {
		tr = newTracer()
	}
	var (
		fps, allocs, allocBytes []float64 // plain rounds
		tracedWall, plainWall   []float64 // ms per query-frame
		all                     roundStats
		tracedFrames            int
	)
	all.ledger = newLedger()
	runtime.GC()
	began := time.Now()
	for n := 0; n < env.P.MinRounds || time.Since(began).Seconds() < env.Seconds; n++ {
		traced := tr != nil && n%2 == 1
		rs := roundStats{ledger: all.ledger}
		var rtr *tracer
		if traced {
			rtr = tr
			tr.nextReq()
		}
		mem := markMem()
		start := time.Now()
		if err := st.round(rtr, &rs, o); err != nil {
			return nil, err
		}
		wall := time.Since(start)
		after := markMem()
		perFrame := ms(wall) / float64(rs.frames)
		if traced {
			tracedWall = append(tracedWall, perFrame)
			tracedFrames += rs.frames
		} else {
			plainWall = append(plainWall, perFrame)
			fps = append(fps, float64(rs.frames)/wall.Seconds())
			allocs = append(allocs, float64(after.mallocs-mem.mallocs)/float64(rs.frames))
			allocBytes = append(allocBytes, float64(after.bytes-mem.bytes)/float64(rs.frames))
		}
		all.frames += rs.frames
		all.vms += rs.vms
		all.reqs = append(all.reqs, rs.reqs...)
		all.firstVerdict = append(all.firstVerdict, rs.firstVerdict...)
		all.late = append(all.late, rs.late...)
	}
	o.note("rounds=%d query_frames=%d", len(plainWall)+len(tracedWall), all.frames)

	if !env.Trace {
		o.Metrics["setup_s"] = median(setups)
		o.Metrics["frames_per_s"] = median(fps)
		o.Metrics["virtual_ms_per_frame"] = ratio(all.vms, float64(all.frames))
		o.Metrics["allocs_per_frame"] = median(allocs)
		o.Metrics["req_p50_ms"] = median(all.reqs)
		o.Metrics["req_p95_ms"] = percentile(all.reqs, 0.95)
		o.Metrics["first_verdict_p50_ms"] = median(all.firstVerdict)
		o.Metrics["tick_late_p95_ms"] = weightedPercentile(all.late, 0.95)
		o.Samples["req_p95_ms"] = len(all.reqs)
		o.Samples["first_verdict_p50_ms"] = len(all.firstVerdict)
		o.Samples["tick_late_p95_ms"] = len(all.late)
		o.Metrics["live_heap_mb"] = liveHeapMB()
		runtime.KeepAlive(st)
		return o, nil
	}

	for _, m := range perLayer {
		o.Metrics[m.Name] = 0
	}
	lm := &layerMetrics{
		env: env, out: o, frames: tracedFrames,
		allFrames: all.frames, allLedger: all.ledger,
	}
	lm.set("trace_overhead_ratio", ratio(median(tracedWall), median(plainWall))-1)
	lm.set("exec.allocs_per_frame", median(allocs))
	lm.set("exec.alloc_bytes_per_frame", median(allocBytes))
	commonLayers(tr, lm)
	if err := st.layers(tr, lm); err != nil {
		return nil, err
	}
	return o, tr.write(env.TraceFile, runRecord(env))
}
