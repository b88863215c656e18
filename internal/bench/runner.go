package bench

// The arm runner: every system experiment (E14–E23) is a handful of
// arms — one measured configuration each, e.g. "sequential" vs
// "parallel", "cold" vs "warm" — plus the comparisons and self-checks
// that are genuinely its own. What every arm needs the same way lives
// here and nowhere else: sessions built from the run's Config, the wall
// clock around the body, the ledgers of every session the body created
// summed into one measurement, the standard report cells and metric
// names, the burn note, and the answer comparators.

import (
	"fmt"
	"reflect"
	"time"

	"vqpy"

	"vqpy/internal/metrics"
	"vqpy/internal/models"
	"vqpy/internal/sim"
)

// offloadNSPerMS maps one virtual millisecond of model cost to 20µs of
// real accelerator-style waiting under -burn, keeping a whole experiment
// under a few wall-clock seconds while leaving enough signal for wall
// ratios to be stable.
const offloadNSPerMS = 20_000

// sessions hands an arm's body a fresh session built from the run's
// Config; the runner remembers each one to read its ledger afterwards.
type sessions func() *vqpy.Session

// arm is one measured configuration of an experiment: its report label
// and the body producing its answers.
type arm[T any] struct {
	name string
	body func(newSession sessions) (T, error)
}

// armStats is what the runner measured around one arm: elapsed wall
// time and the ledger totals over every session the body created.
type armStats struct {
	name            string
	wallMS          float64
	detect, tracker int64
	virtualMS       float64
	// sessions are the arm's sessions in creation order, for callers
	// that read more of a ledger than the totals above.
	sessions []*vqpy.Session
}

// armSession builds a system experiment's session: the Config's seed
// and burn mode, and with burn on, model latency offloaded (slept, not
// spun) so concurrent work overlaps its inference waits the way a real
// serving system does. Phases an experiment measures nothing around
// (setup passes, plan comparisons) call it directly; everything timed
// or read off a ledger goes through runArm.
func (c Config) armSession() *vqpy.Session {
	s := c.session()
	if c.Burn {
		s.SetOffloadLatency(offloadNSPerMS)
	}
	return s
}

// runArm runs one arm: wall clock around the body, ledgers of every
// session it asked for summed afterwards.
func runArm[T any](cfg Config, a arm[T]) (T, armStats, error) {
	st := armStats{name: a.name}
	start := time.Now()
	answers, err := a.body(func() *vqpy.Session {
		s := cfg.armSession()
		st.sessions = append(st.sessions, s)
		return s
	})
	st.wallMS = float64(time.Since(start).Microseconds()) / 1000
	for _, s := range st.sessions {
		clock := s.Clock()
		st.detect += detectorInvocations(clock)
		st.tracker += clock.Invocations("tracker")
		st.virtualMS += clock.TotalMS()
	}
	return answers, st, err
}

// runArms runs same-typed arms in order, stopping at the first error.
func runArms[T any](cfg Config, arms ...arm[T]) ([]T, []armStats, error) {
	answers, stats := make([]T, len(arms)), make([]armStats, len(arms))
	for i, a := range arms {
		var err error
		if answers[i], stats[i], err = runArm(cfg, a); err != nil {
			return nil, nil, err
		}
	}
	return answers, stats, nil
}

// setRatio exports num/den under name when the denominator is
// meaningful.
func setRatio(rep *metrics.Report, name string, num, den float64) {
	if den > 0 {
		rep.SetMetric(name, num/den)
	}
}

// detectorInvocations sums ledger invocation counts over accounts that
// belong to detector models.
func detectorInvocations(clock *sim.Clock) int64 {
	var total int64
	for name, n := range clock.InvocationTotals() {
		if prof, ok := models.ProfileOf(name); ok && prof.Task == models.TaskDetect {
			total += n
		}
	}
	return total
}

// row renders the standard report row: the arm's name, any
// experiment-specific cells, then wall ms, detector invocations,
// tracker invocations and virtual ms.
func (st armStats) row(lead ...string) []string {
	return append(append([]string{st.name}, lead...), metrics.Ms(st.wallMS),
		fmt.Sprint(st.detect), fmt.Sprint(st.tracker), fmt.Sprintf("%.0f", st.virtualMS))
}

// setMetrics exports the arm's ledger totals under the experiment's
// metric names: pattern has one %s for the quantity, and kinds picks
// among "detect_inv", "tracker_inv" and "virtual".
func (st armStats) setMetrics(rep *metrics.Report, pattern string, kinds ...string) {
	values := map[string]float64{
		"detect_inv": float64(st.detect), "tracker_inv": float64(st.tracker), "virtual": st.virtualMS,
	}
	for _, kind := range kinds {
		rep.SetMetric(fmt.Sprintf(pattern, kind), values[kind])
	}
}

// noteBurn flags a report whose wall columns carry no model latency.
func noteBurn(rep *metrics.Report, cfg Config) {
	if !cfg.Burn {
		rep.AddNote("burn disabled: wall times reflect engine overhead only, not model latency")
	}
}

// sameResult reports whether two executor results carry the same
// observable answer: per-frame verdicts, hits and the video-level
// aggregation. Costs and memo statistics legitimately differ between
// strategies and are not compared.
func sameResult(a, b *vqpy.Result) bool {
	if a == nil || b == nil {
		return a == b
	}
	return reflect.DeepEqual(a.Matched, b.Matched) && reflect.DeepEqual(a.Hits, b.Hits) &&
		a.Count == b.Count && reflect.DeepEqual(a.TrackIDs, b.TrackIDs)
}

// sameRun is sameResult one level up: a query node's verdicts, events
// and underlying executor result.
func sameRun(a, b *vqpy.RunResult) bool {
	return reflect.DeepEqual(a.Matched, b.Matched) && reflect.DeepEqual(a.Events, b.Events) &&
		sameResult(a.Basic, b.Basic)
}

// sameRuns compares two runs of one workload query by query.
func sameRuns(a, b []*vqpy.RunResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameRun(a[i], b[i]) {
			return false
		}
	}
	return true
}
