package main

// mux_churn: standing queries on one live stream. Each round opens a
// dynamic MuxStream (Session.Serve) and follows the 8-query churn
// schedule — staggered arrivals, half departing at ¾ — while Feed
// consumes the clip; no store. Session.AttachQuery is PlanQuery then
// MuxStream.Attach; the round makes the two calls itself so planning
// and lane binding are timed apart.

import (
	"fmt"
	"math"
	"time"

	"vqpy"
)

type churnState struct {
	engineInputs
	p params
	// refs[i] is spec i's reference answer over the whole clip (plain
	// Session.Execute); laneRefs[i] its answer over its residency
	// window, from one pass of the schedule made in setup.
	refs     []answer
	laneRefs []answer

	estErr                  []float64
	groupLanes, groupGroups int
}

func runMuxChurn(env *runEnv) (*outcome, error) {
	return runEngine(env, func(o *outcome) (engineState, error) {
		st := &churnState{engineInputs: newEngineInputs(env), p: env.P}
		for _, spec := range churnSchedule() {
			res, err := newSession(st.seed, nil).Execute(spec.build(), st.clip)
			if err != nil {
				return nil, err
			}
			st.refs = append(st.refs, answerOfRun(res))
		}
		// A lane attached mid-stream memoizes intrinsic properties from
		// its first sighting on, so it need not equal the from-zero
		// reference; windowed lanes are held to a reference pass of the
		// same schedule instead.
		results, err := st.pass(nil, &roundStats{ledger: newLedger()})
		if err != nil {
			return nil, err
		}
		for _, res := range results {
			st.laneRefs = append(st.laneRefs, answerOfResult(res))
		}
		return st, nil
	})
}

func (st *churnState) corrupt() { st.refs[0].matched = flipFirst(st.refs[0].matched) }

func (st *churnState) round(tr *tracer, rs *roundStats, o *outcome) error {
	results, err := st.pass(tr, rs)
	if err != nil {
		return err
	}
	n := len(st.clip.Frames)
	for i, spec := range churnSchedule() {
		got := answerOfResult(results[i])
		arrive, depart := spec.window(n)
		if arrive == 0 && depart == n {
			o.check(got.equal(st.refs[i]), "mux_churn: %s differs from its reference", spec.name)
			continue
		}
		ok := results[i].FramesProcessed == depart-arrive && got.equal(st.laneRefs[i])
		o.check(ok, "mux_churn: %s over [%d,%d) differs from its reference window", spec.name, arrive, depart)
	}
	return nil
}

// pass runs the churn schedule once over the clip and returns every
// spec's result: at its detach, or at the stream's close.
func (st *churnState) pass(tr *tracer, rs *roundStats) ([]*vqpy.Result, error) {
	v := st.clip
	n := len(v.Frames)
	specs := churnSchedule()
	s := newSession(st.seed, tr)
	m, err := s.Serve(v.FPS)
	if err != nil {
		return nil, err
	}
	lanes := make([]int, len(specs))
	ests := make([]float64, len(specs))
	results := make([]*vqpy.Result, len(specs))
	for i := range lanes {
		lanes[i] = -1
	}
	pending := map[int]time.Time{} // lane → attach began, first verdict not yet seen
	for f := 0; f < n; f++ {
		for i, spec := range specs {
			arrive, depart := spec.window(n)
			if f == arrive {
				began := time.Now()
				var p *vqpy.Plan
				d, err := tr.call("plan.plan_query", func() (err error) {
					p, err = s.PlanQuery(spec.build(), v)
					return err
				})
				if err != nil {
					return nil, err
				}
				rs.request(d, 0)
				d, err = tr.call("exec.attach", func() (err error) {
					lanes[i], err = m.Attach(p)
					return err
				})
				if err != nil {
					return nil, err
				}
				rs.request(d, 0)
				ests[i] = p.EstPerFrameMS
				pending[lanes[i]] = began
			}
			if f == depart && lanes[i] >= 0 {
				d, err := tr.call("exec.detach", func() (err error) {
					results[i], err = m.Detach(lanes[i])
					return err
				})
				if err != nil {
					return nil, err
				}
				rs.request(d, 0)
				lanes[i] = -1
			}
		}
		var verdicts []vqpy.Verdict
		d, err := tr.call("exec.feed", func() (err error) {
			verdicts, err = m.Feed(v.FrameAt(f))
			return err
		})
		if err != nil {
			return nil, err
		}
		rs.request(d, len(verdicts))
		if len(pending) > 0 {
			now := time.Now()
			for _, vd := range verdicts {
				if began, ok := pending[vd.Lane]; ok {
					rs.firstVerdict = append(rs.firstVerdict, ms(now.Sub(began)))
					delete(pending, vd.Lane)
				}
			}
		}
		if f%st.p.SnapshotEvery == 0 && lanes[0] >= 0 {
			d, err := tr.call("exec.snapshot", func() error {
				_, err := m.Snapshot(lanes[0])
				return err
			})
			if err != nil {
				return nil, err
			}
			rs.request(d, 0)
			for _, members := range m.GroupMembers() {
				st.groupLanes += members
				st.groupGroups++
			}
		}
	}
	for _, res := range m.Close() {
		for i := range specs {
			if results[i] == nil && res.Query == specs[i].name {
				results[i] = res
				break
			}
		}
	}
	rs.session(s)
	for i, res := range results {
		if res == nil {
			return nil, fmt.Errorf("mux_churn: %s returned no result", specs[i].name)
		}
		rs.ledger.memo(res)
		if res.FramesProcessed > 0 && res.VirtualMS > 0 {
			measured := res.VirtualMS / float64(res.FramesProcessed)
			st.estErr = append(st.estErr, math.Abs(ests[i]-measured)/measured)
		}
	}
	return results, nil
}

func (st *churnState) layers(tr *tracer, lm *layerMetrics) error {
	videoLayers(lm, st.clip, st.generateMS)
	lm.set("plan.est_error_ratio", mean(st.estErr))
	lm.set("plan.plan_query_ns", tr.meanNS("plan.plan_query"))
	lm.set("exec.attach_ns", tr.meanNS("exec.attach"))
	lm.set("exec.detach_ns", tr.meanNS("exec.detach"))
	lm.set("exec.snapshot_ns", tr.meanNS("exec.snapshot"))
	lm.set("exec.lanes_per_group", ratio(float64(st.groupLanes), float64(st.groupGroups)))
	return nil
}
