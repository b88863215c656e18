package main

// batch_perquery: the analyst path and the single-threaded baseline.
// Each round plans and runs the 8-query mix via Session.Execute and 3
// sentences via Session.Text, every one on a fresh session over the
// clip, so planning and canary profiling are paid as a user pays them.

import (
	"runtime"
	"time"

	"vqpy"
)

type batchState struct {
	engineInputs
	mixRef  []answer
	textRef []answer
	// measuredMS[i] is mix query i's virtual ms per frame, as executed.
	measuredMS []float64
}

func runBatchPerQuery(env *runEnv) (*outcome, error) {
	return runEngine(env, func(o *outcome) (engineState, error) {
		st := &batchState{engineInputs: newEngineInputs(env)}
		var err error
		if st.mixRef, err = mixReferences(st.seed, st.clip); err != nil {
			return nil, err
		}
		for _, text := range textSentences {
			res, err := newSession(st.seed, nil).Text(text, st.clip)
			if err != nil {
				return nil, err
			}
			st.textRef = append(st.textRef, answerOfText(res))
		}
		return st, nil
	})
}

func (st *batchState) corrupt() { st.mixRef[0].matched = flipFirst(st.mixRef[0].matched) }

// flipFirst returns a copy of matched with its first verdict inverted.
func flipFirst(matched []bool) []bool {
	out := append([]bool(nil), matched...)
	out[0] = !out[0]
	return out
}

func (st *batchState) round(tr *tracer, rs *roundStats, o *outcome) error {
	n := len(st.clip.Frames)
	for i, q := range mixQueries() {
		var res *vqpy.RunResult
		var s *vqpy.Session
		d, err := tr.call("exec.execute", func() (err error) {
			s = newSession(st.seed, tr)
			res, err = s.Execute(q, st.clip)
			return err
		})
		if err != nil {
			return err
		}
		rs.request(d, n)
		rs.firstVerdict = append(rs.firstVerdict, ms(d))
		rs.session(s)
		rs.ledger.memo(res.Basic)
		o.check(answerOfRun(res).equal(st.mixRef[i]), "batch_perquery: %s differs from its reference", q.Name())
		if len(st.measuredMS) == i {
			st.measuredMS = append(st.measuredMS, res.VirtualMS/float64(n))
		}
	}
	for i, text := range textSentences {
		var res *vqpy.TextResult
		var s *vqpy.Session
		d, err := tr.call("exec.text", func() (err error) {
			s = newSession(st.seed, tr)
			res, err = s.Text(text, st.clip)
			return err
		})
		if err != nil {
			return err
		}
		rs.request(d, n)
		rs.firstVerdict = append(rs.firstVerdict, ms(d))
		rs.session(s)
		o.check(answerOfText(res).equal(st.textRef[i]), "batch_perquery: text %q differs from its reference", text)
	}
	return nil
}

func (st *batchState) layers(tr *tracer, lm *layerMetrics) error {
	videoLayers(lm, st.clip, st.generateMS)
	vqlLayers(lm, textSentences)
	if err := planLayers(lm, st.seed, st.clip, st.measuredMS); err != nil {
		return err
	}
	// Pool speedup: the same 8 queries through ExecuteAll at one worker
	// and at nproc workers, untraced sessions.
	wall := func(workers int) (time.Duration, error) {
		start := time.Now()
		_, err := newSession(st.seed, nil).ExecuteAll(mixNodes(), st.clip, workers)
		return time.Since(start), err
	}
	one, err := wall(1)
	if err != nil {
		return err
	}
	many, err := wall(runtime.NumCPU())
	if err != nil {
		return err
	}
	lm.set("exec.pool_speedup", ratio(one.Seconds(), many.Seconds()))
	return nil
}
