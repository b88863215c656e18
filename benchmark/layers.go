package main

// Per-layer rows. models.* and exec.* come from the spans of the traced
// rounds and from the sessions' virtual-time ledgers; the layers the
// engine calls internally (track, store, index, vql, sim, video, plan)
// are timed by replaying, through each layer's public functions, the
// inputs captured in the same run.

import (
	"fmt"
	"math"
	"time"

	"vqpy"

	"vqpy/internal/plan"
	"vqpy/internal/sim"
	"vqpy/internal/store"
	"vqpy/internal/track"
	"vqpy/internal/vql"
)

// commonLayers fills the rows every engine workload can compute.
func commonLayers(tr *tracer, lm *layerMetrics) {
	frames := float64(lm.frames)
	allFrames := float64(lm.allFrames)
	for fam, row := range map[string]string{
		spanDetect: "models.detect", spanLabel: "models.label",
		spanFilter: "models.filter", spanVLM: "models.vlm",
	} {
		tot := tr.total(fam)
		lm.set(row+"_calls_per_frame", ratio(float64(tot.Calls), frames))
		if fam != spanVLM {
			lm.set(row+"_ns", tr.meanNS(fam))
		}
		if fam != spanFilter {
			lm.set(row+"_virtual_ms_per_frame", ratio(lm.allLedger.family[fam], allFrames))
		}
	}
	lm.set("models.filter_drop_ratio", ratio(float64(tr.filterDrops), float64(tr.filterCalls)))

	lm.set("track.updates_per_frame", ratio(float64(lm.allLedger.tracker), allFrames))
	updateNS, detsPerUpdate := replayTrack(tr.captured)
	lm.set("track.update_ns", updateNS)
	lm.set("track.dets_per_update", detsPerUpdate)

	lm.set("sim.charges_per_frame", ratio(float64(lm.allLedger.charges), allFrames))
	lm.set("sim.charge_ns", replayCharges())

	total, self := tr.layerNS("exec.")
	lm.set("exec.feed_ns_per_frame", ratio(float64(total), frames))
	lm.set("exec.self_ns_per_frame", ratio(float64(self), frames))
	lm.set("exec.memo_hit_ratio",
		ratio(float64(lm.allLedger.memoHit), float64(lm.allLedger.memoHit+lm.allLedger.memoMiss)))
}

// timeEach returns the mean ns of fn over n calls.
func timeEach(n int, fn func(i int)) float64 {
	if n == 0 {
		return 0
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// replayTrack feeds the captured detector outputs, per detector in
// frame order, through fresh trackers: one Update per captured call.
func replayTrack(captured []capturedDets) (updateNS, detsPerUpdate float64) {
	if len(captured) == 0 {
		return 0, 0
	}
	trackers := map[string]*track.Tracker{}
	inputs := make([][]track.Detection, len(captured))
	dets := 0
	for i, c := range captured {
		in := make([]track.Detection, len(c.dets))
		for j, d := range c.dets {
			in[j] = track.Detection{Box: d.Box, Class: int(d.Class), Score: d.Score, Ref: d.TruthID}
		}
		inputs[i] = in
		dets += len(in)
		if trackers[c.model] == nil {
			trackers[c.model] = track.NewTracker(track.DefaultConfig())
		}
	}
	lastFrame := map[string]int{}
	updateNS = timeEach(len(captured), func(i int) {
		c := captured[i]
		tk := trackers[c.model]
		if c.frame < lastFrame[c.model] {
			tk.Reset() // a new pass over the clip began
		}
		lastFrame[c.model] = c.frame
		tk.Update(inputs[i])
	})
	return updateNS, float64(dets) / float64(len(captured))
}

// replayCharges times one ledger charge (one mutex acquisition).
func replayCharges() float64 {
	c := sim.NewClock()
	accounts := []string{"yolox", "tracker", "color_detect", "prop:velocity"}
	return timeEach(200_000, func(i int) { c.Charge(accounts[i%len(accounts)], 1) })
}

// videoLayers times frame access and rasterisation over the clip.
func videoLayers(lm *layerMetrics, v *vqpy.Video, generateMS float64) {
	lm.set("video.generate_ms", generateMS)
	n := len(v.Frames)
	lm.set("video.frame_at_ns", timeEach(n, func(i int) { sinkFrame = v.FrameAt(i) }))
	lm.set("video.render_ns", timeEach(n/4, func(i int) { sinkRaster = v.FrameAt(4 * i).Render() }))
}

// Package-level sinks keep the compiler from dropping replayed calls.
var (
	sinkFrame  any
	sinkRaster any
)

// planLayers times planning of the 8-query mix: PlanQuery (candidates
// profiled on the clip as canary), CompileNode without a canary (the
// pure lowering), the candidate count Explain reports, and how far the
// planner's per-frame cost estimate sits from measuredMS, the virtual
// ms per frame each query went on to charge.
func planLayers(lm *layerMetrics, seed uint64, v *vqpy.Video, measuredMS []float64) error {
	qs := mixQueries()
	var planNS, compileNS, candidates, estErr []float64
	for i, q := range qs {
		s := newSession(seed, nil)
		start := time.Now()
		p, err := s.PlanQuery(q, v)
		if err != nil {
			return err
		}
		planNS = append(planNS, float64(time.Since(start).Nanoseconds()))
		if i < len(measuredMS) && measuredMS[i] > 0 {
			estErr = append(estErr, math.Abs(p.EstPerFrameMS-measuredMS[i])/measuredMS[i])
		}

		pl, err := plan.NewPlanner(plan.Options{Env: s.Env(), Registry: s.Registry()})
		if err != nil {
			return err
		}
		start = time.Now()
		if _, err := pl.CompileNode(q, nil); err != nil {
			return err
		}
		compileNS = append(compileNS, float64(time.Since(start).Nanoseconds()))

		_, all, err := newSession(seed, nil).Explain(q, v)
		if err != nil {
			return err
		}
		candidates = append(candidates, float64(len(all)))
	}
	lm.set("plan.plan_query_ns", mean(planNS))
	lm.set("plan.compile_ns", mean(compileNS))
	lm.set("plan.candidates", mean(candidates))
	lm.set("plan.est_error_ratio", mean(estErr))
	return nil
}

// vqlLayers times the language frontend on the given sentences.
func vqlLayers(lm *layerMetrics, sentences []string) {
	const reps = 200
	n := reps * len(sentences)
	lm.set("vql.parse_ns", timeEach(n, func(i int) {
		_, _ = vql.Parse(sentences[i%len(sentences)])
	}))
	cat := vqpy.TextCatalog()
	lm.set("vql.compile_ns", timeEach(n, func(i int) {
		_, _ = vql.Compile(sentences[i%len(sentences)], cat)
	}))
}

// replayStore pushes the captured detector outputs through a scratch
// store: Put (encode + append), Get from the memory tier, and — after a
// close and reopen — Get from the disk tier.
func replayStore(lm *layerMetrics, captured []capturedDets, seed uint64) error {
	if len(captured) == 0 {
		return nil
	}
	dir, err := lm.env.tempDir("replay-store")
	if err != nil {
		return err
	}
	records := make([][]store.Detection, len(captured))
	for i, c := range captured {
		out := make([]store.Detection, len(c.dets))
		for j, d := range c.dets {
			out[j] = store.Detection{Box: d.Box, Class: int(d.Class), Score: d.Score, TruthID: d.TruthID}
		}
		records[i] = out
	}
	// Captured calls repeat (model, frame) pairs across rounds; key the
	// replay by call so every Put appends and every Get finds its own.
	const source = "replay"
	st, err := store.Open(dir, store.Meta{Seed: seed}, store.Options{MemRecords: len(captured) + 1})
	if err != nil {
		return err
	}
	var putErr error
	lm.set("store.put_ns", timeEach(len(captured), func(i int) {
		if err := st.PutDets(source, captured[i].model, i, records[i]); err != nil {
			putErr = err
		}
	}))
	if putErr != nil {
		return putErr
	}
	lm.set("store.get_mem_ns", timeEach(len(captured), func(i int) {
		_, _ = st.GetDets(source, captured[i].model, i)
	}))
	if err := st.Close(); err != nil {
		return err
	}
	st, err = store.Open(dir, store.Meta{Seed: seed}, store.Options{MemRecords: len(captured) + 1})
	if err != nil {
		return err
	}
	lm.set("store.get_disk_ns", timeEach(len(captured), func(i int) {
		_, _ = st.GetDets(source, captured[i].model, i)
	}))
	return st.Close()
}

// storeRows fills the store rows a store's own tier stats and counters
// answer, over the frames it archived.
func storeRows(lm *layerMetrics, ts vqpy.StoreStats, counters map[string]int64, frames float64) {
	lm.set("store.records_per_frame", ratio(float64(ts.ScanRecords+ts.DetRecords+ts.LabelRecords), frames))
	lm.set("store.evictions_per_frame", ratio(float64(ts.Evicted), frames))
	lm.set("store.mem_hit_ratio", memHitRatio(counters))
}

// indexRows fills the index rows the index's own stats answer; dir is
// where it lives on disk.
func indexRows(lm *layerMetrics, ix vqpy.IndexStats, dir string) {
	lm.set("index.entries", float64(ix.Entries))
	lm.set("index.bytes_per_track", ratio(float64(dirBytes(dir)), float64(ix.Entries)))
	lm.set("index.candidates_per_probe", ratio(float64(ix.Candidates), float64(ix.Probes)))
	lm.set("index.pruned_ratio", ratio(float64(ix.Pruned), float64(ix.Pruned+ix.Scanned)))
}

// memHitRatio is memory-tier hits over all store reads.
func memHitRatio(counters map[string]int64) float64 {
	var mem, all int64
	for _, kind := range []string{"scan", "dets", "label"} {
		mem += counters[kind+"_mem_hits"]
		all += counters[kind+"_mem_hits"] + counters[kind+"_disk_hits"] + counters[kind+"_misses"]
	}
	return ratio(float64(mem), float64(all))
}

// replayStoreReads times the store's read paths on an existing archive:
// a first pass over the clip's detector records comes from the disk
// tier, a second from the memory tier the first pass filled.
func replayStoreReads(lm *layerMetrics, dir string, seed uint64, clip *vqpy.Video) error {
	st, err := store.Open(dir, store.Meta{Seed: seed}, store.Options{})
	if err != nil {
		return err
	}
	defer st.Close()
	const model = "yolox" // the car scan every archive in this benchmark holds
	n := len(clip.Frames)
	found := 0
	read := func(i int) {
		if _, ok := st.GetDets(clip.SourceName(), model, i); ok {
			found++
		}
	}
	lm.set("store.get_disk_ns", timeEach(n, read))
	lm.set("store.get_mem_ns", timeEach(n, read))
	if found != 2*n {
		return fmt.Errorf("store replay: found %d of %d detector records", found, 2*n)
	}
	return nil
}
