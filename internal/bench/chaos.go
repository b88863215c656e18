package bench

// Chaos experiment (E19): deterministic fault injection against the
// full serving stack, gated on graceful degradation rather than mere
// survival. Four phases run the same fleet workload (three lockstep
// cameras, a red-car and a people query fleet-wide):
//
//	A baseline  — no injector; the reference verdicts.
//	B chaos     — recoverable model errors and timeouts (absorbed by
//	              retry), a terminal failure window (trips breakers
//	              into the fallback detector tier and carry-forward),
//	              and a wedged camera (quarantined, then released).
//	              Gate: every frame served healthily carries the
//	              baseline verdict (≥99% parity), breakers tripped,
//	              frames were answered degraded, a quarantine fired.
//	C no-op     — injector installed but with an EMPTY schedule; the
//	              results must be bit-identical to the baseline, which
//	              pins the injector's no-op guarantee end to end.
//	D store     — a single-source daemon over the persistent store with
//	              write faults (tiers degrade to memory-only) and read
//	              faults (served as misses); verdicts must still be
//	              bit-identical to a fault-free store run.
//
// Every phase runs under a recover() so a panic anywhere in the stack
// fails the chaos_completed gate instead of killing the bench binary —
// "zero panics" is part of the contract.

import (
	"fmt"
	"os"

	"vqpy"

	"vqpy/internal/metrics"
	"vqpy/internal/serve"
)

// chaosCameras / chaosSeconds shape the fleet workload; seconds scale
// with cfg.Scale like every other experiment.
const (
	chaosCameras = 3
	chaosSeconds = 12.0
)

// chaosSchedule is phase B's fault plan. The terminal window and the
// camera wedge use Rate 1 over pinned frame windows so the experiment
// exercises breakers and quarantine deterministically at every scale;
// the transient rules fire probabilistically from the schedule seed.
func chaosSchedule(seed uint64) vqpy.FaultSchedule {
	return vqpy.FaultSchedule{
		Seed: seed,
		Rules: []vqpy.FaultRule{
			// Terminal window: every model fails frames 18..21 outright,
			// past any retry budget — breakers trip, detectors fall back,
			// and while both tiers' breakers cool down the scan carries
			// tracker state forward. Pinned early enough to land inside
			// the clip at every bench scale (the 10fps clip has 30 frames
			// at the gate's scale 0.25). Listed first so it wins
			// over the transient error rule inside the window.
			{Kind: vqpy.FaultModelError, Rate: 1, FromFrame: 18, ToFrame: 22, Persist: 99},
			// Transient faults: absorbed by per-attempt retry with zero
			// verdict impact (the injection decision is attempt-independent
			// and model outputs are pure functions of the frame).
			{Kind: vqpy.FaultModelError, Rate: 0.08, Persist: 1},
			{Kind: vqpy.FaultModelTimeout, Rate: 0.04, Persist: 1, DeadlineMS: 40},
			// One camera wedges at frame 10 for six consecutive polls:
			// enough to cross the quarantine threshold, survive a few
			// probe cycles, and recover.
			{Kind: vqpy.FaultSourceStall, Rate: 1, FromFrame: 10, ToFrame: 11, Persist: 6},
		},
	}
}

// chaosStoreSchedule is phase D's fault plan: from the fifth store
// append onward every write fails (each tier degrades to memory-only as
// it first hits the fault), and a fifth of disk reads are served as
// misses. Neither may change a verdict.
func chaosStoreSchedule(seed uint64) vqpy.FaultSchedule {
	return vqpy.FaultSchedule{
		Seed: seed,
		Rules: []vqpy.FaultRule{
			{Kind: vqpy.FaultStoreWrite, Rate: 1, FromFrame: 5},
			{Kind: vqpy.FaultStoreRead, Rate: 0.2},
		},
	}
}

// chaosFleetRun is one fleet-mode pass of the chaos workload.
type chaosFleetRun struct {
	red, people map[string]*vqpy.Result
	stats       serve.Stats
	ticks       int
}

// runChaosFleet drives the serving daemon's fleet mode manually (Speed
// 0) until every camera drains its clip, then detaches both fleet-wide
// queries. The injector (nil for the baseline) plugs into the daemon
// exactly as vqserve -chaos would.
func runChaosFleet(cfg Config, inj *vqpy.FaultInjector) (*chaosFleetRun, error) {
	s, err := serve.NewServer(serve.Config{
		Seed: cfg.Seed, Seconds: chaosSeconds * cfg.Scale, Speed: 0,
		FleetCams: chaosCameras, Faults: inj,
	}, nil)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	redID, err := s.Attach(serve.AttachRequest{Query: "redcar", Fleet: true})
	if err != nil {
		return nil, err
	}
	peopleID, err := s.Attach(serve.AttachRequest{Query: "people", Fleet: true})
	if err != nil {
		return nil, err
	}
	run := &chaosFleetRun{}
	// Stalled frames re-poll and quarantined cameras probe on a cadence,
	// so a camera can need several ticks per frame; the cap only guards
	// against a wedge that never clears (which would be a bug).
	clip := 0
	for _, src := range s.Streamz().Sources {
		if src.ClipFrames > clip {
			clip = src.ClipFrames
		}
	}
	maxTicks := clip*8 + 256
	for run.ticks = 0; run.ticks < maxTicks; run.ticks++ {
		if err := s.StepAll(); err != nil {
			return nil, err
		}
		if run.ticks%8 == 7 && chaosAllDone(s) {
			break
		}
	}
	if !chaosAllDone(s) {
		return nil, fmt.Errorf("bench: chaos fleet did not drain within %d ticks", maxTicks)
	}
	run.stats = s.Streamz()
	if run.red, err = s.Detach("", redID); err != nil {
		return nil, err
	}
	if run.people, err = s.Detach("", peopleID); err != nil {
		return nil, err
	}
	return run, nil
}

// chaosFleetArm is runChaosFleet as an arm. The daemon builds its own
// sessions, so the arm asks the runner for none and only its wall time
// is read.
func chaosFleetArm(name string, cfg Config, inj *vqpy.FaultInjector) arm[*chaosFleetRun] {
	return arm[*chaosFleetRun]{name: name, body: func(sessions) (*chaosFleetRun, error) {
		return runChaosFleet(cfg, inj)
	}}
}

// chaosAllDone reports whether every camera drained its clip.
func chaosAllDone(s *serve.Server) bool {
	for _, src := range s.Streamz().Sources {
		if !src.Done {
			return false
		}
	}
	return true
}

// chaosParity compares one query's per-source verdicts between the
// baseline and a chaos run, skipping the positions the chaos run
// answered under degradation (those are allowed to differ — that is
// what degradation means). It returns (matching, compared) healthy
// frames.
func chaosParity(base, chaos map[string]*vqpy.Result) (int, int) {
	match, total := 0, 0
	for name, b := range base {
		c, ok := chaos[name]
		if !ok || len(b.Matched) != len(c.Matched) {
			// A missing source or a length mismatch means frames were
			// lost; count the whole source as compared-and-failed.
			total += len(b.Matched)
			continue
		}
		degraded := make(map[int]bool, len(c.DegradedAt))
		for _, i := range c.DegradedAt {
			degraded[i] = true
		}
		for i := range b.Matched {
			if degraded[i] {
				continue
			}
			total++
			if b.Matched[i] == c.Matched[i] {
				match++
			}
		}
	}
	return match, total
}

// chaosIdentical reports identity of one query's per-source answers
// (the no-op gate: enabled injector, empty schedule, zero drift).
func chaosIdentical(a, b map[string]*vqpy.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for name, res := range a {
		if !sameResult(res, b[name]) {
			return false
		}
	}
	return true
}

// chaosDegraded sums degraded frames over both queries of a run.
func chaosDegraded(run *chaosFleetRun) int {
	n := 0
	for _, m := range []map[string]*vqpy.Result{run.red, run.people} {
		for _, res := range m {
			n += res.DegradedFrames
		}
	}
	return n
}

// runChaosStore is phase D: a single-source daemon over the persistent
// result store, optionally with store faults injected. Returns the
// standing query's final result and the store stats at drain time.
func runChaosStore(cfg Config, inj *vqpy.FaultInjector) (*vqpy.Result, *serve.StoreStat, error) {
	dir, err := os.MkdirTemp("", "vqpy-chaos-store-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	s, err := serve.NewServer(serve.Config{
		Seed: cfg.Seed, Seconds: chaosSeconds * cfg.Scale, Speed: 0,
		StoreDir: dir, Faults: inj,
	}, []string{"cityflow"})
	if err != nil {
		return nil, nil, err
	}
	defer s.Close()
	id, err := s.AttachNamed("cityflow", "redcar")
	if err != nil {
		return nil, nil, err
	}
	for !chaosAllDone(s) {
		if err := s.Step("cityflow"); err != nil {
			return nil, nil, err
		}
	}
	stats := s.Streamz()
	res, err := s.Detach("", id)
	if err != nil {
		return nil, nil, err
	}
	return res["cityflow"], stats.Store, nil
}

// RunChaos is the E19 experiment entry point used by vqbench. A panic
// anywhere in the serving stack is recovered into a failed run, so the
// "zero panics" contract is part of the gate rather than an assumption.
func RunChaos(cfg Config) (rep *metrics.Report, err error) {
	defer func() {
		if r := recover(); r != nil {
			rep, err = nil, fmt.Errorf("bench: chaos run panicked: %v", r)
		}
	}()
	cfg = cfg.withDefaults()

	injB := vqpy.NewFaultInjector(chaosSchedule(cfg.Seed + 1))
	injC := vqpy.NewFaultInjector(vqpy.FaultSchedule{Seed: cfg.Seed + 1})
	runs, stats, err := runArms(cfg, chaosFleetArm("baseline", cfg, nil),
		chaosFleetArm("chaos", cfg, injB), chaosFleetArm("no-op injector", cfg, injC))
	if err != nil {
		return nil, err
	}
	base, chaos, noop := runs[0], runs[1], runs[2]
	storeBase, _, err := runChaosStore(cfg, nil)
	if err != nil {
		return nil, err
	}
	injD := vqpy.NewFaultInjector(chaosStoreSchedule(cfg.Seed + 2))
	storeChaos, storeStats, err := runChaosStore(cfg, injD)
	if err != nil {
		return nil, err
	}

	rep = &metrics.Report{
		Title:  "E19: chaos — deterministic fault injection across the serving stack",
		Header: []string{"phase", "wall ms", "ticks", "degraded frames"},
	}
	for i, run := range runs {
		rep.AddRow(stats[i].name, metrics.Ms(stats[i].wallMS), fmt.Sprint(run.ticks), fmt.Sprint(chaosDegraded(run)))
	}

	matchR, totalR := chaosParity(base.red, chaos.red)
	matchP, totalP := chaosParity(base.people, chaos.people)
	parity := 0.0
	if totalR+totalP > 0 {
		parity = float64(matchR+matchP) / float64(totalR+totalP)
	}
	noopIdentical := chaosIdentical(base.red, noop.red) && chaosIdentical(base.people, noop.people)
	trips := int64(0)
	quarantines := int64(0)
	if c := injB.Counters(); c != nil {
		trips = c.Get("breaker_trips")
	}
	quarantines = chaos.stats.Counters["quarantine_events"]
	storeParity := boolMetric(sameResult(storeBase, storeChaos))
	memOnly := 0
	if storeStats != nil {
		memOnly = storeStats.Tiers.MemOnlyTiers
	}

	rep.SetMetric("chaos_completed", 1)
	rep.SetMetric("chaos_parity", parity)
	rep.SetMetric("chaos_noop_identical", boolMetric(noopIdentical))
	rep.SetMetric("chaos_breaker_trips", float64(trips))
	rep.SetMetric("chaos_degraded_frames", float64(chaosDegraded(chaos)))
	rep.SetMetric("chaos_quarantines", float64(quarantines))
	rep.SetMetric("chaos_store_mem_only", float64(memOnly))
	rep.SetMetric("chaos_store_parity", storeParity)

	rep.AddNote("parity: %d/%d healthy frames carry the baseline verdict (%.4f); %d frames answered degraded",
		matchR+matchP, totalR+totalP, parity, chaosDegraded(chaos))
	rep.AddNote("breakers tripped %d time(s); %d quarantine event(s); no-op injector bit-identical: %v",
		trips, quarantines, noopIdentical)
	rep.AddNote("store phase: %d tier(s) degraded to memory-only, verdicts identical to fault-free store run: %v",
		memOnly, storeParity == 1)
	rep.AddNote("expected shape: parity ≥ 0.99, ≥1 breaker trip, ≥1 quarantine, ≥1 degraded frame, ≥1 memory-only tier, both identity gates exact")

	if parity < 0.99 {
		return rep, fmt.Errorf("bench: chaos verdict parity %.4f below 0.99 on recoverable faults", parity)
	}
	if !noopIdentical {
		return rep, fmt.Errorf("bench: no-op injector drifted from the baseline (no-op guarantee violated)")
	}
	if trips == 0 || quarantines == 0 || chaosDegraded(chaos) == 0 {
		return rep, fmt.Errorf("bench: chaos run did not exercise degradation (trips %d, quarantines %d, degraded %d)",
			trips, quarantines, chaosDegraded(chaos))
	}
	if memOnly == 0 || storeParity != 1 {
		return rep, fmt.Errorf("bench: store phase failed (mem-only tiers %d, parity %v)", memOnly, storeParity == 1)
	}
	return rep, nil
}
