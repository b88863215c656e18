package serve

// Fleet mode of the serving daemon: with Config.FleetCams > 0 the
// server generates one correlated multi-camera clip set (a shared
// entity population with per-camera offsets), registers each camera as
// a source, and drives all of them in LOCKSTEP on one ticker — every
// tick feeds one frame per camera inside a batch window, so same-tick
// detector invocations across cameras coalesce into batched device
// calls (exec.BatchScheduler). A shared global re-ID registry fuses
// per-camera track ids into global object ids, and fleet-wide queries
// attach one lane per camera (POST /queries with "mode":"fleet"),
// reading back results merged per global id with per-source provenance.

import (
	"sync"

	"vqpy"

	"vqpy/internal/exec"
	"vqpy/internal/fault"
	"vqpy/internal/fleet"
)

// fleetState is the serving daemon's fleet-mode extension: the shared
// identity registry, the cross-source batch scheduler and the lockstep
// lock. The daemon reuses fleet.Engine's building blocks (Registry,
// BatchScheduler, Merge) and not the engine itself: its per-source
// bookkeeping (Loop wrap, done/feedErr, quarantine, counters,
// admission) is interleaved with stepping in ways the engine's feed
// loop does not expose.
type fleetState struct {
	reg   *vqpy.GlobalRegistry
	batch *exec.BatchScheduler

	// mu is the one lock over the lockstep tick: it is held for a whole
	// batch window, and by a fleet-wide attach, detach or read from
	// planning to the last lane, so lanes join and leave every camera at
	// the same tick boundary and canary profiling never interleaves its
	// identity resolutions with a tick's. Taken before Server.mu.
	mu sync.Mutex
}

// initFleet builds the fleet-mode source set: correlated camera clips,
// one session + dynamic mux per camera, every session's env wired to
// the shared batch scheduler.
func (s *Server) initFleet() error {
	clip := vqpy.FleetIntersections(s.cfg.Seed, s.cfg.Seconds, s.cfg.FleetCams).Generate()
	s.fleet = &fleetState{reg: vqpy.NewGlobalRegistry(0)}
	for _, v := range clip.Videos {
		session := vqpy.NewSession(s.cfg.Seed)
		session.SetNoBurn(true)
		if s.fleet.batch == nil {
			s.fleet.batch = exec.NewBatchScheduler(0, exec.DetectorAccounts(session.Registry()))
		}
		session.Env().Interceptor = s.fleet.batch
		// Chaos chains AFTER the batch wiring so the injector wraps the
		// batch scheduler (failed calls are not batchable model work),
		// and BEFORE Serve so the executor sees the injector.
		session.SetFaults(s.cfg.Faults)
		mux, err := session.Serve(v.FPS)
		if err != nil {
			return err
		}
		mux.BindSource(v)
		s.sources[v.Name] = &source{
			name: v.Name, session: session, video: v, mux: mux,
			feed: fault.WrapSource(v, s.cfg.Faults),
		}
		s.order = append(s.order, v.Name)
	}
	return nil
}

// fleetStep advances every camera by one lockstep frame inside a batch
// window, under the fleet lock. A camera whose feed fails is marked
// done with its error recorded (step) and the OTHERS keep stepping —
// one bad camera must not freeze the fleet silently. The first error is
// still returned for callers that surface it.
func (s *Server) fleetStep() error {
	s.fleet.mu.Lock()
	defer s.fleet.mu.Unlock()
	s.fleet.batch.BeginTick()
	defer s.fleet.batch.FlushTick()
	var firstErr error
	for _, name := range s.order {
		if err := s.step(s.sources[name]); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// FleetSourceSummary is one camera's slice of a fleet query's results.
type FleetSourceSummary struct {
	// FramesProcessed / MatchedFrames / Hits summarize the camera's
	// lane.
	FramesProcessed int `json:"frames_processed"`
	MatchedFrames   int `json:"matched_frames"`
	Hits            int `json:"hits"`
}

// FleetResultView is the merged cross-camera read of one fleet query.
type FleetResultView struct {
	// ID / Query identify the fleet query.
	ID    int    `json:"id"`
	Query string `json:"query"`
	// Entities lists every merged global object; CrossCamera the subset
	// matching the windowed cross-camera predicate.
	Entities    []vqpy.FleetEntity `json:"entities"`
	CrossCamera []vqpy.FleetEntity `json:"cross_camera"`
	// MinSources / WindowSec echo the predicate parameters applied.
	MinSources int     `json:"min_sources"`
	WindowSec  float64 `json:"window_sec"`
	// PerSource summarizes each camera's lane.
	PerSource map[string]FleetSourceSummary `json:"per_source"`
}

// summarizeSources renders per-source results as their wire summaries.
func summarizeSources(perSource map[string]*vqpy.Result) map[string]FleetSourceSummary {
	out := make(map[string]FleetSourceSummary, len(perSource))
	for name, res := range perSource {
		out[name] = FleetSourceSummary{
			FramesProcessed: res.FramesProcessed,
			MatchedFrames:   res.MatchedCount(),
			Hits:            len(res.Hits),
		}
	}
	return out
}

// fleetView merges a fleet query's per-source results per global id and
// applies the cross-camera predicate ("seen on at least minSources
// cameras within windowSec seconds"; minSources < 2 defaults to 2,
// windowSec 0 means unbounded).
func fleetView(q *liveQuery, perSource map[string]*vqpy.Result, minSources int, windowSec float64) *FleetResultView {
	if minSources < 2 {
		minSources = 2
	}
	merged := fleet.Merge(q.name, perSource)
	return &FleetResultView{
		ID: q.id, Query: q.name,
		Entities:    merged.Entities,
		CrossCamera: merged.CrossCamera(minSources, windowSec),
		MinSources:  minSources, WindowSec: windowSec,
		PerSource: summarizeSources(perSource),
	}
}

// FleetStat is the /streamz fleet block.
type FleetStat struct {
	// Cams is the camera count; Entities / CrossCamera the identity
	// registry's population and its ≥2-source subset.
	Cams        int `json:"cams"`
	Entities    int `json:"entities"`
	CrossCamera int `json:"cross_camera"`
	// Batch reports the batched-inference scheduler's accounting.
	Batch vqpy.BatchStats `json:"batch"`
}

// fleetStat assembles the /streamz fleet block; fleet-wide queries are
// rows of the one query list, a lane per camera.
func (s *Server) fleetStat() *FleetStat {
	if s.fleet == nil {
		return nil
	}
	regStats := s.fleet.reg.Stats()
	return &FleetStat{
		Cams:        len(s.order),
		Entities:    regStats.Entities,
		CrossCamera: regStats.CrossCamera,
		Batch:       s.fleet.batch.Stats(),
	}
}
