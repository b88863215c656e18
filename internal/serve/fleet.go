package serve

// Fleet mode of the serving daemon: with Config.FleetCams > 0 the
// server generates one correlated multi-camera clip set (a shared
// entity population with per-camera offsets), registers each camera as
// a source, and drives all of them in LOCKSTEP on one ticker — every
// tick feeds one frame per camera inside a batch window, so same-tick
// detector invocations across cameras coalesce into batched device
// calls (exec.BatchScheduler). A shared global re-ID registry fuses
// per-camera track ids into global object ids, and fleet-wide queries
// attach one lane per camera (POST /fleet/queries), reading back
// results merged per global id with per-source provenance.

import (
	"fmt"
	"sync"

	"vqpy"

	"vqpy/internal/exec"
	"vqpy/internal/fault"
	"vqpy/internal/fleet"
)

// The daemon deliberately does NOT wrap fleet.Engine: its per-source
// bookkeeping (Loop wrap, done/feedErr, counters, admission) is
// interleaved with stepping in ways the engine's own feed loop does
// not expose, so the daemon reuses the engine's building blocks
// (Registry, BatchScheduler, Merge) and keeps the thin attach/step
// loops local. The invariants shared with the engine — atomic
// fleet-wide attach, batch-bracketed lockstep — are pinned by tests on
// both layers.
//
// fleetState is the serving daemon's fleet-mode extension: the shared
// identity registry, the cross-source batch scheduler, and the live
// fleet-wide query registrations.
type fleetState struct {
	reg   *vqpy.GlobalRegistry
	batch *exec.BatchScheduler

	// mu is the one lock over the lockstep tick: it is held for a whole
	// batch window, and by a fleet-wide attach or detach from planning
	// to the last lane, so lanes join and leave every camera at the
	// same tick boundary and canary profiling never interleaves its
	// identity resolutions with a tick's. Taken before Server.mu.
	mu sync.Mutex

	queries map[int]*fleetQuery // guarded by Server.mu
}

// fleetQuery is one live fleet-wide query: its per-source lanes and
// admission estimates.
type fleetQuery struct {
	id     int
	name   string
	tenant string // owning tenant; "" in single-tenant mode
	lanes  map[string]int
	estMS  map[string]float64
}

// initFleet builds the fleet-mode source set: correlated camera clips,
// one session + dynamic mux per camera, every session's env wired to
// the shared batch scheduler.
func (s *Server) initFleet() error {
	if s.cfg.StoreDir != "" {
		return fmt.Errorf("serve: fleet mode does not combine with -store (per-camera archives of a lockstep fleet are future work)")
	}
	clip := vqpy.FleetIntersections(s.cfg.Seed, s.cfg.Seconds, s.cfg.FleetCams).Generate()
	s.fleet = &fleetState{
		reg:     vqpy.NewGlobalRegistry(0),
		queries: make(map[int]*fleetQuery),
	}
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

// AttachFleet plans a fleet catalogue query for every camera and
// attaches it fleet-wide: each per-camera plan is admission-checked
// against that camera's budget before any lane exists, and the lanes
// attach atomically — a failure rolls back the ones already attached,
// so a fleet query is live everywhere or nowhere.
func (s *Server) AttachFleet(queryName string) (int, error) {
	return s.AttachFleetAs("", queryName)
}

// AttachFleetAs is AttachFleet on behalf of a tenant: every camera's
// admission check runs against the tenant's slice of that camera's
// budget, and rejections are ErrTenantBudget (429). In single-tenant
// mode the tenant name is ignored.
func (s *Server) AttachFleetAs(tenant, queryName string) (int, error) {
	if err := s.enter(); err != nil {
		return 0, err
	}
	defer s.inflight.Done()
	if s.fleet == nil {
		return 0, fmt.Errorf("serve: fleet mode disabled (run with -fleet): %w", ErrNotFound)
	}
	build, ok := fleetBuilders[queryName]
	if !ok {
		return 0, fmt.Errorf("serve: unknown fleet query %q (have %v): %w", queryName, FleetQueryNames(), ErrNotFound)
	}
	s.fleet.mu.Lock()
	defer s.fleet.mu.Unlock()
	// Plan on every camera before admitting anywhere. The fleet lock
	// keeps the lockstep tick out, so no other lock is needed here.
	plans := make(map[string]*vqpy.Plan, len(s.order))
	est := make(map[string]float64, len(s.order))
	for _, name := range s.order {
		src := s.sources[name]
		plan, err := src.session.PlanQuery(build(s.fleet.reg, name), src.video)
		if err != nil {
			return 0, err
		}
		plans[name] = plan
		est[name] = plan.EstPerFrameMS
	}

	// Admit on every camera, attach everywhere and register, as one
	// step against the registry: no tick can be running, so the source
	// and mux locks taken under it are free.
	s.mu.Lock()
	defer s.mu.Unlock()
	st, err := s.resolveTenantLocked(tenant)
	if err != nil {
		return 0, err
	}
	owner := ""
	if st != nil {
		owner = st.cfg.Name
	}
	for _, name := range s.order {
		if err := s.admitLocked(st, name, est[name]); err != nil {
			return 0, err
		}
	}
	lanes := make(map[string]int, len(s.order))
	for _, name := range s.order {
		src := s.sources[name]
		src.mu.Lock()
		lane, err := src.mux.Attach(plans[name])
		src.mu.Unlock()
		if err != nil {
			for prev, l := range lanes {
				_, _ = s.detachLane(s.sources[prev], l)
			}
			return 0, fmt.Errorf("serve: fleet attach on %s: %w", name, err)
		}
		lanes[name] = lane
	}
	id := s.nextID
	s.nextID++
	s.fleet.queries[id] = &fleetQuery{id: id, name: queryName, tenant: owner, lanes: lanes, estMS: est}
	s.counters.Add("fleet_queries_attached", 1)
	s.counters.Add("fleet_queries_attached:"+queryName, 1)
	return id, nil
}

// lookupFleetQuery resolves a live fleet query id, removing it from the
// registry when take is set.
func (s *Server) lookupFleetQuery(id int, take bool) (*fleetQuery, error) {
	if s.fleet == nil {
		return nil, fmt.Errorf("serve: fleet mode disabled: %w", ErrNotFound)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	q, ok := s.fleet.queries[id]
	if !ok {
		return nil, fmt.Errorf("serve: unknown fleet query %d: %w", id, ErrNotFound)
	}
	if take {
		delete(s.fleet.queries, id)
	}
	return q, nil
}

// DetachFleet removes a fleet query from every camera and returns the
// final per-source results.
func (s *Server) DetachFleet(id int) (map[string]*vqpy.Result, error) {
	if err := s.enter(); err != nil {
		return nil, err
	}
	defer s.inflight.Done()
	q, err := s.lookupFleetQuery(id, true)
	if err != nil {
		return nil, err
	}
	s.fleet.mu.Lock()
	defer s.fleet.mu.Unlock()
	out := make(map[string]*vqpy.Result, len(q.lanes))
	var firstErr error
	for name, lane := range q.lanes {
		res, err := s.detachLane(s.sources[name], lane)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		out[name] = res
	}
	s.counters.Add("fleet_queries_detached", 1)
	return out, firstErr
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

// FleetResults snapshots a fleet query's per-source results and merges
// them per global id, applying the cross-camera predicate ("seen on at
// least minSources cameras within windowSec seconds"; minSources < 2
// defaults to 2, windowSec <= 0 means unbounded).
func (s *Server) FleetResults(id, minSources int, windowSec float64) (*FleetResultView, error) {
	if err := s.enter(); err != nil {
		return nil, err
	}
	defer s.inflight.Done()
	q, err := s.lookupFleetQuery(id, false)
	if err != nil {
		return nil, err
	}
	// The fleet lock keeps the snapshots on one tick boundary (and the
	// lanes from leaving under a concurrent DetachFleet).
	s.fleet.mu.Lock()
	perSource := make(map[string]*vqpy.Result, len(q.lanes))
	for name, lane := range q.lanes {
		res, err := s.sources[name].mux.Snapshot(lane)
		if err != nil {
			s.fleet.mu.Unlock()
			return nil, fmt.Errorf("serve: fleet query %d detached: %w", id, ErrNotFound)
		}
		perSource[name] = res
	}
	s.fleet.mu.Unlock()
	if minSources < 2 {
		minSources = 2
	}
	merged := fleet.Merge(q.name, perSource)
	view := &FleetResultView{
		ID: id, Query: q.name,
		Entities:    merged.Entities,
		CrossCamera: merged.CrossCamera(minSources, windowSec),
		MinSources:  minSources, WindowSec: windowSec,
		PerSource: make(map[string]FleetSourceSummary, len(perSource)),
	}
	s.counters.Add("fleet_results_read", 1)
	for name, res := range perSource {
		view.PerSource[name] = FleetSourceSummary{
			FramesProcessed: res.FramesProcessed,
			MatchedFrames:   res.MatchedCount(),
			Hits:            len(res.Hits),
		}
	}
	return view, nil
}

// FleetQueryStat is one live fleet query's /streamz row.
type FleetQueryStat struct {
	// ID / Name identify the query; Lanes maps camera to lane id.
	ID    int            `json:"id"`
	Name  string         `json:"name"`
	Lanes map[string]int `json:"lanes"`
	// EstMS sums the per-camera admission estimates.
	EstMS float64 `json:"est_ms_per_frame_total"`
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
	// Queries lists the live fleet-wide queries.
	Queries []FleetQueryStat `json:"queries"`
}

// fleetStatLocked assembles the /streamz fleet block. Callers hold
// s.mu.
func (s *Server) fleetStatLocked() *FleetStat {
	if s.fleet == nil {
		return nil
	}
	regStats := s.fleet.reg.Stats()
	st := &FleetStat{
		Cams:        len(s.order),
		Entities:    regStats.Entities,
		CrossCamera: regStats.CrossCamera,
		Batch:       s.fleet.batch.Stats(),
	}
	for _, id := range sortedIDs(s.fleet.queries) {
		q := s.fleet.queries[id]
		total := 0.0
		for _, est := range q.estMS {
			total += est
		}
		st.Queries = append(st.Queries, FleetQueryStat{ID: q.id, Name: q.name, Lanes: q.lanes, EstMS: total})
	}
	return st
}
