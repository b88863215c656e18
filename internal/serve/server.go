// Package serve is the live serving layer on top of the dynamic
// shared-scan engine: one MuxStream per registered scenario source,
// driven by a frame-rate ticker, with queries attaching and detaching
// over HTTP while frames keep flowing. It is the daemon brain behind
// cmd/vqserve; the HTTP handlers live in http.go.
//
// Admission control is virtual-time based: every query is canary-
// profiled at attach (plan.EstPerFrameMS), and a source rejects a new
// query when the sum of estimated per-frame costs of its resident
// queries would exceed the configured per-frame budget — the serving
// analogue of refusing work that cannot be completed before the next
// frame arrives.
package serve

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"vqpy"

	"vqpy/internal/config"
	"vqpy/internal/fault"
	"vqpy/internal/metrics"
)

// ErrNotFound marks lookups of unregistered sources, queries or ids
// (the HTTP layer maps it to 404).
var ErrNotFound = errors.New("not found")

// ErrDraining marks requests refused because the daemon is shutting
// down gracefully (the HTTP layer maps it to 503, and /readyz flips).
var ErrDraining = errors.New("serve: draining")

// ErrUnsupported marks a refused combination of features: fleet mode
// with a store or an index, and the per-source synchronous modes
// (search, fidelity, text) on a fleet daemon. The HTTP layer maps it to
// 400 like any bad request; callers match it with errors.Is.
var ErrUnsupported = errors.New("unsupported combination")

// Source-quarantine policy (DESIGN.md §9): a source that stalls this
// many consecutive polls is quarantined — the step loop stops polling
// it every tick and probes it only every quarantineProbeEvery ticks, so
// a wedged camera costs almost nothing while the healthy ones keep
// flowing. Any successful poll (or a drop, which proves the source is
// answering) lifts the quarantine.
const (
	quarantineThreshold  = 3
	quarantineProbeEvery = 4
)

// Config tunes the serving daemon.
type Config struct {
	// Seed drives scenario generation and the model zoo per source.
	Seed uint64
	// Seconds is the generated clip length per source.
	Seconds float64
	// Speed multiplies the frame ticker rate (Run): 10 means frames are
	// fed at 10× the capture rate. <= 0 disables the ticker entirely;
	// frames then advance only through Step/StepAll (tests, tools).
	Speed float64
	// BudgetMS is the per-frame virtual-time admission budget per
	// source; 0 admits everything.
	BudgetMS float64
	// Loop wraps each clip when its frames run out, standing in for an
	// endless camera feed. Without it a source stops feeding at the end
	// of the clip (queries remain attached and readable).
	Loop bool
	// StoreDir enables the tiered persistent result store (DESIGN.md
	// §7): every source's scan output is archived under this directory
	// and consulted before model work, so a daemon restarted over the
	// same directory (same seed) replays its previous passes at zero
	// model cost — the warm-restart path — and queries can attach with
	// backfill. Empty disables persistence.
	StoreDir string
	// IndexDir enables the appearance-embedding index (DESIGN.md §10)
	// over the archive: POST /queries with "mode":"search" answers
	// archive-scale "find this object" queries probe-then-verify, and
	// /streamz gains an index block. Requires StoreDir (the index is an
	// acceleration structure over archived records, never a source of
	// truth) and is incompatible with fleet mode.
	IndexDir string
	// FleetCams > 0 switches the daemon to fleet mode (DESIGN.md §8):
	// the registered sourceNames are replaced by that many correlated
	// camera clips sharing one entity population, all driven in
	// lockstep on one ticker with batched cross-source detector
	// inference and a shared global re-ID registry; fleet-wide queries
	// attach through POST /queries with "mode":"fleet". Incompatible
	// with StoreDir.
	FleetCams int
	// Tenants is the multi-tenant QoS section (DESIGN.md §11): named
	// tenants split BudgetMS between them in proportion to their shares
	// and rate-limit their HTTP requests. Empty runs the daemon in
	// single-tenant mode — one implicit tenant owning the whole budget,
	// no rate limits, admission rejections in their historical 503
	// shape. Hot-reloadable via ApplyOps.
	Tenants []config.Tenant
	// Faults installs a deterministic fault injector (DESIGN.md §9)
	// across the whole daemon: model calls gate through its schedule
	// (absorbed by retry, breakers, degradation), store I/O routes
	// through its write/read hooks, and every source is polled through
	// a fault wrapper that can stall or drop frames (stalled sources
	// quarantine instead of being re-polled every tick). Nil — or an
	// injector with an empty schedule — leaves the daemon bit-identical
	// to an unconfigured one.
	Faults *vqpy.FaultInjector
}

// source is one registered scenario feed: its own session (private
// virtual clock), clip and dynamic mux. name, session, video, feed and
// mux are fixed at construction; everything below mu is the source's
// own feed state.
type source struct {
	name    string
	session *vqpy.Session
	video   *vqpy.Video
	feed    vqpy.FrameSource // poll path: the clip, fault-wrapped when chaos is on
	mux     *vqpy.MuxStream

	// syncMu admits one synchronous query (search, fidelity, text) at a
	// time on this source: they share the warm → extract step and the
	// store's memory tier, and two at once cost more than they overlap.
	// Taken before mu, never while holding it.
	syncMu sync.Mutex

	// mu guards the fields below and orders everything that moves the
	// session ledger as a unit — a tick's mux.Feed, a lane attach or
	// detach, the merge of a finished synchronous query's forked clock —
	// so a lane's per-frame cost (a clock delta) never contains someone
	// else's charge. Held by this source's own tick, attach/detach and
	// stats reads only; never while waiting on another source.
	mu           sync.Mutex
	fed          int   // frames fed (monotonic, counts wrapped and dropped frames once each)
	done         bool  // no more frames will be fed (clip end, or a feed error)
	feedErr      error // the error that stopped the feed, if any
	syncInflight int   // synchronous queries admitted and not yet answered (running or queued on syncMu)

	// Failure-domain state (only moves when Config.Faults injects
	// source faults; see step).
	ticks         int  // step attempts, the quarantine probe clock
	stalls        int  // consecutive stalled polls of the current frame
	totalStalls   int  // lifetime stalled polls
	dropped       int  // frames lost to injected drops
	quarantined   bool // stalled past the threshold; polled only on probes
	quarantinedAt int  // tick of the last quarantine entry
	quarantines   int  // lifetime quarantine entries
}

// liveQuery is one attached query's registration: a per-source query
// rides one lane, a fleet-wide query one lane per camera.
type liveQuery struct {
	id     int
	name   string
	tenant string // owning tenant; "" in single-tenant mode
	fleet  bool   // attached fleet-wide: reads and detaches run under the fleet lock
	lanes  []queryLane
}

// queryLane is one lane a query rides.
type queryLane struct {
	source string
	lane   int
	estMS  float64 // estimated virtual ms per frame (admission signal)
}

// Server owns the sources and the query registry. Its locks form a
// hierarchy, always taken in this order (DESIGN.md §6):
//
//   - mu, the registry lock: the query table, ids, admission
//     reservations, tenant tables, the hot-reloadable budget and the
//     lifecycle flags. Held for map and arithmetic work only — never
//     across a mux.Feed, a PlanQuery, a backfill replay or a synchronous
//     query.
//   - source.mu, one per source: that source's feed state and ledger
//     order (see source). A tick on one source never waits for another
//     source's lock.
//   - the MuxStream, store, index, clock, counters and injector locks,
//     each private to its type.
//
// Fleet mode adds fleetState.mu above the registry lock: one lock over
// the lockstep tick and the fleet-wide attach, detach and read, because
// the batch window spans every camera by design.
//
// sources, order, counters, fleet and every Config field except
// BudgetMS and Tenants are fixed at construction and read without a
// lock; store and index are fixed until shutdown closes them.
type Server struct {
	cfg      Config
	sources  map[string]*source
	order    []string
	counters *metrics.Counters
	store    *vqpy.Store // persistent result store, nil without StoreDir
	index    *vqpy.Index // appearance index over the store, nil without IndexDir
	fleet    *fleetState // fleet-mode extension, nil without FleetCams

	mu      sync.Mutex
	queries map[int]*liveQuery
	// pending holds the admission reservations of attaches whose lane is
	// still being created: they count toward the load like resident
	// queries, so two racing attaches cannot both squeeze under the
	// budget, and have no id yet, so nothing can read or detach them.
	pending map[*liveQuery]struct{}
	nextID  int

	// Multi-tenant QoS state (tenant.go); empty maps in single-tenant
	// mode. now is the wall clock behind the token buckets, swappable in
	// tests.
	tenants      map[string]*tenantState
	tenantOrder  []string
	totalShares  float64
	tenantSyncMS map[string]float64 // virtual ms of synchronous queries per tenant; survives reloads
	now          func() time.Time

	stop     chan struct{}
	wg       sync.WaitGroup // tickers
	started  bool
	draining bool // shutdown began: no new queries, no new frames
	drained  bool // shutdown finished: muxes and store are closed

	// inflight counts the operations between enter and its Done: every
	// tick, attach, detach, result read and synchronous query. Shutdown
	// waits for it before closing muxes, index and store, so an
	// operation racing a drain completes or is refused with ErrDraining
	// and never meets a closed store.
	inflight sync.WaitGroup

	// hook, when set before the server is shared (tests only), observes
	// the events of hookEvent on each source.
	hook func(source string, ev hookEvent)
}

// hookEvent names what Server.hook observes. evSyncRunning fires with no
// lock held but the source's syncMu; the others fire under the source
// lock, so their order per source is the order in which ticks, lane
// changes and merged query ledgers really took effect — what a serial
// replay needs to reproduce a concurrent run bit for bit.
type hookEvent int

const (
	evSyncRunning hookEvent = iota // a synchronous query holds its watermark and is about to run
	evTick                         // one frame was fed
	evAttach                       // a lane attached
	evDetach                       // a lane detached
	evMerge                        // a synchronous query's ledger was merged
)

// observe reports ev to the test hook, if any.
func (s *Server) observe(source string, ev hookEvent) {
	if s.hook != nil {
		s.hook(source, ev)
	}
}

// scenarios maps source names to scenario generators (the daemon's
// stand-in for camera registration).
var scenarios = map[string]func(uint64, float64) vqpy.Scenario{
	"cityflow":    vqpy.DatasetCityFlow,
	"banff":       vqpy.DatasetBanff,
	"jackson":     vqpy.DatasetJackson,
	"southampton": vqpy.DatasetSouthampton,
	"auburn":      vqpy.DatasetAuburn,
	"pickup":      vqpy.DatasetPickup,
	"retail":      vqpy.DatasetRetail,
}

// SourceNames lists the registrable scenario sources, sorted.
func SourceNames() []string {
	out := make([]string, 0, len(scenarios))
	for name := range scenarios {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// NewServer generates one clip and opens one dynamic MuxStream per
// named source. In fleet mode (Config.FleetCams > 0) sourceNames is
// ignored: the sources are the correlated camera clips of the fleet
// scenario.
func NewServer(cfg Config, sourceNames []string) (*Server, error) {
	if cfg.Seconds <= 0 {
		cfg.Seconds = 30
	}
	if len(sourceNames) == 0 && cfg.FleetCams <= 0 {
		return nil, fmt.Errorf("serve: no sources registered")
	}
	if cfg.IndexDir != "" && cfg.StoreDir == "" {
		return nil, fmt.Errorf("serve: -index requires -store (the index accelerates archive search, it is not a source of truth)")
	}
	// Fleet × store and fleet × index are refused together, before
	// anything is built: one failed start names every unsupported knob.
	var refused []error
	if cfg.FleetCams > 0 && cfg.StoreDir != "" {
		refused = append(refused, fmt.Errorf("serve: fleet mode does not combine with -store (per-camera archives of a lockstep fleet are future work): %w", ErrUnsupported))
	}
	if cfg.FleetCams > 0 && cfg.IndexDir != "" {
		refused = append(refused, fmt.Errorf("serve: fleet mode is incompatible with -index: %w", ErrUnsupported))
	}
	if err := errors.Join(refused...); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:      cfg,
		sources:  make(map[string]*source),
		queries:  make(map[int]*liveQuery),
		pending:  make(map[*liveQuery]struct{}),
		counters: metrics.NewCounters(),
		stop:     make(chan struct{}),
		now:      time.Now,

		tenantSyncMS: make(map[string]float64),
	}
	s.configureTenantsLocked(cfg.Tenants)
	if cfg.FleetCams > 0 {
		if err := s.initFleet(); err != nil {
			return nil, err
		}
		return s, nil
	}
	if cfg.StoreDir != "" {
		// One store serves every source: records are keyed by source
		// name. A restart over the same directory finds its own archive
		// (the manifest guards the seed). With chaos on, the store's I/O
		// paths route through the injector (write failures degrade a
		// tier to memory-only; read failures become misses).
		st, err := vqpy.OpenStoreWithFaults(cfg.StoreDir, cfg.Seed, cfg.Faults)
		if err != nil {
			return nil, err
		}
		s.store = st
	}
	if cfg.IndexDir != "" {
		x, err := vqpy.OpenIndex(cfg.IndexDir, cfg.Seed)
		if err != nil {
			s.closeStore()
			return nil, err
		}
		s.index = x
	}
	for _, name := range sourceNames {
		gen, ok := scenarios[name]
		if !ok {
			s.closeStore()
			return nil, fmt.Errorf("serve: unknown source %q (have %v)", name, SourceNames())
		}
		if _, dup := s.sources[name]; dup {
			s.closeStore()
			return nil, fmt.Errorf("serve: source %q registered twice", name)
		}
		session := vqpy.NewSession(cfg.Seed)
		session.SetNoBurn(true)
		session.SetFaults(cfg.Faults)
		v := vqpy.GenerateVideo(gen(cfg.Seed, cfg.Seconds))
		mux, err := session.Serve(v.FPS)
		if err != nil {
			s.closeStore()
			return nil, err
		}
		if s.store != nil {
			mux.BindStore(s.store, v)
		} else {
			// No store: bind the source name alone so circuit breakers
			// (keyed per model AND source) and /healthz attribute
			// failures to the right camera.
			mux.BindSource(v)
		}
		s.sources[name] = &source{
			name: name, session: session, video: v, mux: mux,
			feed: fault.WrapSource(v, cfg.Faults),
		}
		s.order = append(s.order, name)
	}
	return s, nil
}

// closeStore releases the store and index during failed construction /
// shutdown.
func (s *Server) closeStore() {
	if s.index != nil {
		s.index.Close()
		s.index = nil
	}
	if s.store != nil {
		s.store.Close()
		s.store = nil
	}
}

// SourceNamesRegistered lists this server's registered sources in feed
// order (in fleet mode, the generated camera names).
func (s *Server) SourceNamesRegistered() []string {
	return append([]string(nil), s.order...)
}

// enter admits one operation that touches a mux, the store or the
// index; the caller defers s.inflight.Done(). Refused from the moment a
// shutdown starts.
func (s *Server) enter() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return ErrDraining
	}
	s.inflight.Add(1)
	return nil
}

// lookupSource resolves a registered source name.
func (s *Server) lookupSource(name string) (*source, error) {
	src, ok := s.sources[name]
	if !ok {
		return nil, fmt.Errorf("serve: unknown source %q: %w", name, ErrNotFound)
	}
	return src, nil
}

// Run starts one ticker goroutine per source feeding frames at
// Speed × capture rate — or, in fleet mode, ONE lockstep ticker
// stepping every camera per tick inside a batch window. It is a no-op
// when Speed <= 0 (manual stepping) or when already started. Stop with
// Close. A tick whose step returns after the next tick was due counts
// as ticks_late:<source> — the "is this source falling behind" signal
// on /streamz and /metrics.
func (s *Server) Run() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started || s.draining || s.cfg.Speed <= 0 {
		return
	}
	s.started = true
	if s.fleet != nil {
		// A per-source feed error marks that source done with the error
		// recorded; the ticker keeps driving the healthy cameras.
		s.runTicker(s.sources[s.order[0]].video.FPS, s.order, func() error {
			_ = s.StepAll()
			return nil
		})
		return
	}
	for _, name := range s.order {
		s.runTicker(s.sources[name].video.FPS, []string{name}, func() error { return s.Step(name) })
	}
}

// runTicker starts one ticker goroutine calling step at fps × Speed
// until it fails or the server stops; names are the sources a late tick
// is booked against.
func (s *Server) runTicker(fps int, names []string, step func() error) {
	interval := time.Duration(float64(time.Second) / (float64(fps) * s.cfg.Speed))
	if interval <= 0 {
		interval = time.Millisecond
	}
	for _, name := range names {
		s.counters.Add("ticks_late:"+name, 0) // export the series from the first scrape
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case due := <-t.C:
				if err := step(); err != nil {
					return
				}
				if time.Since(due) > interval {
					for _, name := range names {
						s.counters.Add("ticks_late:"+name, 1)
					}
				}
			}
		}
	}()
}

// quiesce starts the shutdown: refuse new operations, stop the tickers,
// then wait for every operation already in flight. After it returns no
// frame moves and nothing reads the store.
func (s *Server) quiesce() {
	s.mu.Lock()
	s.draining = true
	if s.started {
		close(s.stop)
		s.started = false
	}
	s.mu.Unlock()
	s.wg.Wait()
	s.inflight.Wait()
}

// Close stops the daemon without finalizing queries: it refuses new
// work, waits for in-flight ticks and queries, then closes every mux,
// the index and the store. After a Drain it is a no-op.
func (s *Server) Close() {
	s.quiesce()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.drained {
		return
	}
	s.drained = true
	s.closeSourcesLocked()
}

// closeSourcesLocked closes every mux, then the index and store.
// Callers hold s.mu after quiesce.
func (s *Server) closeSourcesLocked() {
	for _, name := range s.order {
		src := s.sources[name]
		src.mu.Lock()
		src.mux.Close()
		src.mu.Unlock()
	}
	s.closeStore()
}

// DrainSummary reports what a graceful drain tore down.
type DrainSummary struct {
	// QueriesDetached counts the live queries finalized by the drain,
	// per-source and fleet-wide alike.
	QueriesDetached int `json:"queries_detached"`
	// StoreFlushed reports that a persistent store was synced and
	// closed.
	StoreFlushed bool `json:"store_flushed,omitempty"`
	// Results holds the final per-source results of every query that was
	// still attached, keyed by query id then source (not serialized:
	// drains are logged, not shipped).
	Results map[int]map[string]*vqpy.Result `json:"-"`
}

// Drain shuts the daemon down gracefully (the SIGTERM path of
// cmd/vqserve): stop admitting queries and frames, stop the tickers,
// wait for the ticks and queries already in flight (a request racing
// the drain is answered or refused with ErrDraining, never cut off),
// detach and finalize every live query, then flush and close the
// store. /readyz reports 503 from the moment draining starts while
// /healthz keeps answering 200, so load balancers route away before
// the listener goes down. Idempotent; a later Close is a no-op.
func (s *Server) Drain() DrainSummary {
	s.quiesce()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.drained {
		return DrainSummary{}
	}
	sum := DrainSummary{Results: make(map[int]map[string]*vqpy.Result)}
	for _, id := range sortedIDs(s.queries) {
		// A lane that fails to finalize reads as a nil result.
		sum.Results[id], _ = s.detachLanes(s.queries[id].lanes)
		delete(s.queries, id)
		sum.QueriesDetached++
		s.counters.Add("queries_detached", 1)
	}
	sum.StoreFlushed = s.store != nil
	s.closeSourcesLocked()
	s.drained = true
	return sum
}

// sortedIDs lists the query table's ids in ascending order.
func sortedIDs(m map[int]*liveQuery) []int {
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// detachLanes removes lanes from their sources' muxes, each between two
// ticks of its source, and returns the final results keyed by source.
// Every lane is tried; the first error is returned alongside.
func (s *Server) detachLanes(lanes []queryLane) (map[string]*vqpy.Result, error) {
	out := make(map[string]*vqpy.Result, len(lanes))
	var firstErr error
	for _, l := range lanes {
		src := s.sources[l.source]
		src.mu.Lock()
		res, err := src.mux.Detach(l.lane)
		if err == nil {
			s.observe(src.name, evDetach)
		} else if firstErr == nil {
			firstErr = err
		}
		src.mu.Unlock()
		out[l.source] = res
	}
	return out, firstErr
}

// Step feeds one frame on the named source (wrapping when Loop is
// set). In fleet mode single-source stepping is refused: it would feed
// the camera outside the batch window and out of lockstep — use
// StepAll, which advances the whole fleet one tick.
func (s *Server) Step(name string) error {
	if err := s.enter(); err != nil {
		return err
	}
	defer s.inflight.Done()
	if s.fleet != nil {
		return fmt.Errorf("serve: fleet sources step in lockstep; use StepAll")
	}
	src, err := s.lookupSource(name)
	if err != nil {
		return err
	}
	return s.step(src)
}

// StepAll feeds one frame on every source, in registration order — in
// fleet mode this is one lockstep tick with its batch window.
func (s *Server) StepAll() error {
	if err := s.enter(); err != nil {
		return err
	}
	defer s.inflight.Done()
	if s.fleet != nil {
		return s.fleetStep()
	}
	for _, name := range s.order {
		if err := s.step(s.sources[name]); err != nil {
			return err
		}
	}
	return nil
}

// step is one tick of one source, under that source's lock alone.
func (s *Server) step(src *source) error {
	src.mu.Lock()
	defer src.mu.Unlock()
	name := src.name
	if src.done {
		return nil
	}
	n := len(src.video.Frames)
	idx := src.fed
	if idx >= n {
		if !s.cfg.Loop {
			src.done = true
			return nil
		}
		idx %= n
	}
	src.ticks++
	if src.quarantined && (src.ticks-src.quarantinedAt)%quarantineProbeEvery != 0 {
		// Quarantined: skip this tick, probe on the cadence only.
		return nil
	}
	f, status := fault.Poll(src.feed, idx)
	switch status {
	case fault.StatusStalled:
		src.stalls++
		src.totalStalls++
		s.counters.Add("frames_stalled:"+name, 1)
		if !src.quarantined && src.stalls >= quarantineThreshold {
			src.quarantined = true
			src.quarantinedAt = src.ticks
			src.quarantines++
			s.counters.Add("quarantine_events", 1)
			s.counters.Add("quarantined:"+name, 1)
		}
		return nil
	case fault.StatusDropped:
		// The frame is lost for good: skip it. A drop proves the source
		// is answering, so it also lifts any quarantine.
		src.stalls = 0
		src.quarantined = false
		src.dropped++
		src.fed++
		s.counters.Add("frames_dropped:"+name, 1)
		return nil
	}
	if _, err := src.mux.Feed(f); err != nil {
		// A feed error is fatal for the source: record it so /streamz
		// shows why frames stopped instead of freezing silently.
		src.done = true
		src.feedErr = err
		s.counters.Add("feed_errors:"+name, 1)
		return fmt.Errorf("serve: feed %s: %w", name, err)
	}
	src.stalls = 0
	src.quarantined = false
	src.fed++
	s.counters.Add("frames_fed:"+name, 1)
	s.observe(name, evTick)
	return nil
}

// ErrAdmission marks a rejected attach (the HTTP layer maps it to 503).
type ErrAdmission struct {
	Source          string
	EstMS, LoadMS   float64
	BudgetMS        float64
	ResidentQueries int
}

// Error implements error.
func (e *ErrAdmission) Error() string {
	return fmt.Sprintf("serve: %s over budget: +%.2f est ms/frame onto %.2f resident (%d queries) exceeds %.2f",
		e.Source, e.EstMS, e.LoadMS, e.ResidentQueries, e.BudgetMS)
}

// estLoadLocked sums the admission estimates of the lanes resident on
// one source, live and reserved — a fleet-wide query counts on every
// camera it rides. An empty tenant sums every owner's; a name sums that
// tenant's alone. Callers hold s.mu.
func (s *Server) estLoadLocked(source, tenant string) (float64, int) {
	var load float64
	n := 0
	add := func(q *liveQuery) {
		if tenant != "" && q.tenant != tenant {
			return
		}
		for _, l := range q.lanes {
			if l.source == source {
				load += l.estMS
				n++
			}
		}
	}
	for _, q := range s.queries {
		add(q)
	}
	for q := range s.pending {
		add(q)
	}
	return load, n
}

// admitLocked is the admission decision for one plan on one source on
// behalf of a resolved tenant (nil in single-tenant mode): the
// estimated per-frame cost must fit under the budget next to what is
// already resident or reserved. Callers hold s.mu.
func (s *Server) admitLocked(st *tenantState, source string, estMS float64) error {
	if s.cfg.BudgetMS <= 0 {
		return nil
	}
	if st != nil {
		// Multi-tenant: admit against the tenant's slice only. The
		// slices partition the budget, so a tenant filling its slice
		// cannot eat into anyone else's headroom — and a rejection
		// here says nothing about the other tenants.
		owner := st.cfg.Name
		slice := s.tenantSliceLocked(st)
		load, resident := s.estLoadLocked(source, owner)
		if load+estMS > slice {
			s.counters.Add("admission_rejected", 1)
			s.counters.Add("admission_rejected:"+source, 1)
			s.counters.Add("tenant_admission_rejected:"+owner, 1)
			return &ErrTenantBudget{
				Tenant: owner, Source: source, EstMS: estMS,
				LoadMS: load, SliceMS: slice, ResidentQueries: resident,
				RetryAfterSec: 1,
			}
		}
		return nil
	}
	load, resident := s.estLoadLocked(source, "")
	if load+estMS > s.cfg.BudgetMS {
		s.counters.Add("admission_rejected", 1)
		s.counters.Add("admission_rejected:"+source, 1)
		return &ErrAdmission{
			Source: source, EstMS: estMS,
			LoadMS: load, BudgetMS: s.cfg.BudgetMS, ResidentQueries: resident,
		}
	}
	return nil
}

// AttachRequest is one standing-query attach, and the POST /queries body
// of the "attach" and "fleet" modes.
type AttachRequest struct {
	// Source names the stream a per-source query attaches to; a
	// fleet-wide attach takes none.
	Source string `json:"source"`
	// Query is the catalogue query name (the fleet catalogue when Fleet).
	Query string `json:"query"`
	// Backfill replays every frame the source already scanned from the
	// persistent store before the query goes live, so its results cover
	// the whole stream as if it had been attached at frame zero.
	// Requires Config.StoreDir with an archive covering those frames.
	Backfill bool `json:"backfill,omitempty"`
	// Fleet attaches the query to every camera of a fleet daemon at
	// once — live everywhere or nowhere. Set by mode "fleet".
	Fleet bool `json:"-"`
	// Tenant is whose budget slice admits the query (rejections are then
	// ErrTenantBudget, 429, instead of ErrAdmission, 503) and who may
	// read and detach it; ignored in single-tenant mode.
	Tenant string `json:"-"`
}

// AttachNamed attaches a catalogue query to one source on behalf of no
// tenant: Attach for the operator's own standing queries.
func (s *Server) AttachNamed(sourceName, queryName string) (int, error) {
	return s.Attach(AttachRequest{Source: sourceName, Query: queryName})
}

// attachTargets resolves what an attach request names: the sources it
// lands on, in feed order, and the builder of each source's query value.
func (s *Server) attachTargets(req AttachRequest) ([]*source, func(source string) *vqpy.Query, error) {
	if !req.Fleet {
		q, err := BuildQuery(req.Query)
		if err != nil {
			return nil, nil, err
		}
		src, err := s.lookupSource(req.Source)
		if err != nil {
			return nil, nil, err
		}
		return []*source{src}, func(string) *vqpy.Query { return q }, nil
	}
	if s.fleet == nil {
		return nil, nil, fmt.Errorf("serve: fleet mode disabled (run with -fleet): %w", ErrNotFound)
	}
	if req.Source != "" {
		return nil, nil, fmt.Errorf("serve: a fleet-wide attach takes no source (got %q)", req.Source)
	}
	build, ok := fleetBuilders[req.Query]
	if !ok {
		return nil, nil, fmt.Errorf("serve: unknown fleet query %q (have %v): %w", req.Query, FleetQueryNames(), ErrNotFound)
	}
	targets := make([]*source, len(s.order))
	for i, name := range s.order {
		targets[i] = s.sources[name]
	}
	// Each camera's instance resolves global ids against the one shared
	// identity registry and selects PropGlobalID for mergeable results.
	return targets, func(source string) *vqpy.Query { return build(s.fleet.reg, source) }, nil
}

// Attach plans a catalogue query for every source it names and attaches
// one lane on each, returning the server-wide query id. The clip doubles
// as the planner canary, so each plan arrives with a per-frame cost
// estimate; admission rejects the query when any target's estimated
// virtual-time load per frame would exceed its budget, before any lane
// exists. The lanes attach atomically: a failure rolls back the ones
// already attached.
func (s *Server) Attach(req AttachRequest) (int, error) {
	targets, build, err := s.attachTargets(req)
	if err != nil {
		return 0, err
	}
	if err := s.enter(); err != nil {
		return 0, err
	}
	defer s.inflight.Done()
	if req.Backfill && s.store == nil {
		return 0, fmt.Errorf("serve: backfill attach requires the daemon to run with -store")
	}
	if req.Fleet {
		// Held from planning to the last lane (see fleetState.mu).
		s.fleet.mu.Lock()
		defer s.fleet.mu.Unlock()
	}
	// Plan first, holding no lock a tick of another source needs
	// (profiling runs on an isolated clock), and admit before any lane
	// state exists — in particular before a backfill replays the scanned
	// history, work a rejection would otherwise throw away.
	lq := &liveQuery{name: req.Query, fleet: req.Fleet, lanes: make([]queryLane, len(targets))}
	plans := make([]*vqpy.Plan, len(targets))
	for i, src := range targets {
		if plans[i], err = src.session.PlanQuery(build(src.name), src.video); err != nil {
			return 0, err
		}
		lq.lanes[i] = queryLane{source: src.name, estMS: plans[i].EstPerFrameMS}
	}

	// Admission on every target and the reservation are one step under
	// the registry lock; each lane (and a backfill's replay) is then
	// created holding only its own source.
	s.mu.Lock()
	st, err := s.resolveTenantLocked(req.Tenant)
	for i := 0; err == nil && i < len(lq.lanes); i++ {
		err = s.admitLocked(st, lq.lanes[i].source, lq.lanes[i].estMS)
	}
	if err != nil {
		s.mu.Unlock()
		return 0, err
	}
	if st != nil {
		lq.tenant = st.cfg.Name
	}
	s.pending[lq] = struct{}{}
	s.mu.Unlock()

	// The reservation is read under the registry lock meanwhile, so the
	// lane ids are collected on a copy and installed with the id.
	attached := slices.Clone(lq.lanes)
	for i, src := range targets {
		src.mu.Lock()
		if req.Backfill {
			attached[i].lane, err = src.mux.AttachBackfill(plans[i])
		} else {
			attached[i].lane, err = src.mux.Attach(plans[i])
		}
		if err == nil {
			s.observe(src.name, evAttach)
		}
		src.mu.Unlock()
		if err != nil {
			err = fmt.Errorf("serve: attach on %s: %w", src.name, err)
			_, _ = s.detachLanes(attached[:i])
			break
		}
	}

	s.mu.Lock()
	delete(s.pending, lq)
	if err == nil {
		lq.id, lq.lanes = s.nextID, attached
		s.nextID++
		s.queries[lq.id] = lq
	}
	s.mu.Unlock()
	if err != nil {
		return 0, err
	}
	s.counters.Add("queries_attached", 1)
	s.counters.Add("queries_attached:"+req.Query, 1)
	if req.Backfill {
		s.counters.Add("queries_backfilled", 1)
	}
	return lq.id, nil
}

// Detach removes a query from every lane it rides and returns the final
// results keyed by source (one entry for a per-source query). tenant is
// the caller; see Results.
func (s *Server) Detach(tenant string, id int) (map[string]*vqpy.Result, error) {
	_, res, err := s.read(tenant, id, true)
	return res, err
}

// Results snapshots a live query's accumulated results, keyed by source
// (one entry for a per-source query). tenant is the caller: on a
// multi-tenant daemon a query answers only its owner, and anyone else
// gets ErrNotFound like for an id that does not exist.
func (s *Server) Results(tenant string, id int) (map[string]*vqpy.Result, error) {
	_, res, err := s.read(tenant, id, false)
	return res, err
}

// read is the one lookup behind Detach, Results and their handlers: it
// resolves id on behalf of tenant and returns the registration with one
// result per lane — live snapshots, or with take the finals of the
// lanes it removes.
func (s *Server) read(tenant string, id int, take bool) (*liveQuery, map[string]*vqpy.Result, error) {
	if err := s.enter(); err != nil {
		return nil, nil, err
	}
	defer s.inflight.Done()
	s.mu.Lock()
	q, err := s.lookupLocked(tenant, id)
	if err == nil && take {
		delete(s.queries, id)
	}
	s.mu.Unlock()
	if err != nil {
		return nil, nil, err
	}
	if q.fleet {
		// Keeps the snapshots on one tick boundary, and the lanes from
		// leaving some cameras a tick before the others.
		s.fleet.mu.Lock()
		defer s.fleet.mu.Unlock()
	}
	if take {
		res, err := s.detachLanes(q.lanes)
		if err == nil {
			s.counters.Add("queries_detached", 1)
		}
		return q, res, err
	}
	s.counters.Add("results_read", 1)
	res := make(map[string]*vqpy.Result, len(q.lanes))
	for _, l := range q.lanes {
		// The mux's own lock orders the snapshot against the source's ticks.
		if res[l.source], err = s.sources[l.source].mux.Snapshot(l.lane); err != nil {
			// The query was registered a moment ago, so its lane can only
			// be missing because a concurrent Detach just took it.
			return nil, nil, fmt.Errorf("serve: query %d detached: %w", id, ErrNotFound)
		}
	}
	return q, res, nil
}

// lookupLocked resolves a live query id on behalf of a tenant — the one
// place ownership is checked. Callers hold s.mu.
func (s *Server) lookupLocked(tenant string, id int) (*liveQuery, error) {
	st, err := s.resolveTenantLocked(tenant)
	if err != nil {
		return nil, err
	}
	q, ok := s.queries[id]
	// Someone else's query reads as missing: its existence is not the
	// caller's to learn.
	if !ok || (st != nil && q.tenant != st.cfg.Name) {
		return nil, fmt.Errorf("serve: unknown query %d: %w", id, ErrNotFound)
	}
	return q, nil
}

// hitsSince restricts a snapshot's frame hits to frame indices >= since
// — the delta-polling read: a client remembers the last frame it saw and
// asks only for what is new (and a backfilled query can be asked for
// exactly its replayed history). Aggregate fields (matched counts,
// video-level aggregation) always reflect the whole residency; since <=
// 0 keeps everything. The snapshot's hit slice is a private copy, so it
// is filtered in place.
func hitsSince(res *vqpy.Result, since int) *vqpy.Result {
	if since > 0 {
		kept := res.Hits[:0]
		for _, h := range res.Hits {
			if h.FrameIdx >= since {
				kept = append(kept, h)
			}
		}
		res.Hits = kept
	}
	return res
}

// Health is the GET /healthz payload. The endpoint always answers 200
// — it reports liveness plus a degradation summary; readiness (503
// while draining) is /readyz's job.
type Health struct {
	// Status is "ok", "degraded" (a breaker is open or a source is
	// quarantined) or "draining".
	Status   string `json:"status"`
	Draining bool   `json:"draining"`
	// Quarantined lists the sources currently under stall quarantine.
	Quarantined []string `json:"quarantined,omitempty"`
	// OpenBreakers lists every circuit breaker not currently closed.
	OpenBreakers []fault.BreakerStat `json:"open_breakers,omitempty"`
}

// Health assembles the /healthz view.
func (s *Server) Health() Health {
	h := Health{Status: "ok", Draining: !s.Ready()}
	for _, name := range s.order {
		src := s.sources[name]
		src.mu.Lock()
		if src.quarantined {
			h.Quarantined = append(h.Quarantined, name)
		}
		src.mu.Unlock()
	}
	for _, b := range s.cfg.Faults.BreakerStats() {
		if b.State != "closed" {
			h.OpenBreakers = append(h.OpenBreakers, b)
		}
	}
	switch {
	case h.Draining:
		h.Status = "draining"
	case len(h.Quarantined) > 0 || len(h.OpenBreakers) > 0:
		h.Status = "degraded"
	}
	return h
}

// Ready reports whether the daemon accepts new work (false from the
// moment a drain starts).
func (s *Server) Ready() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.draining
}

// SourceStat is one source's /streamz row.
type SourceStat struct {
	Name         string           `json:"name"`
	FPS          int              `json:"fps"`
	ClipFrames   int              `json:"clip_frames"`
	FramesFed    int              `json:"frames_fed"`
	Done         bool             `json:"done"`
	FeedError    string           `json:"feed_error,omitempty"`
	Queries      int              `json:"queries"`
	Groups       []string         `json:"groups"`
	GroupMembers []int            `json:"group_members"`
	GroupStats   []vqpy.GroupStat `json:"group_stats"`
	Lanes        []vqpy.LaneStat  `json:"lanes"`
	EstLoadMS    float64          `json:"est_load_ms_per_frame"`
	BudgetMS     float64          `json:"budget_ms_per_frame"`
	VirtualMS    float64          `json:"virtual_ms_total"`
	// SyncInflight counts the synchronous queries (search, fidelity,
	// text) admitted on this source and not yet answered; TicksLate the
	// ticker's ticks whose step returned after the next tick was due.
	SyncInflight int   `json:"sync_inflight"`
	TicksLate    int64 `json:"ticks_late"`

	// Degradation state (chaos runs; zero-valued otherwise).
	Stalls         int                 `json:"stalls,omitempty"`
	Dropped        int                 `json:"dropped,omitempty"`
	Quarantined    bool                `json:"quarantined,omitempty"`
	Quarantines    int                 `json:"quarantines,omitempty"`
	DegradedFrames int                 `json:"degraded_frames,omitempty"`
	Breakers       []fault.BreakerStat `json:"breakers,omitempty"`
}

// QueryStat is one lane of a live query on /streamz: one row for a
// per-source query, one per camera (same id) for a fleet-wide one.
type QueryStat struct {
	ID        int     `json:"id"`
	Name      string  `json:"name"`
	Source    string  `json:"source"`
	Tenant    string  `json:"tenant,omitempty"`
	Lane      int     `json:"lane"`
	EstMS     float64 `json:"est_ms_per_frame"`
	Frames    int     `json:"frames"`
	VirtualMS float64 `json:"virtual_ms"`
	Matched   int     `json:"matched_frames"`
}

// StoreStat is the /streamz persistence row: the result store's tier
// shape plus its hit/miss counters.
type StoreStat struct {
	Dir      string           `json:"dir"`
	Tiers    vqpy.StoreStats  `json:"tiers"`
	Counters map[string]int64 `json:"counters"`
}

// IndexStat is the /streamz appearance-index block, present when the
// daemon runs with -index: the index shape plus the accumulated
// archive-search activity.
type IndexStat struct {
	Dir string `json:"dir"`
	// Stats is the index's own shape and probe counters (entries,
	// partitions, probes, candidates, pruned entries, faulted reads).
	Stats vqpy.IndexStats `json:"stats"`
	// Searches counts POST /queries mode=search requests served;
	// SearchFrames the frames those searches spanned, VerifiedFrames the
	// frames actually executed (candidate frames verified plus residual
	// frames full-scanned past coverage), ResidualFrames the residual
	// component alone.
	Searches       int64 `json:"searches"`
	SearchFrames   int64 `json:"search_frames"`
	VerifiedFrames int64 `json:"verified_frames"`
	ResidualFrames int64 `json:"residual_frames"`
	// PrunedFrameRatio is the fraction of searched frames the index
	// proved need no execution: 1 − verified/searched.
	PrunedFrameRatio float64 `json:"pruned_frame_ratio"`
}

// FidelityStat is the /streamz fidelity block, present when the daemon
// runs with -store: the archived tier manifests plus the accumulated
// fidelity-query activity (DESIGN.md §12).
type FidelityStat struct {
	// Tiers lists every archived fidelity across sources, with coverage
	// and calibrated accuracy.
	Tiers []vqpy.FidelityEntry `json:"tiers,omitempty"`
	// Queries counts POST /queries mode=fidelity requests served; the
	// decision counters split them by outcome.
	Queries       int64 `json:"queries"`
	TierDecisions int64 `json:"tier_decisions"`
	LiveDecisions int64 `json:"live_decisions"`
	// ReplayedFrames were answered from tier archives at bookkeeping
	// cost; DegradedFrames fell back live after archive misses;
	// ResidualFrames were live-scanned past tier coverage.
	ReplayedFrames int64 `json:"replayed_frames"`
	DegradedFrames int64 `json:"degraded_frames"`
	ResidualFrames int64 `json:"residual_frames"`
	// ReplayedFrameRatio is the fraction of fidelity-served frames that
	// came from tier archives: replayed / (replayed+degraded+residual).
	ReplayedFrameRatio float64 `json:"replayed_frame_ratio"`
}

// ChaosStat is the /streamz fault-injection block, present when the
// daemon runs with an injector.
type ChaosStat struct {
	// Enabled mirrors the injector's live toggle.
	Enabled bool `json:"enabled"`
	// TrippedBreakers counts breakers currently open or half-open;
	// Breakers lists every breaker that has seen a failure.
	TrippedBreakers int                 `json:"tripped_breakers"`
	Breakers        []fault.BreakerStat `json:"breakers,omitempty"`
	// Counters are the injector's event counters (injections by kind
	// and target, breaker trips, degradations).
	Counters map[string]int64 `json:"counters"`
}

// Stats is the /streamz payload.
type Stats struct {
	Sources  []SourceStat     `json:"sources"`
	Queries  []QueryStat      `json:"queries"`
	Tenants  []TenantStat     `json:"tenants,omitempty"`
	Counters map[string]int64 `json:"counters"`
	Store    *StoreStat       `json:"store,omitempty"`
	Index    *IndexStat       `json:"index,omitempty"`
	Fidelity *FidelityStat    `json:"fidelity,omitempty"`
	Fleet    *FleetStat       `json:"fleet,omitempty"`
	Chaos    *ChaosStat       `json:"chaos,omitempty"`
}

// Streamz assembles the live stats snapshot: the registry's tables
// under the registry lock, then each source's row under that source's
// lock — so a row is consistent with the tick it follows, and a scrape
// never holds one source while waiting for another.
func (s *Server) Streamz() Stats {
	s.mu.Lock()
	st := Stats{
		Counters: s.counters.Snapshot(),
		Tenants:  s.tenantStatsLocked(),
		Fleet:    s.fleetStat(),
		Sources:  make([]SourceStat, len(s.order)),
	}
	store, index := s.store, s.index
	for i, name := range s.order {
		load, resident := s.estLoadLocked(name, "")
		st.Sources[i] = SourceStat{Queries: resident, EstLoadMS: load, BudgetMS: s.cfg.BudgetMS}
	}
	for _, id := range sortedIDs(s.queries) {
		q := s.queries[id]
		for _, l := range q.lanes {
			st.Queries = append(st.Queries, QueryStat{ID: q.id, Name: q.name, Source: l.source, Tenant: q.tenant, Lane: l.lane, EstMS: l.estMS})
		}
	}
	s.mu.Unlock()

	if inj := s.cfg.Faults; inj != nil {
		st.Chaos = &ChaosStat{
			Enabled:         inj.Enabled(),
			TrippedBreakers: inj.TrippedBreakers(),
			Breakers:        inj.BreakerStats(),
			Counters:        inj.Counters().Snapshot(),
		}
	}
	if store != nil {
		st.Store = &StoreStat{
			Dir: store.Dir(), Tiers: store.TierStats(),
			Counters: store.Counters().Snapshot(),
		}
		fs := &FidelityStat{
			Queries:        s.counters.Get("fidelity_queries"),
			TierDecisions:  s.counters.Get("fidelity_tier_decisions"),
			LiveDecisions:  s.counters.Get("fidelity_live_decisions"),
			ReplayedFrames: s.counters.Get("fidelity_replayed_frames"),
			DegradedFrames: s.counters.Get("fidelity_degraded_frames"),
			ResidualFrames: s.counters.Get("fidelity_residual_frames"),
		}
		for _, name := range s.order {
			fs.Tiers = append(fs.Tiers, store.Fidelities(name)...)
		}
		if total := fs.ReplayedFrames + fs.DegradedFrames + fs.ResidualFrames; total > 0 {
			fs.ReplayedFrameRatio = float64(fs.ReplayedFrames) / float64(total)
		}
		st.Fidelity = fs
	}
	if index != nil {
		searched := s.counters.Get("search_frames")
		executed := s.counters.Get("search_verified_frames")
		ratio := 0.0
		if searched > 0 {
			ratio = 1 - float64(executed)/float64(searched)
		}
		st.Index = &IndexStat{
			Dir: index.Dir(), Stats: index.TierStats(),
			Searches:         s.counters.Get("searches"),
			SearchFrames:     searched,
			VerifiedFrames:   s.counters.Get("search_verified_frames"),
			ResidualFrames:   s.counters.Get("search_residual_frames"),
			PrunedFrameRatio: ratio,
		}
	}
	// Per-query rows take their progress from the lane stats collected
	// with each source row — no result copying on the stats path.
	lanes := make(map[string]map[int]vqpy.LaneStat, len(s.order))
	for i, name := range s.order {
		row := &st.Sources[i]
		s.sources[name].stat(row)
		row.TicksLate = s.counters.Get("ticks_late:" + name)
		row.Breakers = s.cfg.Faults.BreakerStatsFor(name)
		byLane := make(map[int]vqpy.LaneStat, len(row.Lanes))
		for _, l := range row.Lanes {
			byLane[l.ID] = l
		}
		lanes[name] = byLane
	}
	for i := range st.Queries {
		qs := &st.Queries[i]
		if l, ok := lanes[qs.Source][qs.Lane]; ok {
			qs.Frames = l.Frames
			qs.VirtualMS = l.VirtualMS
			qs.Matched = l.Matched
		}
	}
	return st
}

// stat fills the source's own part of its /streamz row, read under its
// lock so feed counters, lanes and ledger belong to the same tick.
func (src *source) stat(row *SourceStat) {
	src.mu.Lock()
	defer src.mu.Unlock()
	row.Name, row.FPS, row.ClipFrames = src.name, src.video.FPS, len(src.video.Frames)
	row.FramesFed, row.Done = src.fed, src.done
	if src.feedErr != nil {
		row.FeedError = src.feedErr.Error()
	}
	row.Groups, row.GroupMembers = src.mux.Groups(), src.mux.GroupMembers()
	row.GroupStats, row.Lanes = src.mux.GroupStats(), src.mux.LaneStats()
	for _, g := range row.GroupStats {
		row.DegradedFrames += g.Degraded
	}
	row.VirtualMS = src.session.Clock().TotalMS()
	row.SyncInflight = src.syncInflight
	row.Stalls, row.Dropped = src.totalStalls, src.dropped
	row.Quarantined, row.Quarantines = src.quarantined, src.quarantines
}
