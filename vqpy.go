// Package vqpy is a Go implementation of VQPy, the video-object-oriented
// query system of "VQPy: An Object-Oriented Approach to Modern Video
// Analytics" (MLSys 2024).
//
// The public API mirrors the paper's three frontend constructs:
//
//   - VObj types declare the video objects of interest, their detection
//     models and their stateless / stateful / intrinsic properties
//     (NewVObj, the builders on VObjType, and the ready-made library
//     types Car, Bus, Person, Ball).
//   - Relations declare spatial or temporal relationships between VObjs
//     (NewRelation, DistanceRelation, PersonBallInteraction).
//   - Queries combine VObjs and Relations with frame- and video-level
//     constraints (NewQuery, predicates built from P/RP with And/Or/Not),
//     and compose into higher-order events (NewSpatialQuery,
//     NewDurationQuery, NewTemporalQuery; library shortcuts SpeedQuery,
//     CollisionQuery).
//
// A Session owns the model registry and virtual clock and executes query
// nodes over videos through the backend planner and engine:
//
//	s := vqpy.NewSession(42)
//	car := vqpy.Car()
//	q := vqpy.NewQuery("RedCar").Use("car", car).
//		Where(vqpy.And(
//			vqpy.P("car", vqpy.PropScore).Gt(0.6),
//			vqpy.P("car", "color").Eq("red"),
//		)).
//		FrameOutput(vqpy.Sel("car", vqpy.PropTrackID), vqpy.Sel("car", vqpy.PropBBox))
//	res, err := s.Execute(q, videoClip)
//
// Because this repository is an offline reproduction, videos come from
// the synthetic scenario generator (internal/video re-exported through
// the Scenario helpers here) and models from a simulated zoo; see
// DESIGN.md for the substitution map.
package vqpy

import (
	"vqpy/internal/core"
	"vqpy/internal/exec"
	"vqpy/internal/fault"
	"vqpy/internal/index"
	"vqpy/internal/models"
	"vqpy/internal/plan"
	"vqpy/internal/sim"
	"vqpy/internal/store"
	"vqpy/internal/video"
)

// Re-exported frontend types. These are aliases, so values flow freely
// between the facade and the internal packages.
type (
	// VObjType declares a type of video object (§3).
	VObjType = core.VObjType
	// Property declares a VObj property.
	Property = core.Property
	// PropInput is the context handed to property compute functions.
	PropInput = core.PropInput
	// RelationType declares a relation between VObj types.
	RelationType = core.RelationType
	// RelInput is the context handed to relation compute functions.
	RelInput = core.RelInput
	// Query is a basic query.
	Query = core.Query
	// QueryNode is any executable query (basic or higher-order).
	QueryNode = core.QueryNode
	// SpatialQuery / DurationQuery / TemporalQuery are the higher-order
	// combinators of §3.
	SpatialQuery = core.SpatialQuery
	// DurationQuery checks a condition holds for a minimum duration.
	DurationQuery = core.DurationQuery
	// TemporalQuery sequences two events within a window.
	TemporalQuery = core.TemporalQuery
	// Pred is a predicate tree.
	Pred = core.Pred
	// Selector names an output column.
	Selector = core.Selector
	// RunResult is the outcome of executing a query node.
	RunResult = plan.RunResult
	// Plan is a physical execution plan.
	Plan = exec.Plan
	// Event is a matched frame span.
	Event = exec.Event
	// Video is a frame sequence (synthetic in this reproduction).
	Video = video.Video
	// Scenario configures the synthetic video generator.
	Scenario = video.Scenario
	// FrameSource is the decode-once stream abstraction the shared-scan
	// engine reads from; *Video and ScenarioSource satisfy it.
	FrameSource = video.FrameSource
	// ScenarioSource adapts the scenario generator as a FrameSource.
	ScenarioSource = video.ScenarioSource
)

// Re-exported constructors and predicate builders.
var (
	// NewVObj declares a new VObj type.
	NewVObj = core.NewVObj
	// NewRelation declares a relation type.
	NewRelation = core.NewRelation
	// DistanceRelation is a ready-made centroid-distance relation.
	DistanceRelation = core.DistanceRelation
	// NewQuery declares a basic query.
	NewQuery = core.NewQuery
	// NewSpatialQuery / NewDurationQuery / NewTemporalQuery build
	// higher-order queries, enforcing composition rules 1-3.
	NewSpatialQuery  = core.NewSpatialQuery
	NewDurationQuery = core.NewDurationQuery
	NewTemporalQuery = core.NewTemporalQuery
	// P references an instance property; RP a relation property.
	P  = core.P
	RP = core.RP
	// And / Or / Not combine predicates (the paper's & | ¬).
	And = core.And
	Or  = core.Or
	Not = core.Not
	// Sel builds an output selector.
	Sel = core.Sel
	// SceneVObj returns the special scene VObj.
	SceneVObj = core.Scene
	// NewScenarioSource wraps a scenario as a FrameSource.
	NewScenarioSource = video.NewScenarioSource
)

// Built-in property names (see core documentation).
const (
	PropBBox     = core.PropBBox
	PropCenter   = core.PropCenter
	PropScore    = core.PropScore
	PropTrackID  = core.PropTrackID
	PropClass    = core.PropClass
	PropFrameIdx = core.PropFrameIdx
)

// Session owns the execution context: the model registry (the paper's
// library model zoo plus user registrations) and the virtual clock that
// accounts all simulated model work.
type Session struct {
	env      *models.Env
	registry *models.Registry
	faults   *fault.Injector
}

// NewSession creates a session with the built-in model zoo and a fresh
// virtual clock. The seed drives every stochastic component, making
// executions reproducible.
func NewSession(seed uint64) *Session {
	return &Session{
		env:      models.NewEnv(seed),
		registry: models.BuiltinRegistry(),
	}
}

// Registry exposes the model registry for custom registrations
// (Figure 11's register call).
func (s *Session) Registry() *models.Registry { return s.registry }

// Clock exposes the session's virtual-time ledger.
func (s *Session) Clock() *sim.Clock { return s.env.Clock }

// Env exposes the model environment (needed when driving models
// directly, e.g. in baselines).
func (s *Session) Env() *models.Env { return s.env }

// SetNoBurn disables proportional real CPU work (useful in unit tests;
// benchmarks should leave burning on so wall time mirrors virtual time).
func (s *Session) SetNoBurn(noBurn bool) { s.env.NoBurn = noBurn }

// SetFaults installs a deterministic fault injector on the session's
// serving paths (Serve, OpenShared, OpenStream): model calls gate
// through its schedule (absorbed by retry, then circuit breakers and
// graceful degradation; see internal/fault and DESIGN.md §9). The
// injector chains in front of any ChargeInterceptor already installed
// (a fleet batch scheduler), so call it after that wiring. A nil
// injector — or one with an empty schedule — leaves results
// bit-identical to a fault-free session (the no-op guarantee pinned by
// TestFaultInjectorNoop). Planner-driven paths (Execute, ExecuteAll,
// ExecuteShared, PlanQuery profiling) stay fault-free on purpose: plan
// selection must not depend on transient chaos.
func (s *Session) SetFaults(inj *fault.Injector) {
	s.faults = inj
	if inj != nil {
		inj.Wrap(s.env.Interceptor)
		s.env.Interceptor = inj
	}
}

// Faults returns the injector installed by SetFaults, or nil.
func (s *Session) Faults() *fault.Injector { return s.faults }

// Fork returns a session for work that runs beside this one: the same
// seed, real-time behaviour, model registry, fault injector and charge
// interceptor, but a fresh, empty clock — so a query executed on the
// fork reads its own exact cost (Result.VirtualMS is a clock delta)
// however much the parent charges meanwhile. Fold the fork's ledger
// back with s.Clock().Merge(fork.Clock()) when the work is done; the
// merged ledger equals having run the work on s.
func (s *Session) Fork() *Session {
	env := s.env.Fork()
	env.Interceptor = s.env.Interceptor
	return &Session{env: env, registry: s.registry, faults: s.faults}
}

// config collects per-execution options.
type config struct {
	planOpts plan.Options

	// eagerVerify makes Session.Text consult the open-vocabulary
	// verifier on every frame instead of lazily (text.go).
	eagerVerify bool
}

// Option customizes one Execute call.
type Option func(*config)

// WithAccuracyTarget sets the minimum canary F1 for optimized plans.
func WithAccuracyTarget(f float64) Option {
	return func(c *config) { c.planOpts.AccuracyTarget = f }
}

// WithCanaryFrames sets the profiling prefix length.
func WithCanaryFrames(n int) Option {
	return func(c *config) { c.planOpts.CanaryFrames = n }
}

// WithoutMemo disables intrinsic-property memoization (the vanilla VQPy
// configuration of §5.1).
func WithoutMemo() Option {
	return func(c *config) { c.planOpts.DisableMemo = true }
}

// WithoutFrameFilters disables registered frame filters (the EVA-fair
// configuration of §5.2).
func WithoutFrameFilters() Option {
	return func(c *config) { c.planOpts.DisableFrameFilters = true }
}

// WithoutSpecialized disables registered specialized NNs.
func WithoutSpecialized() Option {
	return func(c *config) { c.planOpts.DisableSpecialized = true }
}

// WithoutFusion disables operator fusion.
func WithoutFusion() Option {
	return func(c *config) { c.planOpts.DisableFusion = true }
}

// WithoutLazy disables lazy property evaluation (ablation: all
// properties are computed before any filtering).
func WithoutLazy() Option {
	return func(c *config) { c.planOpts.DisableLazy = true }
}

// WithSharedCache enables query-level computation reuse across Execute
// calls sharing the cache (§4.2, §5.3's VQPy-Opt).
func WithSharedCache(cache *exec.SharedCache) Option {
	return func(c *config) { c.planOpts.Cache = cache }
}

// WithPlanCache reuses previously profiled plan selections.
func WithPlanCache(pc *plan.PlanCache) Option {
	return func(c *config) { c.planOpts.PlanCache = pc }
}

// WithEdgePlacement enables §4.1 operator placement: pre-detector
// operators (frame filters, the scene path) run on the edge device and
// every frame surviving them is charged uplinkMS of transfer cost. Per-
// device subtotals appear in the clock ledger as device:edge /
// device:server / net:uplink.
func WithEdgePlacement(uplinkMS float64) Option {
	return func(c *config) { c.planOpts.EdgeUplinkMS = uplinkMS }
}

// WithResultCache materializes whole query results keyed by query
// structure and video identity (§4.2): a repeated Execute of the same
// query on the same video returns the stored result without touching a
// single frame.
func WithResultCache(rc *plan.ResultCache) Option {
	return func(c *config) { c.planOpts.ResultCache = rc }
}

// WithStore enables the tiered persistent result store: detector
// outputs, shared-scan track ids and evaluated VObj property values are
// consulted before any model runs (a hit costs zero virtual time) and
// persisted on miss — so a second pass over the same source, even in a
// new process, replays archived results instead of recomputing them
// (DESIGN.md §7). Open one with OpenStore using the session's seed;
// records from a different seed are invalid and refused at open.
func WithStore(st *Store) Option {
	return func(c *config) { c.planOpts.Store = st }
}

// Store is the tiered persistent result store (in-memory LRU over an
// on-disk archive); see internal/store and DESIGN.md §7.
type Store = store.Store

// StoreStats summarizes a store's tiers (Store.TierStats).
type StoreStats = store.Stats

// OpenStore opens (creating if needed) a persistent result store rooted
// at dir for sessions seeded with seed. A directory written under a
// different seed or store format version is invalidated rather than
// served — its records would not match what live models compute.
func OpenStore(dir string, seed uint64) (*Store, error) {
	return store.Open(dir, store.Meta{Seed: seed}, store.Options{})
}

// OpenStoreOptions is OpenStore with an explicit hot-tier capacity
// (records held in memory per record kind before LRU eviction to the
// disk tier); memRecords <= 0 uses the store default.
func OpenStoreOptions(dir string, seed uint64, memRecords int) (*Store, error) {
	return store.Open(dir, store.Meta{Seed: seed}, store.Options{MemRecords: memRecords})
}

// OpenStoreWithFaults is OpenStore with the store's I/O paths routed
// through a fault injector: writes consult inj.StoreWriteFault (a
// failure degrades that tier to memory-only) and disk reads consult
// inj.StoreReadFault (a failure serves the read as a miss, forcing a
// recompute). A nil injector behaves exactly like OpenStore.
func OpenStoreWithFaults(dir string, seed uint64, inj *FaultInjector) (*Store, error) {
	opts := store.Options{}
	if inj != nil {
		opts.WriteFault = inj.StoreWriteFault
		opts.ReadFault = inj.StoreReadFault
	}
	return store.Open(dir, store.Meta{Seed: seed}, opts)
}

// Archive-scale appearance search (internal/index, DESIGN.md §10): an
// on-disk ANN-style index over per-track appearance embeddings
// extracted from a store's archived records. Searches probe it for
// candidate tracks and verify only the frames they span — sub-linear in
// archive length — falling back to a full rescan of any uncovered
// residual range, with results bit-identical to the full scan either
// way.
type (
	// Index is the persistent appearance index.
	Index = index.Index
	// IndexStats summarizes an index (Index.TierStats).
	IndexStats = index.Stats
	// IndexExtractStats reports one IndexArchive extraction pass.
	IndexExtractStats = index.ExtractStats
	// SearchSpec parameterizes Session.Search.
	SearchSpec = plan.SearchSpec
	// SearchResult is the outcome of Session.Search.
	SearchResult = plan.SearchResult
)

// OpenIndex opens (creating if needed) an appearance index rooted at
// dir for sessions seeded with seed. Like the store, an index written
// under a different seed — or a different index format or model-zoo
// version — is invalidated rather than served: its embeddings would not
// match what live models compute.
func OpenIndex(dir string, seed uint64) (*Index, error) {
	return index.Open(dir, index.Meta{
		Version: index.FormatVersion, Seed: seed,
		ZooVersion: models.ZooVersion, Embedder: "fleet_reid",
	})
}

// WithIndex makes the appearance index available to Search (and any
// other planner path that can use it as an access path). Requires
// WithStore on the same call: the index accelerates queries over the
// archive, it is never a source of truth.
func WithIndex(x *Index) Option {
	return func(c *config) { c.planOpts.Index = x }
}

// Search answers an appearance search over src: which archived tracks
// of spec.Query's class look like the exemplar (spec.Feature, or the
// stored embedding of spec.Track), and on which frames do they satisfy
// the query? With WithIndex the probe-then-verify fast path runs where
// index coverage allows; without it (or where coverage ends) the full
// rescan runs. Results are bit-identical either way — only cost
// differs. Requires WithStore.
func (s *Session) Search(src FrameSource, spec SearchSpec, opts ...Option) (*SearchResult, error) {
	pl, _, err := s.planner(opts...)
	if err != nil {
		return nil, err
	}
	return pl.Search(src, spec)
}

// IndexArchive incrementally extracts the appearance index from the
// archived records of q's scan group, walking frames [covered, upto)
// (upto <= 0 means the whole source). Each distinct track is embedded
// exactly once, at its first archived sighting, charged on the session
// clock; later passes resume from the coverage watermark. Requires
// WithStore; a store read fault stops the watermark at the failing
// frame (counter index_faulted_reads), leaving that range to Search's
// full-rescan fallback.
func (s *Session) IndexArchive(x *Index, q *Query, src FrameSource, upto int, opts ...Option) (IndexExtractStats, error) {
	pl, _, err := s.planner(opts...)
	if err != nil {
		return IndexExtractStats{}, err
	}
	return pl.IndexArchive(x, q, src, upto, nil)
}

// WarmSearchArchive runs q's search pipeline over frames [0, upto)
// with the store bound, building archive coverage under the search
// scan signature — the cold-start ingest before IndexArchive when the
// clip was never executed store-backed (or only under a memoizing
// plan, whose signature differs). Already-archived frames replay at
// near-zero model cost, so warming is idempotent. upto <= 0 warms the
// whole clip. Requires WithStore.
func (s *Session) WarmSearchArchive(q *Query, src FrameSource, upto int, opts ...Option) error {
	pl, _, err := s.planner(opts...)
	if err != nil {
		return err
	}
	return pl.WarmSearchArchive(q, src, upto)
}

// Multi-fidelity archives and fidelity-aware planning (DESIGN.md §12):
// a source can be archived at several points of the (frame stride ×
// resolution tier × detector tier) lattice, and a query that declares
// an accuracy floor is answered from the cheapest archived fidelity
// meeting it, live-scanning only the uncovered residual.
type (
	// Fidelity is one scan config of the lattice.
	Fidelity = video.Fidelity
	// ResTier is a decode resolution tier.
	ResTier = video.ResTier
	// FidelityEntry is one archived fidelity in a store's manifest.
	FidelityEntry = store.FidelityEntry
	// FidelityCandidate is one priced way of answering a query.
	FidelityCandidate = plan.FidelityCandidate
	// FidelityDecision records one fidelity planning outcome.
	FidelityDecision = plan.FidelityDecision
	// FidelityResult is the outcome of ExecuteFidelity.
	FidelityResult = plan.FidelityResult
)

// Resolution tiers, full to quarter.
const (
	ResFull    = video.ResFull
	ResHalf    = video.ResHalf
	ResQuarter = video.ResQuarter
)

// FidelityLattice returns the built-in scan-config lattice for a
// query whose full-fidelity detector is fullDetector (models.
// FidelityLattice): full fidelity first, then progressively cheaper
// stride/resolution/detector tiers.
var FidelityLattice = models.FidelityLattice

// WithMinAccuracy declares the query's accuracy floor for fidelity-
// aware planning: ExecuteFidelity may answer from any archived
// fidelity whose calibrated effective accuracy is at least a. Leaving
// it unset (or setting 1) demands exact answers, which only the live
// full-fidelity path provides — fidelity serving is opt-in per query.
func WithMinAccuracy(a float64) Option {
	return func(c *config) { c.planOpts.MinAccuracy = a }
}

// ArchiveFidelity scans frames [0, upto) of src at fidelity fid
// (stride-aligned frames only), archives the tier's records under a
// fidelity-decorated scan signature, calibrates the tier's accuracy
// against ground truth and records it in the store's fidelity
// manifest. upto <= 0 archives the whole source; re-archiving is
// idempotent. Requires WithStore.
func (s *Session) ArchiveFidelity(q *Query, src FrameSource, fid Fidelity, upto int, opts ...Option) (FidelityEntry, error) {
	pl, _, err := s.planner(opts...)
	if err != nil {
		return FidelityEntry{}, err
	}
	return pl.ArchiveFidelity(q, src, fid, upto)
}

// PlanFidelity prices every way of answering q over [0, frames) — the
// live full-fidelity scan plus each readable archived fidelity — and
// returns the decision without executing it. Requires WithStore.
func (s *Session) PlanFidelity(q *Query, src FrameSource, frames int, opts ...Option) (*FidelityDecision, error) {
	pl, _, err := s.planner(opts...)
	if err != nil {
		return nil, err
	}
	d, _, err := pl.PlanFidelity(q, src, frames)
	return d, err
}

// ExecuteFidelity answers q over frames [0, frames) under the accuracy
// floor declared with WithMinAccuracy: the planner picks the cheapest
// archived fidelity meeting the floor (falling back live past
// unreadable tiers) and replays it, scanning only the uncovered
// residual at full fidelity. frames <= 0 means the whole source.
// Requires WithStore.
func (s *Session) ExecuteFidelity(q *Query, src FrameSource, frames int, opts ...Option) (*FidelityResult, error) {
	pl, _, err := s.planner(opts...)
	if err != nil {
		return nil, err
	}
	return pl.RunFidelity(q, src, frames)
}

// Deterministic fault injection (internal/fault, DESIGN.md §9): a
// FaultSchedule of FaultRules drives a seeded FaultInjector installed
// with Session.SetFaults and wired into a store via
// OpenStoreWithFaults.
type (
	// FaultInjector is the deterministic, seeded fault injector.
	FaultInjector = fault.Injector
	// FaultSchedule is a reproducible fault schedule.
	FaultSchedule = fault.Schedule
	// FaultRule is one fault-injection rule of a schedule.
	FaultRule = fault.Rule
	// FaultKind enumerates the injectable fault classes.
	FaultKind = fault.Kind
)

// Injectable fault classes (see fault.Kind).
const (
	FaultModelError   = fault.KindModelError
	FaultModelTimeout = fault.KindModelTimeout
	FaultStoreWrite   = fault.KindStoreWrite
	FaultStoreRead    = fault.KindStoreRead
	FaultSourceStall  = fault.KindSourceStall
	FaultSourceDrop   = fault.KindSourceDrop
)

// NewFaultInjector builds an injector from a schedule.
var NewFaultInjector = fault.New

// NewSharedCache creates a cache for WithSharedCache.
func NewSharedCache() *exec.SharedCache { return exec.NewSharedCache() }

// NewPlanCache creates a cache for WithPlanCache.
func NewPlanCache() *plan.PlanCache { return plan.NewPlanCache() }

// NewResultCache creates a cache for WithResultCache.
func NewResultCache() *plan.ResultCache { return plan.NewResultCache() }

func (s *Session) planner(opts ...Option) (*plan.Planner, *config, error) {
	cfg := &config{planOpts: plan.Options{Env: s.env, Registry: s.registry}}
	for _, o := range opts {
		o(cfg)
	}
	cfg.planOpts.Env = s.env
	cfg.planOpts.Registry = s.registry
	pl, err := plan.NewPlanner(cfg.planOpts)
	return pl, cfg, err
}

// executor builds the executor of the streaming entry points (OpenShared,
// Serve, OpenStream): the session's env and registry, the caller's
// WithSharedCache cache if any, and the SetFaults injector — the one
// place faults reach execution, since planner-driven paths build their
// own fault-free executors (see SetFaults).
func (s *Session) executor(cfg *config) (*exec.Executor, error) {
	return exec.NewExecutor(exec.Options{Env: s.env, Registry: s.registry, Cache: cfg.planOpts.Cache, Faults: s.faults})
}

// Execute plans and runs a query node over a video.
func (s *Session) Execute(node QueryNode, v *Video, opts ...Option) (*RunResult, error) {
	pl, _, err := s.planner(opts...)
	if err != nil {
		return nil, err
	}
	return pl.Run(node, v)
}

// ExecuteAll plans and runs several query nodes over one video on a
// worker pool, sharing one cross-query cache (§4.2's reuse turned into
// wall-clock speedup: the serving mode for many concurrent queries on
// the same stream). workers <= 1 runs sequentially, workers <= 0 uses
// GOMAXPROCS. Results align positionally with nodes and are identical
// to sequential execution; per-worker virtual clocks are merged into
// the session ledger.
func (s *Session) ExecuteAll(nodes []QueryNode, v *Video, workers int, opts ...Option) ([]*RunResult, error) {
	pl, _, err := s.planner(opts...)
	if err != nil {
		return nil, err
	}
	return pl.RunAll(nodes, v, workers)
}

// ExecuteShared plans and runs several query nodes over one frame
// source in a single shared pass: every node compiles to the unified
// operator IR, the cross-query dedup pass merges structurally identical
// scan prefixes (same frame-filter chain and detector over the same
// source), and the MuxStream layer decodes each frame exactly once,
// running each shared detect/track group once per frame and fanning the
// results out to per-query operators. Results align positionally with
// nodes and are identical to sequential per-query execution; shared
// scan costs are split across the queries riding them in the ledger.
func (s *Session) ExecuteShared(nodes []QueryNode, src FrameSource, opts ...Option) ([]*RunResult, error) {
	pl, _, err := s.planner(opts...)
	if err != nil {
		return nil, err
	}
	return pl.RunShared(nodes, src)
}

// OpenShared plans several basic queries (profiling on the optional
// canary video) and returns a MuxStream to Feed frames into — the
// streaming flavour of ExecuteShared, for live multi-query serving on
// one camera. fps annotates the per-query results.
func (s *Session) OpenShared(qs []*Query, canary *Video, fps int, opts ...Option) (*MuxStream, error) {
	pl, cfg, err := s.planner(opts...)
	if err != nil {
		return nil, err
	}
	plans := make([]*exec.Plan, len(qs))
	for i, q := range qs {
		p, _, err := pl.PlanBasic(q, canary)
		if err != nil {
			return nil, err
		}
		plans[i] = p
	}
	// A WithSharedCache cache reaches the mux so several streams (e.g.
	// one per camera) can share detection work; OpenMux creates a
	// stream-private cache otherwise.
	ex, err := s.executor(cfg)
	if err != nil {
		return nil, err
	}
	m, err := ex.OpenMux(plans, fps)
	if err != nil {
		return nil, err
	}
	// A WithStore store is keyed by the canary video's name: the canary
	// doubles as the stream's source on this path (examples feed its
	// frames), giving scan groups persistence and AttachQueryBackfill a
	// frame source to replay.
	if cfg.planOpts.Store != nil && canary != nil {
		m.BindStore(cfg.planOpts.Store, canary)
	}
	return m, nil
}

// Serve opens an empty dynamic MuxStream for live serving: queries come
// and go through AttachQuery / MuxStream.Detach while frames keep
// flowing. Feeding with no queries attached is legal and does no model
// work, so a serving daemon can start the frame ticker before the first
// query registers. fps annotates per-query results.
func (s *Session) Serve(fps int, opts ...Option) (*MuxStream, error) {
	_, cfg, err := s.planner(opts...)
	if err != nil {
		return nil, err
	}
	ex, err := s.executor(cfg)
	if err != nil {
		return nil, err
	}
	return ex.OpenDynamicMux(fps), nil
}

// PlanQuery plans a basic query (profiling on the optional canary
// video) and guarantees a per-frame cost estimate: single-candidate
// plans skip selection profiling, so they are profiled explicitly here.
// This is the planning half of AttachQuery — the serving layer calls it
// separately when it must make an admission decision (Plan.EstPerFrameMS
// against the budget) before creating any lane state.
func (s *Session) PlanQuery(q *Query, canary *Video, opts ...Option) (*Plan, error) {
	pl, _, err := s.planner(opts...)
	if err != nil {
		return nil, err
	}
	p, _, err := pl.PlanBasic(q, canary)
	if err != nil {
		return nil, err
	}
	if canary != nil && p.EstPerFrameMS == 0 {
		if err := pl.ProfileCost(p, canary); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// AttachQuery plans a basic query (profiling on the optional canary
// video) and attaches it to a running MuxStream mid-stream: the query
// joins an existing scan group when its scan prefix matches one
// (warm-starting from the group's shared tracker state) or spins up a
// new group. It returns the lane id (pass it to MuxStream.Detach /
// MuxStream.Snapshot) and the selected physical plan, whose EstCostMS
// the serving layer uses for admission control.
func (s *Session) AttachQuery(m *MuxStream, q *Query, canary *Video, opts ...Option) (int, *Plan, error) {
	p, err := s.PlanQuery(q, canary, opts...)
	if err != nil {
		return 0, nil, err
	}
	id, err := m.Attach(p)
	if err != nil {
		return 0, nil, err
	}
	return id, p, nil
}

// AttachQueryBackfill is AttachQuery with history: after planning, the
// query is attached through MuxStream.AttachBackfill, which replays it
// over every frame the stream already scanned using the bound store's
// archived scan output — so its result is bit-identical to having been
// attached at frame zero. The stream must have a store and frame source
// bound (Session.OpenShared with WithStore, or MuxStream.BindStore) and
// the store must cover the already-scanned frames; otherwise the attach
// fails without perturbing the stream.
func (s *Session) AttachQueryBackfill(m *MuxStream, q *Query, canary *Video, opts ...Option) (int, *Plan, error) {
	p, err := s.PlanQuery(q, canary, opts...)
	if err != nil {
		return 0, nil, err
	}
	id, err := m.AttachBackfill(p)
	if err != nil {
		return 0, nil, err
	}
	return id, p, nil
}

// SetOffloadLatency models accelerator-offloaded inference: every
// charged virtual millisecond makes the charging goroutine sleep
// nsPerVirtualMS nanoseconds instead of spinning the CPU. Concurrent
// queries overlap these waits like a real serving system overlaps
// device inference, so ExecuteAll benchmarks show genuine wall-clock
// speedup even on a single core. 0 restores the default burn behaviour.
func (s *Session) SetOffloadLatency(nsPerVirtualMS float64) {
	s.env.OffloadNSPerMS = nsPerVirtualMS
}

// Stream is an incremental execution over frames arriving in real time
// (§4.1's streaming mode); Verdict is its per-frame outcome.
type (
	Stream  = exec.Stream
	Verdict = exec.Verdict
	// MuxStream is the shared-scan multiplexer returned by OpenShared
	// and Serve; Attach/Detach change its query set while it runs.
	MuxStream = exec.MuxStream
	// Result is the raw per-query execution result the streaming paths
	// return (Stream.Close, MuxStream.Close/Detach/Snapshot).
	Result = exec.Result
	// LaneStat is one live query lane's accounting on a MuxStream.
	LaneStat = exec.LaneStat
	// GroupStat is one live scan group's accounting on a MuxStream.
	GroupStat = exec.GroupStat
)

// OpenStream plans a basic query (profiling on the optional canary
// video) and returns a Stream to Feed frames into. fps annotates the
// final result for duration/window conversion.
func (s *Session) OpenStream(q *Query, canary *Video, fps int, opts ...Option) (*Stream, error) {
	pl, cfg, err := s.planner(opts...)
	if err != nil {
		return nil, err
	}
	p, _, err := pl.PlanBasic(q, canary)
	if err != nil {
		return nil, err
	}
	ex, err := s.executor(cfg)
	if err != nil {
		return nil, err
	}
	return ex.OpenStream(p, fps)
}

// Explain returns the selected plan and all profiled candidates for a
// basic query without executing it in full.
func (s *Session) Explain(q *Query, v *Video, opts ...Option) (*Plan, []*Plan, error) {
	pl, _, err := s.planner(opts...)
	if err != nil {
		return nil, nil, err
	}
	return pl.PlanBasic(q, v)
}
