package exec

// MuxStream is the physical shared-scan layer of the single-pass engine:
// one frame stream, many queries. Where plan.RunAll runs N query streams
// that each scan the whole video (sharing only model outputs through the
// cache), a MuxStream pulls every frame from its FrameSource exactly
// once, runs each distinct scan prefix — frame-filter chain, detector,
// tracker — exactly once per frame, and fans the shared detect/track
// results out to per-query predicate/property/output operators. An
// 8-query workload thus does 1 scan + 1 detect/track per (model, frame)
// instead of 8, with per-query results identical to sequential
// execution: model outputs are pure functions of (seed, model, frame,
// object), and a shared tracker fed the same class-filtered detection
// sequence assigns the same track ids as each query's private tracker
// would.
//
// Plans are grouped by ScanSig: the ordered frame-filter chain plus the
// first detect model. Frame filters participate in the signature because
// a tracker's state depends on exactly which frames reach it — two
// queries whose filters drop different frames must not share a tracker.
// Within a group, one tracker runs per bound class. Everything after the
// first track step (projections, filters, relations, second detectors)
// stays per-lane, executed by the ordinary operator machinery over the
// lane's private runState.
//
// The query set is dynamic: Attach admits a new plan mid-stream (joining
// an existing scan group when its prefix matches, warm-starting from the
// group's shared tracker state) and Detach finalizes and removes a lane,
// tearing down its class tracker and group when it was the last user.
// Neither operation perturbs sibling lanes: a lane present for the whole
// stream produces results bit-identical to a fresh stream of the
// surviving set, because shared trackers see the same class-filtered
// detection sequence regardless of who else rides the group.

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"vqpy/internal/models"
	"vqpy/internal/store"
	"vqpy/internal/track"
	"vqpy/internal/video"
)

// ScanSig describes the shareable scan prefix of a physical plan. Plans
// with equal Key() over the same source are served by one shared
// filter/detect/track operator set.
type ScanSig struct {
	// Filters is the ordered frame-filter model chain before the first
	// detector.
	Filters []string
	// Detect / Class / Instance describe the first detect+track pair.
	Detect   string
	Class    video.Class
	Instance string
	// Shareable reports whether the plan has the canonical prefix shape.
	// Non-shareable plans (scene-first, device-placed, multi-bind) run
	// whole inside their lane.
	Shareable bool

	// Suffix decorates the signature for non-default scan fidelities
	// (Plan.ScanSuffix): archives written at different fidelities of the
	// same prefix must key to disjoint scan groups, or a replay would
	// serve tier-B records to a tier-A query.
	Suffix string

	residual []Step
}

// Key identifies the shared scan group: source-side operators only, so
// two queries binding different classes of the same detector still land
// in one group (one detector run, one tracker per class).
func (s ScanSig) Key() string {
	key := strings.Join(s.Filters, ",") + "|" + s.Detect
	if s.Suffix != "" {
		key += "@" + s.Suffix
	}
	return key
}

// ScanPrefixOf extracts the shareable scan prefix of a plan: leading
// frame filters followed by the first single-bind detect+track pair.
// Plans with edge placement keep their per-query path (uplink accounting
// is defined per query stream), as do plans whose first operator is not
// part of the canonical prefix (e.g. a scene path that drops frames
// before the detector).
func ScanPrefixOf(p *Plan) ScanSig {
	var sig ScanSig
	if p.UplinkMS > 0 {
		return sig
	}
	steps := p.Steps
	i := 0
	for i < len(steps) && steps[i].Kind == StepFrameFilter {
		sig.Filters = append(sig.Filters, steps[i].FilterModel)
		i++
	}
	if i+1 < len(steps) && steps[i].Kind == StepDetect && len(steps[i].Binds) == 1 &&
		steps[i+1].Kind == StepTrack && steps[i+1].Instance == steps[i].Binds[0].Instance {
		sig.Detect = steps[i].DetectModel
		sig.Class = steps[i].Binds[0].Class
		sig.Instance = steps[i].Binds[0].Instance
		sig.Shareable = true
		sig.Suffix = p.ScanSuffix
		sig.residual = steps[i+2:]
	}
	return sig
}

// sharedTrack is one class's tracker within a scan group, plus its
// per-frame output (class-filtered detections and their track ids).
type sharedTrack struct {
	tracker *track.Tracker
	dets    []track.Detection
	ids     []int
	upBuf   []track.Detection
	// refs counts the lanes bound to this class; the tracker is torn
	// down when the last one detaches.
	refs int
	// bornAt is the stream position (frames fed) at tracker creation; 0
	// means from-zero semantics, which is what makes a store backfill's
	// historical ids consistent with the live ids this tracker assigns.
	bornAt int
	// pending lists frame indices whose scan was served from the store
	// (ids applied without running this tracker), in feed order. Before
	// the tracker next runs live it must catch up by replaying these
	// frames' class detections (re-read from the store), restoring the
	// state a continuous run would have.
	pending []int
}

// muxGroup owns the shared scan state for one ScanSig: the frame-filter
// instances (stateful filters cloned once per group, as per stream on
// the per-query path) and one tracker per bound class.
type muxGroup struct {
	id          int
	key         string
	filters     []string
	detect      string
	filterInsts map[string]models.BinaryFilter
	tracks      map[video.Class]*sharedTrack
	classes     []video.Class // deterministic iteration order
	members     int

	dropped   bool    // current frame dropped by the filter chain
	frameMS   float64 // shared scan cost of the current frame
	virtualMS float64

	// degradedBy is the current frame's degradation provenance ("" =
	// healthy): the fallback detector that answered, or
	// DegradedUnavailable when the scan carried tracker state forward.
	// degraded counts degraded frames over the group's lifetime.
	degradedBy string
	degraded   int

	// statefulFilters reports whether any filter model carries per-frame
	// state (models.Cloner). Stateless chains need no catch-up when the
	// store serves frames the filters never saw.
	statefulFilters bool
	// filterPos is the frame index the filter chain expects next: state
	// is synced through filterPos-1. -1 until the chain first runs.
	// Store-served frames leave it behind; catchUpFilters replays the
	// gap before the chain runs live again.
	filterPos int
}

// MuxStream multiplexes several query plans over one frame stream. Like
// Stream it processes frames on one goroutine at a time, but all methods
// are guarded by an internal mutex so queries can be attached and
// detached concurrently with Feed — the live serving mode. Feed frames
// in capture order, read the per-lane verdicts, Close for the aggregate
// results of the lanes still attached (in attach order).
type MuxStream struct {
	mu        sync.Mutex
	e         *Executor
	lanes     []*lane
	byID      map[int]*lane
	groups    []*muxGroup
	byKey     map[string]*muxGroup
	nextLane  int
	nextGroup int
	fps       int
	framesFed int
	lastFed   int // highest frame index fed so far (-1 before the first)
	closed    bool
	// archiveOff puts the scan archive off limits both ways — no frame is
	// served from it, none persisted to it. Set when a looping source
	// wraps (see Feed) and by a fidelity replay ahead of its residual.
	archiveOff bool

	// store / source / src are set by BindStore: the persistent result
	// store scan groups consult before doing model work (and populate on
	// miss), the stream name records are keyed under, and the frame
	// source backing the stream (needed by AttachBackfill replays and by
	// stateful-filter catch-up after store-served frames).
	store  *store.Store
	source string
	src    video.FrameSource
	// classBuf is the reusable buffer archived frames are class-sliced
	// into before conversion to live detections (archivedClass).
	classBuf []store.Detection
}

// OpenDynamicMux prepares an empty shared-scan stream for live serving:
// queries arrive later through Attach. Feeding frames with no lanes
// attached is legal and does no model work. The stream shares the
// executor's cache (one is created when the executor has none: the mux
// relies on it to deduplicate detector and classifier work that stays
// per-lane).
func (e *Executor) OpenDynamicMux(fps int) *MuxStream {
	opts := e.opts
	if opts.Cache == nil {
		opts.Cache = NewSharedCache()
	}
	m := &MuxStream{
		e:       &Executor{opts: opts},
		fps:     fps,
		byID:    make(map[int]*lane),
		byKey:   make(map[string]*muxGroup),
		lastFed: -1,
	}
	if opts.Store != nil && opts.StoreSource != "" {
		m.store = opts.Store
		m.source = opts.StoreSource
	}
	return m
}

// BindStore attaches a persistent result store to the stream: scan
// groups consult it before running filters, detectors or trackers (a hit
// serves the frame at zero model cost) and populate it on miss, and
// AttachBackfill can replay a joining query over already-scanned frames.
// src is the frame source backing the stream; it may be nil when frames
// are pushed from elsewhere, at the price of backfill and of stateful
// frame-filter catch-up being unavailable. Bind before the first Feed —
// records are keyed by src.SourceName().
func (m *MuxStream) BindStore(st *store.Store, src video.FrameSource) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.store = st
	m.src = src
	if src != nil {
		m.source = src.SourceName()
	}
	m.e.opts.Store = st
	m.e.opts.StoreSource = m.source
}

// BindSource names the stream's frame source without attaching a store,
// so per-source failure-domain state (the circuit breakers keyed by
// (model, source)) stays separated across cameras in storeless serving.
// A no-op for a nil source; BindStore supersedes it.
func (m *MuxStream) BindSource(src video.FrameSource) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if src == nil || m.store != nil {
		return
	}
	m.src = src
	m.source = src.SourceName()
	m.e.opts.StoreSource = m.source
}

// OpenMux validates every plan and prepares the shared-scan state for a
// fixed initial query set. The set can still change afterwards through
// Attach and Detach.
func (e *Executor) OpenMux(plans []*Plan, fps int) (*MuxStream, error) {
	if len(plans) == 0 {
		return nil, fmt.Errorf("exec: OpenMux with no plans")
	}
	m := e.OpenDynamicMux(fps)
	for _, p := range plans {
		if _, err := m.Attach(p); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// Attach admits one more plan onto the running stream and returns its
// lane id. A plan whose scan prefix matches an existing group joins it
// mid-stream: its lane is warm-started from the group's shared tracker
// state (it observes the track ids the group has already assigned), so
// attaching never resets or perturbs sibling lanes. A prefix with no
// group — or a new class under an existing group — spins up fresh shared
// state that starts cold at the current frame.
func (m *MuxStream) Attach(p *Plan) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return 0, fmt.Errorf("exec: Attach on closed mux stream")
	}
	l, err := m.attachLocked(p)
	if err != nil {
		return 0, err
	}
	return l.id, nil
}

// AttachBackfill admits a plan like Attach and then replays it over
// every frame the stream already scanned, reading the archived per-frame
// scan output from the bound store — so the lane's result is
// bit-identical to having been attached at frame zero (the crosscheck
// against a fresh OpenShared of the same set is a test invariant).
// Historical detector, filter and tracker outputs are applied, not
// recomputed; only the lane's residual operators (properties behind the
// label store, predicates, aggregation) run, in frame order, exactly as
// Feed would have run them.
//
// Requirements: a store and frame source are bound (BindStore), the
// stream has not wrapped a looping source, the store covers every
// already-scanned frame of the plan's scan group, and the group's class
// tracker — when it predates this attach — has from-zero semantics
// (bornAt 0), since a tracker cold-started mid-stream assigns ids a
// from-zero replay could not match. On any failure the attach is rolled
// back and the stream is left exactly as it was.
func (m *MuxStream) AttachBackfill(p *Plan) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return 0, fmt.Errorf("exec: AttachBackfill on closed mux stream")
	}
	if m.store == nil || m.src == nil {
		return 0, fmt.Errorf("exec: AttachBackfill requires a bound store and frame source (MuxStream.BindStore)")
	}
	n := m.framesFed
	if m.archiveOff || n > m.src.NumFrames() {
		return 0, fmt.Errorf("exec: AttachBackfill after the stream wrapped its %d-frame source (%d frames fed): history is ambiguous", m.src.NumFrames(), n)
	}
	// Fail fast, before any lane state exists, when the archive cannot
	// possibly cover the replay (the replay still verifies per frame).
	if sig := ScanPrefixOf(p); sig.Shareable && n > 0 && !m.store.Scans(m.source, sig.Key(), sig.Detect).Covers(n) {
		return 0, fmt.Errorf("exec: store does not cover the %d already-scanned frames of scan group %q; cannot backfill", n, sig.Key())
	}
	l, err := m.attachLocked(p)
	if err != nil {
		return 0, err
	}
	if n == 0 {
		l.backfilled = true
		return l.id, nil
	}
	if err := m.backfill(l, n); err != nil {
		m.detachLocked(l)
		return 0, err
	}
	return l.id, nil
}

// attachLocked admits one plan, returning its lane. Callers hold m.mu.
func (m *MuxStream) attachLocked(p *Plan) (*lane, error) {
	nl, err := newLane(p, m.fps, m.framesFed)
	if err != nil {
		return nil, err
	}
	l := &nl
	l.id = m.nextLane
	m.nextLane++
	if sig := ScanPrefixOf(p); sig.Shareable {
		l.sig = sig
		key := sig.Key()
		g, ok := m.byKey[key]
		if !ok {
			g = &muxGroup{
				id: m.nextGroup, key: key, filters: sig.Filters, detect: sig.Detect,
				filterInsts: make(map[string]models.BinaryFilter),
				tracks:      make(map[video.Class]*sharedTrack),
				filterPos:   -1,
			}
			for _, fm := range sig.Filters {
				if fmod, found := m.e.opts.Registry.Get(fm); found {
					if _, stateful := fmod.(models.Cloner); stateful {
						g.statefulFilters = true
					}
				}
			}
			m.nextGroup++
			m.byKey[key] = g
			m.groups = append(m.groups, g)
		}
		st, ok := g.tracks[sig.Class]
		if !ok {
			st = &sharedTrack{tracker: track.NewTracker(track.DefaultConfig()), bornAt: m.framesFed}
			g.tracks[sig.Class] = st
			g.classes = append(g.classes, sig.Class)
		}
		st.refs++
		g.members++
		l.group = g
		residual := *p
		residual.Steps = sig.residual
		l.runPlan = &residual
	}
	m.lanes = append(m.lanes, l)
	m.byID[l.id] = l
	return l, nil
}

// Detach finalizes and removes one lane, returning its accumulated
// result. The lane's class tracker is torn down when no other lane binds
// the class, and its group when it was the last member — sibling lanes
// keep their shared state untouched, so their results stay bit-identical
// to a stream that never saw the detached query.
func (m *MuxStream) Detach(id int) (*Result, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, fmt.Errorf("exec: Detach on closed mux stream")
	}
	l, ok := m.byID[id]
	if !ok {
		return nil, fmt.Errorf("exec: Detach of unknown lane %d", id)
	}
	m.detachLocked(l)
	l.aggregate(l.res)
	return l.res, nil
}

// detachLocked removes one lane and tears down shared state it was the
// last user of. Callers hold m.mu.
func (m *MuxStream) detachLocked(l *lane) {
	delete(m.byID, l.id)
	for i, cand := range m.lanes {
		if cand == l {
			m.lanes = append(m.lanes[:i], m.lanes[i+1:]...)
			break
		}
	}
	if g := l.group; g != nil {
		g.members--
		if st := g.tracks[l.sig.Class]; st != nil {
			st.refs--
			if st.refs == 0 {
				delete(g.tracks, l.sig.Class)
				for i, c := range g.classes {
					if c == l.sig.Class {
						g.classes = append(g.classes[:i], g.classes[i+1:]...)
						break
					}
				}
			}
		}
		if g.members == 0 {
			delete(m.byKey, g.key)
			for i, cand := range m.groups {
				if cand == g {
					m.groups = append(m.groups[:i], m.groups[i+1:]...)
					break
				}
			}
		}
	}
}

// Groups reports the shared-scan structure: for each group, its filter
// chain, detector, tracked classes and member count (explain tooling).
func (m *MuxStream) Groups() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.groups))
	for _, g := range m.groups {
		classes := make([]string, len(g.classes))
		for i, c := range g.classes {
			classes[i] = c.String()
		}
		sort.Strings(classes)
		desc := fmt.Sprintf("scan[%s] → detect(%s) → track(%s) ×%d",
			strings.Join(g.filters, ","), g.detect, strings.Join(classes, ","), g.members)
		out = append(out, desc)
	}
	return out
}

// GroupMembers returns each scan group's member-lane count, in group
// creation order. Lanes without a shareable prefix belong to no group
// and are not counted.
func (m *MuxStream) GroupMembers() []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]int, len(m.groups))
	for i, g := range m.groups {
		out[i] = g.members
	}
	return out
}

// GroupStat is one scan group's live accounting.
type GroupStat struct {
	// ID is the group id (stable for the group's lifetime; LaneStat
	// references it).
	ID int
	// Filters / Detect describe the shared scan prefix.
	Filters []string
	Detect  string
	// Classes counts the trackers the group runs per frame; Members the
	// lanes riding the scan.
	Classes int
	Members int
	// VirtualMS is the cumulative shared scan cost (split across
	// members in per-lane accounting).
	VirtualMS float64
	// Degraded counts frames the group's scan answered under
	// degradation (fallback detector tier or carry-forward).
	Degraded int
}

// GroupStats returns the live per-group accounting, in creation order.
func (m *MuxStream) GroupStats() []GroupStat {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]GroupStat, len(m.groups))
	for i, g := range m.groups {
		out[i] = GroupStat{
			ID: g.id, Filters: g.filters, Detect: g.detect,
			Classes: len(g.classes), Members: g.members, VirtualMS: g.virtualMS,
			Degraded: g.degraded,
		}
	}
	return out
}

// LaneStat is one lane's live accounting, for serving dashboards and
// admission control.
type LaneStat struct {
	// ID is the lane id returned by Attach.
	ID int
	// Query names the lane's query.
	Query string
	// Frames counts frames the lane has processed (fed since attach);
	// Matched of them satisfied the frame constraint.
	Frames  int
	Matched int
	// AttachedAt is the stream position (frames already fed) at attach.
	AttachedAt int
	// Backfilled reports that the lane replayed frames [0, AttachedAt)
	// from the store at attach, so its result covers the whole stream.
	Backfilled bool
	// VirtualMS is the lane's virtual cost so far: private work plus its
	// share of the group scan.
	VirtualMS float64
	// Group is the scan group id, or -1 for a private (non-shareable)
	// lane.
	Group int
	// Degraded counts the lane's frames answered under failure-domain
	// degradation (their verdicts were tagged Degraded).
	Degraded int
}

// LaneStats returns the live per-lane accounting, in attach order.
func (m *MuxStream) LaneStats() []LaneStat {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]LaneStat, len(m.lanes))
	for i, l := range m.lanes {
		st := LaneStat{
			ID: l.id, Query: l.plan.Query.Name(),
			Frames: l.res.FramesProcessed, Matched: l.matched, AttachedAt: l.attachedAt,
			Backfilled: l.backfilled, VirtualMS: l.virtualMS + l.sharedMS, Group: -1,
			Degraded: l.degraded,
		}
		if l.group != nil {
			st.Group = l.group.id
		}
		out[i] = st
	}
	return out
}

// Lanes returns the number of attached lanes.
func (m *MuxStream) Lanes() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.lanes)
}

// FramesFed returns the number of frames the stream has processed.
func (m *MuxStream) FramesFed() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.framesFed
}

// scanGroup advances one group's shared operators over a frame: the
// filter chain (short-circuiting like the per-query path, so a stateful
// filter never sees frames an earlier filter dropped), then one detector
// invocation and one tracker update per bound class.
//
// With a store bound the group first tries to serve the frame from
// persisted records — dropped verdict, detections and track ids applied
// with zero model cost — and persists what it computed otherwise. Live
// operators that skipped store-served frames catch up before running
// again (catchUpFilters, replayPending), so falling in and out of store
// coverage never changes results, only costs.
func (m *MuxStream) scanGroup(g *muxGroup, f *video.Frame) error {
	g.degradedBy = ""
	if m.store != nil && !m.archiveOff {
		served, err := m.scanGroupFromStore(g, f)
		if err != nil {
			return err
		}
		if served {
			return nil
		}
	}
	if err := m.catchUpFilters(g, f.Index); err != nil {
		return err
	}
	g.dropped = false
	for _, fm := range g.filters {
		bf, err := m.e.filterInstance(g.filterInsts, fm)
		if err != nil {
			return err
		}
		if !bf.Keep(m.e.opts.Env, f) {
			g.dropped = true
			break
		}
	}
	g.filterPos = f.Index + 1
	if g.dropped {
		return m.persistScan(g, f)
	}
	dets, degradedBy, err := m.e.detectResilient(g.detect, f)
	if err != nil {
		return err
	}
	g.degradedBy = degradedBy
	if degradedBy != "" {
		g.degraded++
	}
	if degradedBy == DegradedUnavailable {
		// No detector tier answered: carry each class tracker's previous
		// output forward (st.dets / st.ids are untouched from the last
		// healthy frame) — lanes report the last known objects rather
		// than a spurious empty frame. The tracker does not advance and
		// nothing is persisted: the archive holds only healthy scans.
		return nil
	}
	for _, cls := range g.classes {
		st := g.tracks[cls]
		st.dets = st.dets[:0]
		for i := range dets {
			if classOf(dets[i].Class) == cls {
				st.dets = append(st.dets, dets[i])
			}
		}
		if err := m.replayPending(g, cls, st); err != nil {
			return err
		}
		m.liveTrackUpdate(st)
	}
	if degradedBy != "" {
		// Fallback-tier output answered the frame but must not enter the
		// archive: persisted scans are the healthy primary's by contract.
		return nil
	}
	return m.persistScan(g, f)
}

// trackerUpdate charges and runs one tracker update over cdets, filling
// ids (reused, resized to len(cdets)) with the assigned track ids; upBuf
// is scratch. Shared by the live per-frame path and the store catch-up
// replays, so both feed the tracker byte-identical input.
func (m *MuxStream) trackerUpdate(tk *track.Tracker, cdets []track.Detection, ids []int, upBuf []track.Detection) ([]int, []track.Detection) {
	upBuf = upBuf[:0]
	for i := range cdets {
		upBuf = append(upBuf, track.Detection{
			Box: cdets[i].Box, Class: cdets[i].Class, Score: cdets[i].Score, Ref: i,
		})
	}
	m.e.opts.Env.Clock.Charge("tracker", trackerCostMS)
	ids = ids[:0]
	for range cdets {
		ids = append(ids, -1)
	}
	for _, tr := range tk.Update(upBuf) {
		if tr.Misses != 0 {
			continue
		}
		if idx, ok := tr.Ref.(int); ok && idx >= 0 && idx < len(ids) {
			ids[idx] = tr.ID
		}
	}
	return ids, upBuf
}

// liveTrackUpdate runs one shared tracker update over st.dets (charging
// the tracker account), filling st.ids with the assigned track ids.
func (m *MuxStream) liveTrackUpdate(st *sharedTrack) {
	st.ids, st.upBuf = m.trackerUpdate(st.tracker, st.dets, st.ids, st.upBuf)
}

// Feed processes one frame for every lane and returns the per-lane
// verdicts, aligned with the current attach order (Verdict.Lane carries
// the lane id, stable across attach/detach churn). Frames must arrive
// in capture order.
func (m *MuxStream) Feed(f *video.Frame) ([]Verdict, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, fmt.Errorf("exec: Feed on closed mux stream")
	}
	// A looping source re-feeds earlier indices. From that point the
	// scan archive is off limits both ways: a lap-1 record's from-zero
	// ids would not match a tracker carrying state across the wrap, and
	// persisting cross-wrap ids would poison later from-zero passes.
	if f.Index <= m.lastFed {
		m.archiveOff = true
	}
	m.lastFed = f.Index
	clock := m.e.opts.Env.Clock
	clock.StartFrame(f.Index)
	cell := &rasterCell{}
	for _, g := range m.groups {
		before := clock.TotalMS()
		if err := m.scanGroup(g, f); err != nil {
			return nil, err
		}
		g.frameMS = clock.TotalMS() - before
		g.virtualMS += g.frameMS
	}
	verdicts := make([]Verdict, len(m.lanes))
	for i, l := range m.lanes {
		before := clock.TotalMS()
		var scan *scanOut
		if g := l.group; g != nil {
			// The scan ran once for the whole group; each member carries
			// an equal share of this frame's cost, so per-query totals
			// sum to the work actually done however membership churns.
			l.sharedMS += g.frameMS / float64(g.members)
			st := g.tracks[l.sig.Class]
			scan = &scanOut{dropped: g.dropped, degradedBy: g.degradedBy, dets: st.dets, ids: st.ids}
		}
		v, err := m.e.step(l, f, cell, scan)
		if err != nil {
			return nil, err
		}
		verdicts[i] = v
		l.virtualMS += clock.TotalMS() - before
	}
	m.framesFed++
	return verdicts, nil
}

// feedFrame implements frameSink.
func (m *MuxStream) feedFrame(f *video.Frame) error {
	_, err := m.Feed(f)
	return err
}

// FeedRange pulls frames from, from+stride, … below to out of src and
// feeds each in turn: the offline way to drive a stream whose source is
// at hand. The source is also bound for store catch-up replays when no
// BindStore / BindSource named one.
func (m *MuxStream) FeedRange(src video.FrameSource, from, to, stride int) error {
	m.mu.Lock()
	if m.src == nil {
		m.src = src
	}
	m.mu.Unlock()
	return m.e.feed(m, src, from, to, stride)
}

// replaySolo runs an archived pass over the only lane of a freshly
// opened one-plan stream — the first half of the offline index-verify
// and fidelity drivers, whose second half feeds the frames the archive
// does not cover. src is bound for catch-up replays.
func (m *MuxStream) replaySolo(src video.FrameSource, r replay) (served, live int, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.src == nil {
		m.src = src
	}
	if m.store == nil {
		return 0, 0, fmt.Errorf("exec: archived replay requires a bound store (Options.Store)")
	}
	return m.replayLane(m.lanes[0], r)
}

// resumeAfter prepares the live operators to continue at frame covered
// after an archived pass that skipped them: every archived non-dropped
// frame of [0, covered) — what a from-zero tracker would have consumed —
// queues for tracker catch-up, so a later frame that misses the archive
// and needs live tracking first restores exactly the from-zero state
// (replayPending). The filter chains likewise catch up from frame zero
// if they ever run live (stateless chains skip it).
func (m *MuxStream) resumeAfter(covered int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, g := range m.groups {
		for f := 0; f < covered; f++ {
			a, miss := m.archivedScan(g.key, g.detect, f, false)
			if miss != nil {
				return fmt.Errorf("exec: frame %d of scan group %q inside index coverage: %w", f, g.key, miss)
			}
			if a.Rec.Dropped {
				continue
			}
			for _, cls := range g.classes {
				g.tracks[cls].pending = append(g.tracks[cls].pending, f)
			}
		}
		g.filterPos = 0
	}
	return nil
}

// sealArchive puts the scan archive off limits for the frames still to
// be fed (see archiveOff).
func (m *MuxStream) sealArchive() {
	m.mu.Lock()
	m.archiveOff = true
	m.mu.Unlock()
}

// Snapshot returns a copy of a live lane's accumulated result so far —
// the serving layer's read path, safe against concurrent Feeds. The
// video-level aggregation is computed fresh on each call; the lane keeps
// accumulating.
func (m *MuxStream) Snapshot(id int) (*Result, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	l, ok := m.byID[id]
	if !ok {
		return nil, fmt.Errorf("exec: Snapshot of unknown lane %d", id)
	}
	res := *l.res
	res.Matched = append([]bool(nil), l.res.Matched...)
	res.Hits = append([]FrameHit(nil), l.res.Hits...)
	l.aggregate(&res)
	return &res, nil
}

// Close finalizes every attached lane's aggregation and returns their
// results in attach order. Shared scan costs were attributed frame by
// frame, each frame's scan split evenly across the members riding it
// (who paid is a scheduling artifact; the per-query totals still sum to
// the work actually done, which is the point: one scan's cost split N
// ways instead of N scans). Idempotent.
func (m *MuxStream) Close() []*Result {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Result, len(m.lanes))
	for i, l := range m.lanes {
		out[i] = l.res
	}
	if !m.closed {
		m.closed = true
		m.e.opts.Env.Clock.FlushFrames()
		for _, l := range m.lanes {
			l.aggregate(l.res)
		}
	}
	return out
}

// RunMux executes every plan over the frame source in one shared pass:
// the offline entry point of the shared-scan engine, pulling each frame
// from the source exactly once.
func (e *Executor) RunMux(plans []*Plan, src video.FrameSource) ([]*Result, error) {
	m, err := e.OpenMux(plans, src.SourceFPS())
	if err != nil {
		return nil, err
	}
	if err := m.FeedRange(src, 0, src.NumFrames(), 1); err != nil {
		return nil, err
	}
	return m.Close(), nil
}
