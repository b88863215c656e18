package exec

import (
	"fmt"
	"sort"

	"vqpy/internal/core"
	"vqpy/internal/fault"
	"vqpy/internal/geom"
	"vqpy/internal/models"
	"vqpy/internal/store"
	"vqpy/internal/track"
	"vqpy/internal/video"
)

// Options configures an execution.
type Options struct {
	// Env supplies the virtual clock and noise seed; required.
	Env *models.Env
	// Registry supplies models; required.
	Registry *models.Registry
	// Cache enables query-level computation reuse across executions
	// (§4.2); optional. The cache is safe to share between concurrent
	// executors (plan.RunAll's workers do).
	Cache *SharedCache
	// MaxFrames truncates processing (canary profiling); 0 means all.
	MaxFrames int
	// SkipHits disables hit collection (profiling runs that only need
	// cost and the matched vector).
	SkipHits bool
	// Store enables the tiered persistent result store (§4.3's reuse
	// carried across processes): detector and per-crop model outputs are
	// consulted before invoking a model — a store hit costs zero virtual
	// time — and populated on miss. Requires StoreSource; optional.
	// Profiling executors must not set it, so plan selection stays
	// independent of what happens to be persisted.
	Store *store.Store
	// StoreSource names the video / camera stream store records are
	// keyed under (frame indices alone do not identify a frame).
	StoreSource string
	// Faults is the chaos layer: a deterministic injector whose schedule
	// can fail model calls (absorbed by per-model retry with backoff,
	// then per-(model, source) circuit breakers and graceful
	// degradation; see faults.go). Optional; nil — or an injector with
	// an empty schedule — leaves every execution path bit-identical to
	// a fault-free build.
	Faults *fault.Injector
}

// ObjOut is one matched object in a frame hit, carrying the values of
// the query's output selectors.
type ObjOut struct {
	Instance string
	TrackID  int
	Box      geom.BBox
	Values   map[string]any
}

// FrameHit is one frame satisfying the frame constraint, with the output
// objects (frame_output of Figure 5).
type FrameHit struct {
	FrameIdx int
	TimeSec  float64
	Objects  []ObjOut
}

// Result is the outcome of executing a plan over a video.
type Result struct {
	Query string

	// Matched[i] reports whether processed frame i (0-based position)
	// satisfied the frame constraint.
	Matched []bool
	// FPS echoes the video frame rate for duration/window conversion.
	FPS int

	Hits []FrameHit

	// Count and TrackIDs carry the video-level aggregation output when
	// the query declares one.
	Count    int
	TrackIDs []int

	FramesProcessed int
	// DegradedFrames counts frames answered under failure-domain
	// degradation (fallback detector tier, carry-forward tracker state,
	// or an unavailable model property); their verdicts were tagged
	// Degraded as they streamed out. DegradedAt lists their 0-based
	// positions in Matched, so parity checks can compare exactly the
	// frames served healthily.
	DegradedFrames int
	DegradedAt     []int
	// VirtualMS is the virtual time charged during this execution.
	VirtualMS float64
	// MemoHits/MemoMisses report intrinsic-memo effectiveness.
	MemoHits, MemoMisses int
}

// MatchedCount returns the number of matched frames.
func (r *Result) MatchedCount() int {
	n := 0
	for _, m := range r.Matched {
		if m {
			n++
		}
	}
	return n
}

// Executor runs plans.
type Executor struct {
	opts Options
}

// NewExecutor validates options and returns an executor.
func NewExecutor(opts Options) (*Executor, error) {
	if opts.Env == nil {
		return nil, fmt.Errorf("exec: Options.Env is required")
	}
	if opts.Registry == nil {
		return nil, fmt.Errorf("exec: Options.Registry is required")
	}
	return &Executor{opts: opts}, nil
}

// trackerCostMS is the virtual cost of one lightweight tracker update
// (§4.2's Kalman-filter tracker).
const trackerCostMS = 0.3

// runFrame applies every plan step to one frame, short-circuiting once
// the frame is dropped. When the plan carries an uplink cost, each
// step's charges are attributed to its device account and the frame
// transfer is charged at the first edge→server crossing.
func (e *Executor) runFrame(p *Plan, fc *FrameCtx, rs *runState, filters map[string]models.BinaryFilter, specs []windowSpec) error {
	devices := p.UplinkMS > 0
	uplinkCharged := false
	sawEdge := false
	var apply func(steps []Step) error
	apply = func(steps []Step) error {
		for _, s := range steps {
			if fc.Dropped {
				return nil
			}
			var before float64
			if devices && s.Kind != StepFused {
				dev := s.Device
				if dev == "" {
					dev = DeviceServer
				}
				if dev == DeviceEdge {
					sawEdge = true
				} else if sawEdge && !uplinkCharged {
					e.opts.Env.Clock.Charge("net:uplink", p.UplinkMS)
					uplinkCharged = true
				}
				before = e.opts.Env.Clock.TotalMS()
			}
			var err error
			switch s.Kind {
			case StepFrameFilter:
				err = e.stepFrameFilter(s, fc, filters)
			case StepDetect:
				err = e.stepDetect(s, fc)
			case StepScene:
				e.stepScene(s, fc)
			case StepTrack:
				e.stepTrack(s, fc, rs, specs)
			case StepProject:
				err = e.stepProject(p, s, fc, rs, specs)
			case StepVObjFilter:
				e.stepVObjFilter(s, fc)
			case StepRequire:
				if len(fc.AliveNodes(s.RequireInstance)) == 0 {
					fc.Dropped = true
				}
			case StepRelProject:
				err = e.stepRelProject(s, fc, rs)
			case StepRelFilter:
				e.stepRelFilter(s, fc)
			case StepFused:
				err = apply(s.Fused)
			default:
				err = fmt.Errorf("exec: unknown step kind %v", s.Kind)
			}
			if err != nil {
				return err
			}
			if devices && s.Kind != StepFused {
				dev := s.Device
				if dev == "" {
					dev = DeviceServer
				}
				delta := e.opts.Env.Clock.TotalMS() - before
				if delta > 0 {
					// Attribution only: the cost itself was already
					// charged by the models; the device account is a
					// parallel view, excluded from TotalMS by charging
					// through a secondary ledger dimension.
					e.opts.Env.Clock.ChargeShadow("device:"+dev, delta)
				}
			}
		}
		return nil
	}
	return apply(p.Steps)
}

// filterInstance returns the caller-local instance of a binary filter
// model, resolving the registry on first use. Stateful filters (e.g.
// frame differencing) carry per-stream state and must not be shared:
// registry instances that declare themselves cloneable get a fresh
// instance per stream (or per scan group on the shared-scan path).
func (e *Executor) filterInstance(filters map[string]models.BinaryFilter, name string) (models.BinaryFilter, error) {
	if bf, ok := filters[name]; ok {
		return bf, nil
	}
	m, found := e.opts.Registry.Get(name)
	if !found {
		return nil, fmt.Errorf("exec: no filter model %q", name)
	}
	bf, ok := m.(models.BinaryFilter)
	if !ok {
		return nil, fmt.Errorf("exec: model %q is not a binary filter", name)
	}
	if cl, isCloner := bf.(models.Cloner); isCloner {
		fresh, okClone := cl.CloneModel().(models.BinaryFilter)
		if !okClone {
			return nil, fmt.Errorf("exec: model %q cloned to a non-filter", name)
		}
		bf = fresh
	}
	filters[name] = bf
	return bf, nil
}

func (e *Executor) stepFrameFilter(s Step, fc *FrameCtx, filters map[string]models.BinaryFilter) error {
	bf, err := e.filterInstance(filters, s.FilterModel)
	if err != nil {
		return err
	}
	if !bf.Keep(e.opts.Env, fc.Frame) {
		fc.Dropped = true
	}
	return nil
}

// detectFrame runs a detector on one frame, converting its output to
// tracker detections (Ref carries the ground-truth id for the simulated
// models' noise channel). Both the per-query StepDetect and the shared
// scan go through this one entry, normally behind the cache — which is
// also where the persistent store plugs in: a store hit returns the
// archived detections at zero model cost, and a miss persists what the
// detector produced. Detector output depends only on (seed, model,
// frame), so one store record serves every scan group and query stream.
func (e *Executor) detectFrame(model string, f *video.Frame) ([]track.Detection, error) {
	if st, src := e.opts.Store, e.opts.StoreSource; st != nil && src != "" {
		if sdets, ok := st.GetDets(src, model, f.Index); ok {
			return appendTrackDets(make([]track.Detection, 0, len(sdets)), sdets), nil
		}
	}
	if err := e.modelGate(model, f.Index); err != nil {
		return nil, err
	}
	det, err := e.opts.Registry.Detector(model)
	if err != nil {
		return nil, err
	}
	raw := det.Detect(e.opts.Env, f)
	out := make([]track.Detection, len(raw))
	for i, d := range raw {
		out[i] = track.Detection{Box: d.Box, Class: int(d.Class), Score: d.Score, Ref: d.TruthID}
	}
	if st, src := e.opts.Store, e.opts.StoreSource; st != nil && src != "" {
		if err := st.PutDets(src, model, f.Index, storeDetsOf(out)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// storeDetsOf converts live tracker detections to their persistent form
// (the opaque Ref pinned down to the ground-truth id it carries).
func storeDetsOf(dets []track.Detection) []store.Detection {
	out := make([]store.Detection, len(dets))
	for i, d := range dets {
		truthID, _ := d.Ref.(int)
		out[i] = store.Detection{Box: d.Box, Class: d.Class, Score: d.Score, TruthID: truthID}
	}
	return out
}

// appendTrackDets appends persisted detections to out in live form,
// restoring Ref exactly as detectFrame would have produced it.
func appendTrackDets(out []track.Detection, dets []store.Detection) []track.Detection {
	for _, d := range dets {
		out = append(out, track.Detection{Box: d.Box, Class: d.Class, Score: d.Score, Ref: d.TruthID})
	}
	return out
}

func (e *Executor) stepDetect(s Step, fc *FrameCtx) error {
	dets, degraded, err := e.detectResilient(s.DetectModel, fc.Frame)
	if err != nil {
		return err
	}
	if degraded != "" {
		// Terminal detector failure inside a lane: degrade to whatever
		// tier answered (possibly nothing) instead of killing the stream.
		fc.degrade(degraded)
	}
	for _, bind := range s.Binds {
		for i := range dets {
			d := &dets[i]
			cls := classOf(d.Class)
			if cls != bind.Class {
				continue
			}
			node := fc.NewNode(bind.Instance)
			truthID, _ := d.Ref.(int)
			node.TrackID = -1
			node.TruthID = truthID
			node.Class = cls
			node.ClassName = cls.String()
			node.Box = d.Box
			node.Score = d.Score
		}
	}
	return nil
}

// stepScene binds the special scene VObj: one node spanning the frame.
// The scene is a single conceptual object, so it carries a constant
// track id; its declared properties (day/night, weather) are computed by
// ordinary projectors over the full-frame box. Scene properties must not
// be intrinsic — they vary per frame — which VObj validation enforces
// by convention (the library declares them non-intrinsic).
func (e *Executor) stepScene(s Step, fc *FrameCtx) {
	node := fc.NewNode(s.Instance)
	node.TrackID = 0
	node.TruthID = -1
	node.Class = video.ClassUnknown
	node.ClassName = "scene"
	node.Box = geom.BBox{X2: float64(fc.Frame.W), Y2: float64(fc.Frame.H)}
	node.Score = 1
}

// stepTrack runs the tracker for one instance over this frame's nodes,
// assigning stable TrackIDs (the motion edges of the graph model), and
// seeds history windows for built-in dependencies. Each instance must be
// tracked exactly once per frame, so the planner emits one StepTrack
// directly after each StepDetect.
func (e *Executor) stepTrack(s Step, fc *FrameCtx, rs *runState, specs []windowSpec) {
	instance := s.Instance
	nodes := fc.Nodes[instance]
	tk := rs.tracker(instance)
	dets := make([]track.Detection, 0, len(nodes))
	for _, n := range nodes {
		dets = append(dets, track.Detection{Box: n.Box, Class: int(n.Class), Score: n.Score, Ref: n})
	}
	e.opts.Env.Clock.Charge("tracker", trackerCostMS)
	for _, tr := range tk.Update(dets) {
		if tr.Misses != 0 {
			continue // not matched on this frame
		}
		n, ok := tr.Ref.(*Node)
		if !ok || n == nil {
			continue
		}
		n.TrackID = tr.ID
	}
	// Seed windows with built-in values now that TrackIDs exist.
	seedBuiltinWindows(fc, rs, specs, instance)
}

// seedBuiltinWindows pushes built-in property values of an instance's
// freshly tracked nodes into the history windows that depend on them. It
// runs after track ids are assigned — by stepTrack on the per-query
// path, by the lane bind on the shared-scan path.
func seedBuiltinWindows(fc *FrameCtx, rs *runState, specs []windowSpec, instance string) {
	for _, spec := range specs {
		if spec.instance != instance || !core.IsBuiltinProp(spec.prop) {
			continue
		}
		for _, n := range fc.Nodes[instance] {
			if n.TrackID < 0 {
				continue
			}
			if v, ok := n.Prop(spec.prop); ok {
				rs.window(instance, spec.prop, n.TrackID, spec.capacity).push(fc.Frame.Index, v)
			}
		}
	}
}

func (e *Executor) stepProject(p *Plan, s Step, fc *FrameCtx, rs *runState, specs []windowSpec) error {
	if s.Prop == nil {
		return nil // built-ins are seeded at detection
	}
	prop := s.Prop
	for _, n := range fc.AliveNodes(s.Instance) {
		if n.hasExtra(prop.Name) {
			continue
		}
		// Object-level reuse (§4.2): intrinsic values are memoized per
		// track.
		if prop.Intrinsic && !p.DisableMemo && n.TrackID >= 0 {
			if v, ok := rs.memo.Get(s.Instance, prop.Name, n.TrackID); ok {
				n.SetProp(prop.Name, v)
				e.pushWindow(fc, rs, specs, s.Instance, prop.Name, n)
				continue
			}
		}
		v, ok, err := e.computeProp(s.Instance, prop, n, fc, rs)
		if err != nil {
			return err
		}
		if !ok {
			continue // not ready (stateful warm-up)
		}
		n.SetProp(prop.Name, v)
		if prop.Intrinsic && !p.DisableMemo && n.TrackID >= 0 {
			rs.memo.Put(s.Instance, prop.Name, n.TrackID, v)
		}
		e.pushWindow(fc, rs, specs, s.Instance, prop.Name, n)
	}
	return nil
}

// pushWindow records a freshly computed property into any history window
// that depends on it.
func (e *Executor) pushWindow(fc *FrameCtx, rs *runState, specs []windowSpec, instance, prop string, n *Node) {
	if n.TrackID < 0 {
		return
	}
	for _, spec := range specs {
		if spec.instance == instance && spec.prop == prop {
			if v, ok := n.Prop(prop); ok {
				rs.window(instance, prop, n.TrackID, spec.capacity).push(fc.Frame.Index, v)
			}
		}
	}
}

// computeProp evaluates one property on one node. ok is false when the
// property is not yet computable (missing deps or history).
func (e *Executor) computeProp(instance string, prop *core.Property, n *Node, fc *FrameCtx, rs *runState) (any, bool, error) {
	if prop.Model != "" {
		inj := e.opts.Faults
		if !inj.BreakerAllow(prop.Model, e.opts.StoreSource, fc.Frame.Index) {
			// Breaker open: the property is unavailable this frame rather
			// than paying for a call known to fail.
			fc.degrade("prop:" + prop.Name)
			return nil, false, nil
		}
		v, err := e.opts.Cache.DoLabel(prop.Model, fc.Frame.Index, n.Box, n.TruthID, func() (any, error) {
			// The in-process cache missed; the persistent store is the
			// next tier — a hit observes the archived value at zero model
			// cost (it equals what the model would compute, by the
			// determinism contract), a miss runs the model and persists.
			st, src := e.opts.Store, e.opts.StoreSource
			if st != nil && src != "" {
				if v, ok := st.GetLabel(src, prop.Model, fc.Frame.Index, n.Box, n.TruthID); ok {
					return v, nil
				}
			}
			if err := e.modelGate(prop.Model, fc.Frame.Index); err != nil {
				return nil, err
			}
			m, found := e.opts.Registry.Get(prop.Model)
			if !found {
				return nil, fmt.Errorf("exec: no model %q for property %s.%s", prop.Model, instance, prop.Name)
			}
			var v any
			switch mm := m.(type) {
			case models.Classifier:
				v = mm.Classify(e.opts.Env, fc.Frame, fc.Raster(), n.Box, n.TruthID)
			case models.Embedder:
				v = mm.Embed(e.opts.Env, fc.Frame, n.Box, n.TruthID)
			case models.OCRModel:
				v = mm.ReadPlate(e.opts.Env, fc.Frame, n.Box, n.TruthID)
			default:
				return nil, fmt.Errorf("exec: model %q cannot compute a VObj property", prop.Model)
			}
			if st != nil && src != "" {
				if err := st.PutLabel(src, prop.Model, fc.Frame.Index, n.Box, n.TruthID, v); err != nil {
					return nil, err
				}
			}
			return v, nil
		})
		if err != nil {
			if fault.IsFault(err) {
				// Retry budget exhausted: count the failure toward the
				// breaker and report the property not-ready — the frame is
				// answered without it, tagged Degraded.
				inj.BreakerFailure(prop.Model, e.opts.StoreSource, fc.Frame.Index)
				inj.Count("degraded:prop:" + prop.Name)
				fc.degrade("prop:" + prop.Name)
				return nil, false, nil
			}
			return nil, false, err
		}
		inj.BreakerSuccess(prop.Model, e.opts.StoreSource)
		return v, true, nil
	}

	in := core.PropInput{
		Frame: fc.Frame, Raster: fc.Raster(),
		Box: n.Box, TrackID: n.TrackID, TruthID: n.TruthID,
		Env: e.opts.Env, Registry: e.opts.Registry,
		// SkipHits marks profiling executors; externally-effectful
		// compute functions key off it (core.PropInput.Profiling).
		Profiling: e.opts.SkipHits,
	}
	if prop.Stateful {
		if n.TrackID < 0 {
			return nil, false, nil
		}
		dep := prop.DependsOn[0]
		w := rs.window(instance, dep, n.TrackID, prop.HistoryLen+1)
		in.History = w.last(prop.HistoryLen + 1)
		if len(in.History) < 2 {
			return nil, false, nil
		}
	} else if len(prop.DependsOn) > 0 {
		in.Deps = make(map[string]any, len(prop.DependsOn))
		for _, dep := range prop.DependsOn {
			v, ok := n.Prop(dep)
			if !ok {
				return nil, false, nil
			}
			in.Deps[dep] = v
		}
	}
	if prop.CostHintMS > 0 {
		e.opts.Env.Clock.Charge("prop:"+prop.Name, prop.CostHintMS)
	}
	v, err := prop.Compute(in)
	if err == core.ErrNotReady {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("exec: property %s.%s: %w", instance, prop.Name, err)
	}
	return v, true, nil
}

// stepVObjFilter lazily prunes nodes that provably fail a
// single-instance conjunct.
func (e *Executor) stepVObjFilter(s Step, fc *FrameCtx) {
	props, _ := core.RefsOf(s.FilterPred)
	if len(props) == 0 {
		return
	}
	instance := props[0].Instance
	b := &assignment{nodes: map[string]*Node{}, fc: fc}
	for _, n := range fc.AliveNodes(instance) {
		b.nodes[instance] = n
		if v, known := core.EvalPred(s.FilterPred, b); known && !v {
			n.Alive = false
		}
	}
}

func (e *Executor) stepRelProject(s Step, fc *FrameCtx, rs *runState) error {
	rb := s.RelBind
	prop := s.RelProp
	lefts := fc.AliveNodes(rb.LeftInst)
	rights := fc.AliveNodes(rb.RightInst)
	if len(lefts) == 0 || len(rights) == 0 {
		return nil
	}
	var hoiPairs []models.HOIPair
	if prop.Model != "" {
		m, found := e.opts.Registry.Get(prop.Model)
		if !found {
			return fmt.Errorf("exec: no model %q for relation property %s.%s", prop.Model, s.Relation, prop.Name)
		}
		hoi, ok := m.(models.HOIModel)
		if !ok {
			return fmt.Errorf("exec: model %q cannot compute a relation property", prop.Model)
		}
		if fc.hoi == nil {
			fc.hoi = make(map[string][]models.HOIPair)
		}
		if cached, ok := fc.hoi[prop.Model]; ok {
			hoiPairs = cached
		} else {
			hoiPairs = hoi.DetectInteractions(e.opts.Env, fc.Frame)
			fc.hoi[prop.Model] = hoiPairs
		}
	}
	for _, l := range lefts {
		for _, r := range rights {
			if l == r {
				continue
			}
			edge := fc.Edge(s.Relation, l, r)
			if edge == nil {
				edge = &RelEdge{Relation: s.Relation, Left: l, Right: r, Props: make(map[string]any), Alive: true}
				fc.Edges = append(fc.Edges, edge)
			}
			if _, done := edge.Props[prop.Name]; done {
				continue
			}
			var v any
			if prop.Model != "" {
				v = matchHOI(hoiPairs, l.Box, r.Box)
			} else {
				in := core.RelInput{
					Frame: fc.Frame, Raster: fc.Raster(),
					LeftBox: l.Box, RightBox: r.Box,
					LeftTrackID: l.TrackID, RightTrackID: r.TrackID,
					LeftTruthID: l.TruthID, RightTruthID: r.TruthID,
					Env: e.opts.Env, Registry: e.opts.Registry,
				}
				if prop.Stateful {
					in.LeftHistory = boxHistory(rs, rb.LeftInst, l.TrackID, prop.HistoryLen+1)
					in.RightHistory = boxHistory(rs, rb.RightInst, r.TrackID, prop.HistoryLen+1)
				}
				if prop.CostHintMS > 0 {
					e.opts.Env.Clock.Charge("rel:"+prop.Name, prop.CostHintMS)
				}
				out, err := prop.Compute(in)
				if err == core.ErrNotReady {
					continue
				}
				if err != nil {
					return fmt.Errorf("exec: relation property %s.%s: %w", s.Relation, prop.Name, err)
				}
				v = out
			}
			edge.Props[prop.Name] = v
		}
	}
	return nil
}

// matchHOI finds the interaction verb whose participant boxes best match
// the node pair; empty string when none matches.
func matchHOI(pairs []models.HOIPair, left, right geom.BBox) string {
	best, bestIoU := "", 0.35 // minimum overlap to accept
	for _, p := range pairs {
		iou := (geom.IoU(p.PersonBox, left) + geom.IoU(p.ObjectBox, right)) / 2
		if iou > bestIoU {
			best, bestIoU = p.Verb, iou
		}
	}
	return best
}

// boxHistory extracts recent bbox history from the instance's window.
func boxHistory(rs *runState, instance string, trackID, n int) []geom.BBox {
	if trackID < 0 {
		return nil
	}
	w := rs.window(instance, core.PropBBox, trackID, n)
	vals := w.last(n)
	out := make([]geom.BBox, 0, len(vals))
	for _, v := range vals {
		if b, ok := v.(geom.BBox); ok {
			out = append(out, b)
		}
	}
	return out
}

func (e *Executor) stepRelFilter(s Step, fc *FrameCtx) {
	_, relRefs := core.RefsOf(s.RelPred)
	if len(relRefs) == 0 {
		return
	}
	for _, edge := range fc.Edges {
		if !edge.Alive || edge.Relation != s.Relation {
			continue
		}
		b := &assignment{
			nodes:    map[string]*Node{edge.Left.Instance: edge.Left, edge.Right.Instance: edge.Right},
			fc:       fc,
			relBinds: map[string]relParticipants{s.Relation: {left: edge.Left.Instance, right: edge.Right.Instance}},
		}
		if v, known := core.EvalPred(s.RelPred, b); known && !v {
			edge.Alive = false
		}
	}
}

// finalize evaluates the full constraint over assignments of alive nodes
// and records hits and matched tracks.
func (e *Executor) finalize(fc *FrameCtx, rs *runState, insts []string, relBinds map[string]relParticipants,
	frameCons, videoCons core.Pred, sels []core.Selector, res *Result) bool {
	if fc.Dropped {
		return false
	}
	// Enumerate assignments over instances that have alive nodes.
	type instNodes struct {
		name  string
		nodes []*Node
	}
	var dims []instNodes
	for _, inst := range insts {
		alive := fc.AliveNodes(inst)
		if len(alive) > 0 {
			dims = append(dims, instNodes{inst, alive})
		}
	}
	matched := false
	matchedNodes := make(map[*Node]bool)

	var enumerate func(i int, cur map[string]*Node)
	total := 0
	const assignmentCap = 100000
	enumerate = func(i int, cur map[string]*Node) {
		if total > assignmentCap {
			return
		}
		if i == len(dims) {
			total++
			b := &assignment{nodes: cur, fc: fc, relBinds: relBinds}
			if v, known := core.EvalPred(frameCons, b); known && v {
				matched = true
				for _, n := range cur {
					matchedNodes[n] = true
					// Without a video constraint, the frame constraint
					// decides which tracks count toward aggregation.
					if videoCons == nil {
						rs.markMatched(n.Instance, n.TrackID)
					}
				}
			}
			if videoCons != nil {
				if v, known := core.EvalPred(videoCons, b); known && v {
					for _, n := range cur {
						rs.markMatched(n.Instance, n.TrackID)
					}
				}
			}
			return
		}
		for _, n := range dims[i].nodes {
			cur[dims[i].name] = n
			enumerate(i+1, cur)
		}
		delete(cur, dims[i].name)
	}
	enumerate(0, make(map[string]*Node))

	// Video-only queries (no frame constraint) vacuously match every
	// frame; collecting hits for them is pure noise.
	if matched && !e.opts.SkipHits && !(frameCons == nil && videoCons != nil) {
		hit := FrameHit{FrameIdx: fc.Frame.Index, TimeSec: fc.Frame.TimeSec}
		for n := range matchedNodes {
			out := ObjOut{Instance: n.Instance, TrackID: n.TrackID, Box: n.Box}
			for _, sel := range sels {
				if sel.Instance != n.Instance {
					continue
				}
				if v, ok := n.Prop(sel.Prop); ok {
					if out.Values == nil {
						out.Values = make(map[string]any)
					}
					out.Values[sel.Prop] = v
				}
			}
			hit.Objects = append(hit.Objects, out)
		}
		sort.Slice(hit.Objects, func(i, j int) bool {
			if hit.Objects[i].Instance != hit.Objects[j].Instance {
				return hit.Objects[i].Instance < hit.Objects[j].Instance
			}
			return hit.Objects[i].TrackID < hit.Objects[j].TrackID
		})
		res.Hits = append(res.Hits, hit)
	}
	return matched
}

// windowSpec declares a history window the executor must maintain.
type windowSpec struct {
	instance, prop string
	capacity       int
}

// windowSpecs scans the plan for stateful projections and derives the
// windows their dependencies need.
func windowSpecs(p *Plan) []windowSpec {
	var out []windowSpec
	seen := map[windowKey]bool{}
	var walk func(steps []Step)
	walk = func(steps []Step) {
		for _, s := range steps {
			switch s.Kind {
			case StepProject:
				if s.Prop != nil && s.Prop.Stateful {
					k := windowKey{s.Instance, s.Prop.DependsOn[0], 0}
					if !seen[k] {
						seen[k] = true
						out = append(out, windowSpec{s.Instance, s.Prop.DependsOn[0], s.Prop.HistoryLen + 1})
					}
				}
			case StepRelProject:
				if s.RelProp != nil && s.RelProp.Stateful {
					for _, inst := range []string{s.RelBind.LeftInst, s.RelBind.RightInst} {
						k := windowKey{inst, core.PropBBox, 0}
						if !seen[k] {
							seen[k] = true
							out = append(out, windowSpec{inst, core.PropBBox, s.RelProp.HistoryLen + 1})
						}
					}
				}
			case StepFused:
				walk(s.Fused)
			}
		}
	}
	walk(p.Steps)
	return out
}

// classOf converts a tracker class int back to a video.Class.
func classOf(c int) video.Class { return video.Class(c) }
