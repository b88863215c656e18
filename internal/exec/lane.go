package exec

import (
	"fmt"
	"sort"

	"vqpy/internal/core"
	"vqpy/internal/models"
	"vqpy/internal/track"
	"vqpy/internal/video"
)

// lane is the engine's one per-query execution state: the plan's
// operators past whatever scan prefix the lane rides, and everything
// they accumulate (trackers for non-shared instances, memo, history
// windows, the result). A private lane (group nil) runs its whole plan,
// detector and tracker included — the per-query path every shared-scan
// crosscheck compares against, and what a Stream is a handle over. A
// lane riding a MuxStream scan group runs only the residual steps over
// the group's detect/track output.
type lane struct {
	id      int
	plan    *Plan
	runPlan *Plan // residual steps for shared lanes, the full plan otherwise
	sig     ScanSig
	group   *muxGroup // nil for a private lane

	rs         *runState
	filters    map[string]models.BinaryFilter
	specs      []windowSpec
	insts      []string
	relBinds   map[string]relParticipants
	frameCons  core.Pred
	videoCons  core.Pred
	outputSels []core.Selector

	res *Result
	// fc is the reusable per-frame context: node arena, instance slices
	// and raster cache are recycled between frames.
	fc         *FrameCtx
	virtualMS  float64
	sharedMS   float64
	matched    int  // running matched-frame count (cheap stats reads)
	degraded   int  // frames answered under degradation
	attachedAt int  // stream position (frames fed before attach)
	backfilled bool // history replayed from the store at attach
}

// newLane validates the plan and prepares a private lane over it. fps
// only annotates the Result (higher-order combinators need it). The
// lane is returned by value so a Stream can hold it inline.
func newLane(p *Plan, fps, attachedAt int) (lane, error) {
	if err := p.Validate(); err != nil {
		return lane{}, err
	}
	if err := p.Query.Validate(); err != nil {
		return lane{}, err
	}
	relBinds := make(map[string]relParticipants)
	for name, rb := range p.Query.Relations() {
		relBinds[name] = relParticipants{left: rb.LeftInst, right: rb.RightInst}
	}
	return lane{
		plan: p, runPlan: p,
		rs:         newRunState(),
		filters:    make(map[string]models.BinaryFilter),
		specs:      windowSpecs(p),
		insts:      p.Query.InstanceNames(),
		relBinds:   relBinds,
		frameCons:  p.Query.FrameConstraint(),
		videoCons:  p.Query.VideoConstraint(),
		outputSels: p.Query.FrameOutputSelectors(),
		res:        &Result{Query: p.Query.Name(), FPS: fps},
		attachedAt: attachedAt,
	}, nil
}

// scanOut is what a scan prefix hands a lane riding it for one frame:
// the filter chain's verdict and the lane's class-filtered detections
// with their track ids — the shared tracker's output on the live path,
// an archived frame's on a replay.
type scanOut struct {
	dropped    bool
	degradedBy string // "" = healthy
	dets       []track.Detection
	ids        []int
}

// step is the one per-frame step of every execution path — a Stream's
// Feed, a mux lane's slice of MuxStream.Feed and every archived replay
// — which is what makes a replayed frame indistinguishable from a live
// one: reset the frame context, bind the scan prefix's output (scan is
// nil for a private lane, whose own detect/track steps produce it), run
// the lane's operators, evaluate the constraint and fold the verdict
// into the accumulated result. cell is the frame's shared raster, nil
// when the lane renders for itself.
func (e *Executor) step(l *lane, f *video.Frame, cell *rasterCell, scan *scanOut) (Verdict, error) {
	if l.fc == nil {
		l.fc = newFrameCtx(f)
	} else {
		l.fc.reset(f)
	}
	fc := l.fc
	fc.shareRaster(cell)
	if scan != nil {
		if scan.degradedBy != "" {
			fc.degrade(scan.degradedBy)
		}
		if scan.dropped {
			fc.Dropped = true
		} else {
			l.bind(scan.dets, scan.ids)
		}
	}
	if err := e.runFrame(l.runPlan, fc, l.rs, l.filters, l.specs); err != nil {
		return Verdict{}, err
	}
	res := l.res
	hitsBefore := len(res.Hits)
	matched := e.finalize(fc, l.rs, l.insts, l.relBinds, l.frameCons, l.videoCons, l.outputSels, res)
	res.Matched = append(res.Matched, matched)
	res.FramesProcessed++
	v := Verdict{FrameIdx: f.Index, Lane: l.id, Matched: matched}
	if matched {
		l.matched++
	}
	if fc.Degraded {
		v.Degraded = true
		v.DegradedBy = fc.DegradedBy
		l.degraded++
		res.DegradedFrames++
		res.DegradedAt = append(res.DegradedAt, len(res.Matched)-1)
	}
	if len(res.Hits) > hitsBefore {
		v.Hit = &res.Hits[len(res.Hits)-1]
	}
	return v, nil
}

// bind materializes a scan prefix's detect/track output as the lane's
// nodes — exactly what StepDetect+StepTrack would have produced — and
// seeds the history windows that depend on built-in properties.
func (l *lane) bind(dets []track.Detection, ids []int) {
	for i := range dets {
		d := &dets[i]
		node := l.fc.NewNode(l.sig.Instance)
		truthID, _ := d.Ref.(int)
		node.TrackID = ids[i]
		node.TruthID = truthID
		node.Class = classOf(d.Class)
		node.ClassName = node.Class.String()
		node.Box = d.Box
		node.Score = d.Score
	}
	seedBuiltinWindows(l.fc, l.rs, l.specs, l.sig.Instance)
}

// aggregate completes res from the lane's state so far: the video-level
// count / track listing, the virtual cost (private work plus the lane's
// accumulated share of its group's scans) and memo statistics. It only
// reads the lane, so a snapshot copy and the final result share it.
func (l *lane) aggregate(res *Result) {
	if agg := l.plan.Query.VideoOutput(); agg != nil {
		tracksOf := l.rs.matchedTracks[agg.Instance]
		ids := make([]int, 0, len(tracksOf))
		for id := range tracksOf {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		res.Count = len(ids)
		if agg.Kind == core.AggListTracks {
			res.TrackIDs = ids
		}
	}
	res.VirtualMS = l.virtualMS + l.sharedMS
	res.MemoHits, res.MemoMisses = l.rs.memo.Stats()
}

// Stream executes a plan over frames that arrive incrementally — the
// real-time mode of §4.1 ("This design can easily support both offline
// batch and real-time streaming analytics"). It is a handle over one
// private lane: the plan's own detector and tracker run inside the lane,
// nothing is shared with or archived for other queries, and the
// executor's options apply exactly as given (no cache is created when
// none was). Offline Run is implemented on top of it.
//
// A Stream is single-goroutine: Feed frames in capture order, read the
// per-frame verdict, and Close to obtain the aggregate Result.
type Stream struct {
	e       *Executor
	l       lane
	startMS float64
	closed  bool
}

// Verdict is the streaming per-frame outcome.
type Verdict struct {
	FrameIdx int
	Matched  bool
	// Lane is the id of the query lane the verdict belongs to on the
	// shared-scan path (MuxStream.Feed); zero for a single-query Stream.
	Lane int
	// Hit carries output objects when the frame matched and hit
	// collection is enabled; nil otherwise.
	Hit *FrameHit
	// Degraded marks a verdict produced under failure-domain
	// degradation: a fallback detector tier answered, tracker state was
	// carried forward, or a model-backed property was unavailable.
	// DegradedBy carries the provenance tag ("fallback:<model>",
	// "prop:<name>", or "unavailable").
	Degraded   bool
	DegradedBy string
}

// OpenStream validates the plan and prepares streaming state. fps is
// used only to annotate the final Result (higher-order combinators need
// it); pass the capture rate or 0.
func (e *Executor) OpenStream(p *Plan, fps int) (*Stream, error) {
	l, err := newLane(p, fps, 0)
	if err != nil {
		return nil, err
	}
	return &Stream{e: e, l: l, startMS: e.opts.Env.Clock.TotalMS()}, nil
}

// Feed processes one frame and returns its verdict. Frames must arrive
// in order; feeding after Close is an error.
func (st *Stream) Feed(f *video.Frame) (Verdict, error) {
	if st.closed {
		return Verdict{}, fmt.Errorf("exec: Feed on closed stream")
	}
	st.e.opts.Env.Clock.StartFrame(f.Index)
	return st.e.step(&st.l, f, nil, nil)
}

// feedFrame implements frameSink.
func (st *Stream) feedFrame(f *video.Frame) error {
	_, err := st.Feed(f)
	return err
}

// Close finalizes aggregation and returns the accumulated result. It is
// idempotent.
func (st *Stream) Close() *Result {
	if st.closed {
		return st.l.res
	}
	st.closed = true
	clock := st.e.opts.Env.Clock
	clock.FlushFrames()
	st.l.aggregate(st.l.res)
	// A Stream has its executor's clock to itself between open and
	// close, so its cost is the ledger delta — not the per-frame sums a
	// mux lane must keep to tell its work from its siblings'.
	st.l.res.VirtualMS = clock.TotalMS() - st.startMS
	return st.l.res
}

// frameSink is the receiving end of the offline driver: a Stream (one
// private lane) or a MuxStream (every attached lane).
type frameSink interface {
	feedFrame(f *video.Frame) error
}

// feed is the one offline frame driver: every batch entry point —
// Run, RunMux, the residual passes of index verification and fidelity
// replay, MuxStream.FeedRange — pulls frames from, from+stride, … below
// to out of src and pushes each into sink, stopping at the first error.
// Options.MaxFrames caps how many frames are fed (canary profiling).
func (e *Executor) feed(sink frameSink, src video.FrameSource, from, to, stride int) error {
	if max := e.opts.MaxFrames; max > 0 && from+max*stride < to {
		to = from + max*stride
	}
	for f := from; f < to; f += stride {
		if err := sink.feedFrame(src.FrameAt(f)); err != nil {
			return err
		}
	}
	return nil
}

// Run executes the plan over the whole source: the offline batch mode of
// §4.1, a thin driver over the streaming path so both modes share one
// implementation.
func (e *Executor) Run(p *Plan, src video.FrameSource) (*Result, error) {
	st, err := e.OpenStream(p, src.SourceFPS())
	if err != nil {
		return nil, err
	}
	if err := e.feed(st, src, 0, src.NumFrames(), 1); err != nil {
		return nil, err
	}
	return st.Close(), nil
}
