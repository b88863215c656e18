package exec

import (
	"vqpy/internal/core"
	"vqpy/internal/geom"
	"vqpy/internal/models"
	"vqpy/internal/video"
)

// Node is one VObj occurrence on one frame — a node of the §4.1 graph
// data model. Motion edges are represented implicitly by shared TrackID
// across frames; spatial-relation edges are RelEdge values.
//
// Built-in properties (bbox, center, score, track_id, class, frame_idx)
// live directly in struct fields and are resolved by Prop without any
// map lookup; only declared (extrinsic) properties go through the lazily
// allocated extra map. The seed allocated a six-entry map[string]any per
// detection per frame, which dominated the per-frame allocation profile.
type Node struct {
	Instance string
	TrackID  int
	TruthID  int
	Class    video.Class
	Box      geom.BBox
	Score    float64

	// FrameIdx is the index of the frame this occurrence belongs to.
	FrameIdx int
	// ClassName is the string form of the node's class ("scene" for the
	// scene VObj, which has no detector class).
	ClassName string

	// extra holds declared property values (filled by projectors).
	// Built-ins never land here; see Prop.
	extra map[string]any

	// Alive is cleared by object filters; dead nodes are skipped by
	// later operators but remain in the graph for diagnostics.
	Alive bool
}

// Prop returns the value of a property on this node: built-ins from the
// struct fields, declared properties from the projector-filled table.
func (n *Node) Prop(name string) (any, bool) {
	switch name {
	case core.PropBBox:
		return n.Box, true
	case core.PropCenter:
		return n.Box.Center(), true
	case core.PropScore:
		return n.Score, true
	case core.PropTrackID:
		return n.TrackID, true
	case core.PropClass:
		return n.ClassName, true
	case core.PropFrameIdx:
		return n.FrameIdx, true
	}
	v, ok := n.extra[name]
	return v, ok
}

// SetProp records a declared property value. Built-in names must not be
// set here; they are struct fields (VObj validation already rejects
// declared properties with built-in names).
func (n *Node) SetProp(name string, v any) {
	if n.extra == nil {
		n.extra = make(map[string]any, 4)
	}
	n.extra[name] = v
}

// hasExtra reports whether a declared property has been computed.
func (n *Node) hasExtra(name string) bool {
	_, ok := n.extra[name]
	return ok
}

// RelEdge is a spatial-relation edge between two nodes on a frame.
type RelEdge struct {
	Relation    string
	Left, Right *Node
	Props       map[string]any
	Alive       bool
}

// nodeChunk is the node arena's allocation granularity.
const nodeChunk = 32

// nodeArena hands out Node values from chunked slabs so a stream reuses
// the same memory frame after frame instead of allocating every node
// fresh. Chunks are never reallocated, so handed-out pointers stay valid
// until reset. Pointers must not outlive the frame: the only cross-frame
// retainer is track.Track.Ref, and the executor dereferences Ref solely
// for tracks matched on the current frame (Misses == 0), whose Ref was
// just overwritten with a current-frame node.
type nodeArena struct {
	chunks [][]Node
	ci, ni int
}

// alloc returns a zeroed Node, retaining (and clearing) a previously
// allocated extra map to avoid reallocating it next frame.
func (a *nodeArena) alloc() *Node {
	if a.ci == len(a.chunks) {
		a.chunks = append(a.chunks, make([]Node, nodeChunk))
	}
	n := &a.chunks[a.ci][a.ni]
	a.ni++
	if a.ni == nodeChunk {
		a.ci++
		a.ni = 0
	}
	extra := n.extra
	*n = Node{}
	if extra != nil {
		clear(extra)
		n.extra = extra
	}
	return n
}

// reset recycles all nodes. Values are cleared lazily on alloc.
func (a *nodeArena) reset() {
	a.ci, a.ni = 0, 0
}

// FrameCtx is the per-frame slice of the graph flowing between
// operators. Streams reuse one FrameCtx (and its node arena) across
// frames; see reset.
type FrameCtx struct {
	Frame   *video.Frame
	Dropped bool

	// Degraded marks the frame as answered under failure-domain
	// degradation; DegradedBy carries the first provenance tag (see
	// Verdict.DegradedBy).
	Degraded   bool
	DegradedBy string

	// Nodes maps instance name → occurrences on this frame.
	Nodes map[string][]*Node

	// Edges lists spatial-relation edges computed so far.
	Edges []*RelEdge

	raster *rasterCell
	hoi    map[string][]models.HOIPair // model name → cached per-frame HOI output
	arena  nodeArena
}

// rasterCell holds a lazily rendered raster. MuxStream points every
// lane's FrameCtx at one shared cell per frame, so a frame is rendered
// ("decoded") at most once no matter how many queries read pixels.
type rasterCell struct{ r *video.Raster }

// newFrameCtx returns an empty context for one frame.
func newFrameCtx(f *video.Frame) *FrameCtx {
	return &FrameCtx{Frame: f, Nodes: make(map[string][]*Node)}
}

// reset prepares the context for the next frame, recycling node and
// slice memory from the previous one.
func (fc *FrameCtx) reset(f *video.Frame) {
	fc.Frame = f
	fc.Dropped = false
	fc.Degraded = false
	fc.DegradedBy = ""
	for k, v := range fc.Nodes {
		fc.Nodes[k] = v[:0]
	}
	fc.Edges = fc.Edges[:0]
	fc.raster = nil
	clear(fc.hoi)
	fc.arena.reset()
}

// NewNode allocates a node from the frame's arena and registers it under
// its instance.
func (fc *FrameCtx) NewNode(instance string) *Node {
	n := fc.arena.alloc()
	n.Instance = instance
	n.FrameIdx = fc.Frame.Index
	n.Alive = true
	fc.Nodes[instance] = append(fc.Nodes[instance], n)
	return n
}

// Raster renders the frame once and caches it for the lifetime of the
// context (or of the shared cell installed by shareRaster).
func (fc *FrameCtx) Raster() *video.Raster {
	if fc.raster == nil {
		fc.raster = &rasterCell{}
	}
	if fc.raster.r == nil {
		fc.raster.r = fc.Frame.Render()
	}
	return fc.raster.r
}

// shareRaster points the context at a shared per-frame raster cell.
func (fc *FrameCtx) shareRaster(c *rasterCell) { fc.raster = c }

// AliveNodes returns the alive nodes of an instance. When every node is
// alive (the common case before any filter kills one) the instance slice
// is returned directly without allocating; callers must not mutate the
// result.
func (fc *FrameCtx) AliveNodes(instance string) []*Node {
	nodes := fc.Nodes[instance]
	alive := 0
	for _, n := range nodes {
		if n.Alive {
			alive++
		}
	}
	if alive == len(nodes) {
		return nodes
	}
	out := make([]*Node, 0, alive)
	for _, n := range nodes {
		if n.Alive {
			out = append(out, n)
		}
	}
	return out
}

// Edge returns the alive edge of the given relation connecting l and r,
// or nil.
func (fc *FrameCtx) Edge(relation string, l, r *Node) *RelEdge {
	for _, e := range fc.Edges {
		if e.Alive && e.Relation == relation && e.Left == l && e.Right == r {
			return e
		}
	}
	return nil
}

// assignment binds query instances to concrete nodes for predicate
// evaluation. It implements core.Binding: instance properties resolve
// through the assigned node, relation properties through the frame's
// spatial-relation edges.
type assignment struct {
	nodes map[string]*Node
	fc    *FrameCtx
	// relBinds maps relation name → participant instance names, needed
	// to locate the edge for a relation property lookup.
	relBinds map[string]relParticipants
}

type relParticipants struct{ left, right string }

// Prop implements core.Binding.
func (a *assignment) Prop(instance, prop string) (any, bool) {
	n, ok := a.nodes[instance]
	if !ok || n == nil {
		return nil, false
	}
	return n.Prop(prop)
}

// RelProp implements core.Binding.
func (a *assignment) RelProp(relation, prop string) (any, bool) {
	parts, ok := a.relBinds[relation]
	if !ok {
		return nil, false
	}
	l, r := a.nodes[parts.left], a.nodes[parts.right]
	if l == nil || r == nil {
		return nil, false
	}
	e := a.fc.Edge(relation, l, r)
	if e == nil {
		return nil, false
	}
	v, ok := e.Props[prop]
	return v, ok
}
