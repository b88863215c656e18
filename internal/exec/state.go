package exec

import (
	"sync"
	"sync/atomic"

	"vqpy/internal/geom"
	"vqpy/internal/track"
)

// historyWindow is the sliding window a stateful projector maintains for
// one (instance, track, dependency) triple (§4.1: "the stateful projector
// maintains a local sliding window of historical data of all of its
// dependencies").
type historyWindow struct {
	cap    int
	values []any
	frames []int
}

func newHistoryWindow(capacity int) *historyWindow {
	return &historyWindow{cap: capacity}
}

// push appends a value observed on a frame, evicting the oldest entry
// beyond capacity. Re-pushing the same frame overwrites the last entry.
func (w *historyWindow) push(frame int, v any) {
	if n := len(w.frames); n > 0 && w.frames[n-1] == frame {
		w.values[n-1] = v
		return
	}
	w.values = append(w.values, v)
	w.frames = append(w.frames, frame)
	if len(w.values) > w.cap {
		w.values = w.values[1:]
		w.frames = w.frames[1:]
	}
}

// last returns up to n most recent values, oldest first.
func (w *historyWindow) last(n int) []any {
	if n > len(w.values) {
		n = len(w.values)
	}
	return w.values[len(w.values)-n:]
}

// fnvSeed / fnvPrime are the FNV-1a constants used to spread cache keys
// across shards.
const (
	fnvSeed  = 0xcbf29ce484222325
	fnvPrime = 0x100000001b3
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

func fnvInt(h uint64, v int) uint64 {
	u := uint64(v)
	for i := 0; i < 8; i++ {
		h ^= (u >> (8 * i)) & 0xFF
		h *= fnvPrime
	}
	return h
}

// MemoStore is the object-level computation reuse table of §4.2: values
// of intrinsic properties keyed by (instance, property, track). Once
// computed, an intrinsic value is reused for every later frame in which
// the tracker re-identifies the object.
//
// A MemoStore belongs to one lane's runState and is not safe for
// concurrent use: a Stream is single-goroutine by contract and a mux
// touches its lanes — Stats included — only under MuxStream.mu.
type MemoStore struct {
	vals       map[memoKey]any
	hits, miss int
}

type memoKey struct {
	instance, prop string
	trackID        int
}

// NewMemoStore returns an empty memo store.
func NewMemoStore() *MemoStore {
	return &MemoStore{vals: make(map[memoKey]any)}
}

// Get returns the memoized value for a track's intrinsic property.
func (m *MemoStore) Get(instance, prop string, trackID int) (any, bool) {
	v, ok := m.vals[memoKey{instance, prop, trackID}]
	if ok {
		m.hits++
	} else {
		m.miss++
	}
	return v, ok
}

// Put memoizes a value.
func (m *MemoStore) Put(instance, prop string, trackID int, v any) {
	m.vals[memoKey{instance, prop, trackID}] = v
}

// Stats returns (hits, misses) for reuse diagnostics.
func (m *MemoStore) Stats() (hits, misses int) {
	return m.hits, m.miss
}

// cacheShards is the shard count for SharedCache. The cache is the one
// structure every concurrent query touches on every frame, so shards are
// sized generously to keep lock hold times from serializing workers.
const cacheShards = 16

// detKey identifies one detector invocation: (model, frame). A
// comparable struct key replaces the seed's fmt.Sprintf string keys,
// removing a per-lookup allocation and the formatting cost.
type detKey struct {
	model string
	frame int
}

func (k detKey) shard() int {
	h := fnvString(fnvSeed, k.model)
	h = fnvInt(h, k.frame)
	return int(h % cacheShards)
}

// labelKey identifies one per-crop model invocation: (model, frame,
// quantized box, object identity). The truth id participates because
// the simulated classifiers derive their noise from it — without it,
// two overlapping objects whose boxes quantize identically would share
// one cached label, and which object computed it first would depend on
// scheduling, breaking plan.RunAll's identical-to-sequential contract.
type labelKey struct {
	model          string
	frame          int
	x1, y1, x2, y2 int
	truthID        int
}

func makeLabelKey(model string, frame int, box geom.BBox, truthID int) labelKey {
	return labelKey{
		model: model, frame: frame,
		x1: int(box.X1), y1: int(box.Y1), x2: int(box.X2), y2: int(box.Y2),
		truthID: truthID,
	}
}

func (k labelKey) shard() int {
	h := fnvString(fnvSeed, k.model)
	h = fnvInt(h, k.frame)
	h = fnvInt(h, k.x1)
	h = fnvInt(h, k.y1)
	return int(h % cacheShards)
}

// flight is one in-progress computation other goroutines can wait on
// (the single-flight guard: when two queries need the same detector
// output concurrently, exactly one pays the model cost).
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// flightMap is one shard's cached values of one kind plus the
// computations in progress for keys not cached yet.
type flightMap[K comparable, V any] struct {
	vals    map[K]V
	flights map[K]*flight[V]
}

// SharedCache implements query-level computation reuse (§4.2 end, §5.3
// "VQPy-Opt"): detector outputs keyed by (model, frame) and
// classification outputs keyed by (model, frame, quantized box) are
// shared across queries executed on the same video.
//
// The cache is sharded and safe for concurrent use by many query
// streams. DoDetections and DoLabel add a single-flight guard so
// concurrent misses on the same key run the model exactly once.
type SharedCache struct {
	shards [cacheShards]cacheShard
	hits   atomic.Int64
	miss   atomic.Int64
}

type cacheShard struct {
	mu      sync.Mutex
	detects flightMap[detKey, []track.Detection]
	labels  flightMap[labelKey, any]
}

// NewSharedCache returns an empty cross-query cache.
func NewSharedCache() *SharedCache {
	c := &SharedCache{}
	for i := range c.shards {
		c.shards[i].detects.vals = make(map[detKey][]track.Detection)
		c.shards[i].labels.vals = make(map[labelKey]any)
	}
	return c
}

// cached is the one hit → join-flight → compute → publish body behind
// DoDetections and DoLabel: it returns m's value for k or computes,
// caches and returns it. Concurrent callers missing on the same key are
// deduplicated: one runs compute, the rest wait and share its output
// (and its error, which is not cached). mu guards m.
func cached[K comparable, V any](c *SharedCache, mu *sync.Mutex, m *flightMap[K, V], k K, compute func() (V, error)) (V, error) {
	mu.Lock()
	if v, ok := m.vals[k]; ok {
		mu.Unlock()
		c.hits.Add(1)
		return v, nil
	}
	if f, ok := m.flights[k]; ok {
		mu.Unlock()
		<-f.done
		if f.err == nil {
			c.hits.Add(1)
		}
		return f.val, f.err
	}
	f := &flight[V]{done: make(chan struct{})}
	if m.flights == nil {
		m.flights = make(map[K]*flight[V])
	}
	m.flights[k] = f
	mu.Unlock()
	c.miss.Add(1)

	f.val, f.err = compute()
	mu.Lock()
	if f.err == nil {
		m.vals[k] = f.val
	}
	delete(m.flights, k)
	mu.Unlock()
	close(f.done)
	return f.val, f.err
}

// DoDetections returns the cached detector output for (model, frame) or
// computes, caches and returns it, single-flighted (see cached). A nil
// cache degenerates to calling compute directly.
func (c *SharedCache) DoDetections(model string, frame int, compute func() ([]track.Detection, error)) ([]track.Detection, error) {
	if c == nil {
		return compute()
	}
	k := detKey{model, frame}
	sh := &c.shards[k.shard()]
	return cached(c, &sh.mu, &sh.detects, k, compute)
}

// DoLabel returns the cached classification for (model, frame, box,
// object) or computes, caches and returns it, deduplicating concurrent
// misses like DoDetections. A nil cache degenerates to calling compute
// directly.
func (c *SharedCache) DoLabel(model string, frame int, box geom.BBox, truthID int, compute func() (any, error)) (any, error) {
	if c == nil {
		return compute()
	}
	k := makeLabelKey(model, frame, box, truthID)
	sh := &c.shards[k.shard()]
	return cached(c, &sh.mu, &sh.labels, k, compute)
}

// Stats returns (hits, misses).
func (c *SharedCache) Stats() (hits, misses int) {
	return int(c.hits.Load()), int(c.miss.Load())
}

// runState is the mutable per-execution state: one tracker per instance,
// history windows, the memo store, and bookkeeping for video-level
// aggregation. Each Stream owns exactly one runState; it is never shared
// across goroutines.
type runState struct {
	trackers map[string]*track.Tracker
	windows  map[windowKey]*historyWindow
	memo     *MemoStore

	// matchedTracks notes tracks that satisfied the constraint at least
	// once, per instance (video-level aggregation input).
	matchedTracks map[string]map[int]bool
}

type windowKey struct {
	instance, prop string
	trackID        int
}

func newRunState() *runState {
	return &runState{
		trackers:      make(map[string]*track.Tracker),
		windows:       make(map[windowKey]*historyWindow),
		memo:          NewMemoStore(),
		matchedTracks: make(map[string]map[int]bool),
	}
}

func (rs *runState) tracker(instance string) *track.Tracker {
	tk, ok := rs.trackers[instance]
	if !ok {
		tk = track.NewTracker(track.DefaultConfig())
		rs.trackers[instance] = tk
	}
	return tk
}

func (rs *runState) window(instance, prop string, trackID, capacity int) *historyWindow {
	k := windowKey{instance, prop, trackID}
	w, ok := rs.windows[k]
	if !ok {
		w = newHistoryWindow(capacity)
		rs.windows[k] = w
	}
	return w
}

func (rs *runState) markMatched(instance string, trackID int) {
	m, ok := rs.matchedTracks[instance]
	if !ok {
		m = make(map[int]bool)
		rs.matchedTracks[instance] = m
	}
	m[trackID] = true
}
