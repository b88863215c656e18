package fleet

import (
	"fmt"
	"sync"

	"vqpy/internal/exec"
	"vqpy/internal/video"
)

// Ticker brackets one lockstep frame tick — the batch scheduler's
// BeginTick/FlushTick pair. The engine accepts the interface so callers
// without batching can pass nil.
type Ticker interface {
	// BeginTick opens a coalescing window.
	BeginTick()
	// FlushTick books the window's deferred work.
	FlushTick()
}

// engineSource is one camera under the engine: its dynamic MuxStream,
// its frame source, and the feed position.
type engineSource struct {
	name string
	mux  *exec.MuxStream
	src  video.FrameSource
	fed  int
	done bool
}

// Attachment records one fleet-wide query: the per-source lanes it
// occupies.
type Attachment struct {
	// ID is the engine-wide fleet query id.
	ID int
	// Query names the query (shared across sources).
	Query string
	// Lanes maps source name to the MuxStream lane id on that source.
	Lanes map[string]int
}

// Engine drives a camera fleet in lockstep: one tick feeds the next
// frame of every source (in registration order, which makes global-id
// assignment deterministic), bracketing the tick with the batch
// scheduler so cross-source detector invocations coalesce. Fleet-wide
// queries attach one lane per source and read back merged per-global-id
// results. Safe for concurrent use; Step serializes against
// Attach/Detach/Merged, mirroring the MuxStream contract.
type Engine struct {
	mu      sync.Mutex
	reg     *Registry
	batch   Ticker
	sources []*engineSource
	byName  map[string]*engineSource
	queries map[int]*Attachment
	nextID  int
	ticks   int
}

// NewEngine creates a fleet engine over the given identity registry;
// batch may be nil to run unbatched (isolated-cost) lockstep.
func NewEngine(reg *Registry, batch Ticker) *Engine {
	return &Engine{
		reg:     reg,
		batch:   batch,
		byName:  make(map[string]*engineSource),
		queries: make(map[int]*Attachment),
	}
}

// Registry returns the engine's global identity registry.
func (e *Engine) Registry() *Registry { return e.reg }

// AddSource registers one camera: its dynamic MuxStream and the frame
// source feeding it. Sources must be added before the first Step and
// are fed in registration order.
func (e *Engine) AddSource(name string, mux *exec.MuxStream, src video.FrameSource) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if name == "" || mux == nil || src == nil {
		return fmt.Errorf("fleet: AddSource needs a name, a mux and a frame source")
	}
	if _, dup := e.byName[name]; dup {
		return fmt.Errorf("fleet: source %q registered twice", name)
	}
	if e.ticks > 0 {
		return fmt.Errorf("fleet: AddSource after the first tick would desynchronize the fleet")
	}
	s := &engineSource{name: name, mux: mux, src: src}
	e.sources = append(e.sources, s)
	e.byName[name] = s
	return nil
}

// SourceNames lists the registered sources in feed order.
func (e *Engine) SourceNames() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]string, len(e.sources))
	for i, s := range e.sources {
		out[i] = s.name
	}
	return out
}

// Attach admits one fleet-wide query: one pre-planned lane per source
// (plans keyed by source name must cover every registered source). On
// any per-source failure the already-attached lanes are rolled back, so
// a fleet query is either live everywhere or nowhere.
func (e *Engine) Attach(query string, plans map[string]*exec.Plan) (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.sources) == 0 {
		return 0, fmt.Errorf("fleet: Attach with no sources registered")
	}
	lanes := make(map[string]int, len(e.sources))
	for _, s := range e.sources {
		p, ok := plans[s.name]
		if !ok {
			e.rollbackLocked(lanes)
			return 0, fmt.Errorf("fleet: no plan for source %q", s.name)
		}
		lane, err := s.mux.Attach(p)
		if err != nil {
			e.rollbackLocked(lanes)
			return 0, fmt.Errorf("fleet: attach on %s: %w", s.name, err)
		}
		lanes[s.name] = lane
	}
	id := e.nextID
	e.nextID++
	e.queries[id] = &Attachment{ID: id, Query: query, Lanes: lanes}
	return id, nil
}

// rollbackLocked detaches the lanes of a partially attached fleet
// query. Callers hold e.mu.
func (e *Engine) rollbackLocked(lanes map[string]int) {
	for name, lane := range lanes {
		// The mux was attachable moments ago; a rollback failure means
		// the stream is closed, in which case the lane is gone anyway.
		_, _ = e.byName[name].mux.Detach(lane)
	}
}

// Detach removes a fleet query from every source, returning the final
// per-source results keyed by source name.
func (e *Engine) Detach(id int) (map[string]*exec.Result, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	q, ok := e.queries[id]
	if !ok {
		return nil, fmt.Errorf("fleet: unknown fleet query %d", id)
	}
	out := make(map[string]*exec.Result, len(q.Lanes))
	var firstErr error
	for name, lane := range q.Lanes {
		res, err := e.byName[name].mux.Detach(lane)
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("fleet: detach on %s: %w", name, err)
		}
		out[name] = res
	}
	delete(e.queries, id)
	return out, firstErr
}

// Step advances the fleet by one lockstep tick: each source with frames
// remaining is fed its next frame, all inside one batch window so
// same-tick detector invocations coalesce. A source whose feed fails is
// marked done and the OTHERS still complete the tick — one bad camera
// must not desynchronize or freeze its siblings; the first error is
// returned alongside. It reports whether any source advanced;
// (false, nil) means every source is exhausted.
func (e *Engine) Step() (bool, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stepLocked()
}

func (e *Engine) stepLocked() (bool, error) {
	fed := false
	if e.batch != nil {
		e.batch.BeginTick()
		defer e.batch.FlushTick()
	}
	e.ticks++
	var firstErr error
	for _, s := range e.sources {
		if s.done || s.fed >= s.src.NumFrames() {
			s.done = true
			continue
		}
		if _, err := s.mux.Feed(s.src.FrameAt(s.fed)); err != nil {
			s.done = true
			if firstErr == nil {
				firstErr = fmt.Errorf("fleet: feed %s: %w", s.name, err)
			}
			continue
		}
		s.fed++
		fed = true
	}
	return fed, firstErr
}

// Run drives Step until every source is exhausted. A per-source feed
// error does not stop the healthy cameras — they run to the end of
// their clips — but the first error is returned once the fleet drains.
func (e *Engine) Run() error {
	var firstErr error
	for {
		fed, err := e.Step()
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if !fed {
			return firstErr
		}
	}
}

// FramesFed reports each source's feed position, keyed by source name.
func (e *Engine) FramesFed() map[string]int {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[string]int, len(e.sources))
	for _, s := range e.sources {
		out[s.name] = s.fed
	}
	return out
}

// Snapshot returns one fleet query's live per-source results (copies,
// safe against further feeding), keyed by source name.
func (e *Engine) Snapshot(id int) (map[string]*exec.Result, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	q, ok := e.queries[id]
	if !ok {
		return nil, fmt.Errorf("fleet: unknown fleet query %d", id)
	}
	out := make(map[string]*exec.Result, len(q.Lanes))
	for name, lane := range q.Lanes {
		res, err := e.byName[name].mux.Snapshot(lane)
		if err != nil {
			return nil, fmt.Errorf("fleet: snapshot on %s: %w", name, err)
		}
		out[name] = res
	}
	return out, nil
}

// Merged returns one fleet query's cross-camera view: live per-source
// snapshots joined per global id with provenance.
func (e *Engine) Merged(id int) (*MergedResult, error) {
	e.mu.Lock()
	name := ""
	if q, ok := e.queries[id]; ok {
		name = q.Query
	}
	e.mu.Unlock()
	perSource, err := e.Snapshot(id)
	if err != nil {
		return nil, err
	}
	return Merge(name, perSource), nil
}

// Close closes every source's MuxStream, finalizing all lanes.
func (e *Engine) Close() {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, s := range e.sources {
		s.mux.Close()
	}
}
