package main

// The outside-in trace. Spans (name, start, end, parent, request id)
// are recorded in memory around calls the benchmark makes — the public
// API calls of a round, the HTTP requests of a client — and around
// model calls, by registering span-recording wrappers in the session's
// model registry. Nothing inside the program is instrumented. The
// spans are written to a file when the run ends.
//
// video.FrameSource is deliberately not wrapped: the planner profiles
// on a canary only when the source is a *video.Video or a
// *video.ScenarioSource, so a wrapped source would change the plans
// the traced run measures. Frame access is timed by replay instead.

import (
	"bufio"
	"encoding/json"
	"os"
	"strings"
	"sync"
	"time"

	"vqpy/internal/geom"
	"vqpy/internal/models"
	"vqpy/internal/video"
)

// span is one timed interval. Start and End are ns since the trace
// began; Parent is the id of the span that caused it (0 = none); Req
// groups the spans of one round or one HTTP request.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Req    int32  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanTotal aggregates every span of one name, kept or not.
type spanTotal struct {
	Calls int64
	NS    int64
}

// maxSpans bounds the spans kept for the trace file; totals cover all.
const maxSpans = 100_000

// maxCaptured bounds the detector outputs kept for layer replay.
const maxCaptured = 4_000

// capturedDets is one detector call's output, replayed through the
// track and store layers after the run.
type capturedDets struct {
	model string
	frame int
	dets  []models.Detection
}

// openSpan is a driver span still running.
type openSpan struct {
	id   int32
	name string
}

type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	nextID int32
	spans  []span
	totals map[string]*spanTotal
	// stack holds the open spans of the engine goroutine; a span that
	// finishes takes its top as parent, and childNS sums, per parent
	// name, the time its children covered (self time = total − child).
	stack   []openSpan
	childNS map[string]int64
	req     int32

	filterCalls, filterDrops int64
	captured                 []capturedDets
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), totals: map[string]*spanTotal{}, childNS: map[string]int64{}}
}

// nextReq starts a new round: spans recorded from now on carry the
// next request id.
func (t *tracer) nextReq() {
	t.mu.Lock()
	t.req++
	t.mu.Unlock()
}

// recordLocked books one finished span; id 0 allocates a fresh id, and
// nested makes the innermost open span its parent.
func (t *tracer) recordLocked(id int32, name string, nested bool, req int32, start, end time.Time) {
	if id == 0 {
		t.nextID++
		id = t.nextID
	}
	parent := int32(0)
	if n := len(t.stack); nested && n > 0 {
		parent = t.stack[n-1].id
		t.childNS[t.stack[n-1].name] += end.Sub(start).Nanoseconds()
	}
	tot := t.totals[name]
	if tot == nil {
		tot = &spanTotal{}
		t.totals[name] = tot
	}
	tot.Calls++
	tot.NS += end.Sub(start).Nanoseconds()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{
			ID: id, Parent: parent, Req: req, Name: name,
			Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
		})
	}
}

// call times fn as a driver span on the engine goroutine: spans begun
// inside it (model calls, nested driver calls) become its children. A
// nil tracer just runs fn and reports its duration.
func (t *tracer) call(name string, fn func() error) (time.Duration, error) {
	if t == nil {
		start := time.Now()
		err := fn()
		return time.Since(start), err
	}
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.stack = append(t.stack, openSpan{id, name})
	req := t.req
	t.mu.Unlock()

	start := time.Now()
	err := fn()
	end := time.Now()

	t.mu.Lock()
	t.stack = t.stack[:len(t.stack)-1]
	t.recordLocked(id, name, true, req, start, end)
	t.mu.Unlock()
	return end.Sub(start), err
}

// leaf records a finished span under the engine goroutine's open span.
func (t *tracer) leaf(name string, start time.Time) {
	end := time.Now()
	t.mu.Lock()
	t.recordLocked(0, name, true, t.req, start, end)
	t.mu.Unlock()
}

// request records a finished span of a concurrent client; it has no
// parent and its own request id.
func (t *tracer) request(name string, req int32, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.recordLocked(0, name, false, req, start, end)
	t.mu.Unlock()
}

// total returns the calls and summed ns of every span of one name.
func (t *tracer) total(name string) spanTotal {
	if t == nil {
		return spanTotal{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if tot := t.totals[name]; tot != nil {
		return *tot
	}
	return spanTotal{}
}

// layerNS sums, over every span name with the given prefix, the total
// time and the self time (total minus what child spans covered).
func (t *tracer) layerNS(prefix string) (total, self int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for name, tot := range t.totals {
		if strings.HasPrefix(name, prefix) {
			total += tot.NS
			self += tot.NS - t.childNS[name]
		}
	}
	return total, self
}

// meanNS is the mean duration of the spans of one name.
func (t *tracer) meanNS(name string) float64 {
	tot := t.total(name)
	return ratio(float64(tot.NS), float64(tot.Calls))
}

// write dumps the run record and the kept spans as JSON lines.
func (t *tracer) write(path string, record map[string]any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	record["spans_kept"] = len(t.spans)
	record["spans_total"] = t.nextID
	err = enc.Encode(record)
	for i := 0; err == nil && i < len(t.spans); i++ {
		err = enc.Encode(&t.spans[i])
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Span names of the model wrappers, one per models.* metric family.
const (
	spanDetect = "models.detect"
	spanLabel  = "models.label"
	spanFilter = "models.filter"
	spanVLM    = "models.vlm"
)

// modelFamily maps a registry model onto its models.* metric family.
func modelFamily(m any) string {
	switch m.(type) {
	case models.Detector:
		return spanDetect
	case models.Classifier, models.Embedder, models.OCRModel, models.HOIModel:
		return spanLabel
	case models.BinaryFilter:
		return spanFilter
	case models.ConceptModel:
		return spanVLM
	}
	return ""
}

// wrapRegistry replaces every model of the registry with a wrapper
// that records a span per call and otherwise forwards unchanged: same
// name, same outputs, same virtual cost, and every interface the
// wrapped model implements (a stateful filter stays a Cloner, and its
// clones stay wrapped).
func (t *tracer) wrapRegistry(reg *models.Registry) {
	for _, name := range reg.Names() {
		if m, ok := reg.Get(name); ok {
			reg.Register(name, t.wrap(m))
		}
	}
}

func (t *tracer) wrap(m any) any {
	switch mm := m.(type) {
	case models.Detector:
		return tracedDetector{mm, t}
	case models.Classifier:
		return tracedClassifier{mm, t}
	case models.Embedder:
		return tracedEmbedder{mm, t}
	case models.OCRModel:
		return tracedOCR{mm, t}
	case models.HOIModel:
		return tracedHOI{mm, t}
	case models.BinaryFilter:
		if _, stateful := m.(models.Cloner); stateful {
			return tracedCloningFilter{tracedFilter{mm, t}}
		}
		return tracedFilter{mm, t}
	case models.ConceptModel:
		return tracedVLM{mm, t}
	}
	return m
}

type tracedDetector struct {
	models.Detector
	t *tracer
}

func (d tracedDetector) Detect(env *models.Env, f *video.Frame) []models.Detection {
	start := time.Now()
	out := d.Detector.Detect(env, f)
	d.t.leaf(spanDetect, start)
	d.t.mu.Lock()
	if len(d.t.captured) < maxCaptured {
		d.t.captured = append(d.t.captured, capturedDets{d.Name(), f.Index, out})
	}
	d.t.mu.Unlock()
	return out
}

type tracedClassifier struct {
	models.Classifier
	t *tracer
}

func (c tracedClassifier) Classify(env *models.Env, f *video.Frame, r *video.Raster, box geom.BBox, truthID int) string {
	start := time.Now()
	out := c.Classifier.Classify(env, f, r, box, truthID)
	c.t.leaf(spanLabel, start)
	return out
}

type tracedEmbedder struct {
	models.Embedder
	t *tracer
}

func (e tracedEmbedder) Embed(env *models.Env, f *video.Frame, box geom.BBox, truthID int) []float64 {
	start := time.Now()
	out := e.Embedder.Embed(env, f, box, truthID)
	e.t.leaf(spanLabel, start)
	return out
}

type tracedOCR struct {
	models.OCRModel
	t *tracer
}

func (o tracedOCR) ReadPlate(env *models.Env, f *video.Frame, box geom.BBox, truthID int) string {
	start := time.Now()
	out := o.OCRModel.ReadPlate(env, f, box, truthID)
	o.t.leaf(spanLabel, start)
	return out
}

type tracedHOI struct {
	models.HOIModel
	t *tracer
}

func (h tracedHOI) DetectInteractions(env *models.Env, f *video.Frame) []models.HOIPair {
	start := time.Now()
	out := h.HOIModel.DetectInteractions(env, f)
	h.t.leaf(spanLabel, start)
	return out
}

type tracedFilter struct {
	models.BinaryFilter
	t *tracer
}

func (b tracedFilter) Keep(env *models.Env, f *video.Frame) bool {
	start := time.Now()
	keep := b.BinaryFilter.Keep(env, f)
	b.t.leaf(spanFilter, start)
	b.t.mu.Lock()
	b.t.filterCalls++
	if !keep {
		b.t.filterDrops++
	}
	b.t.mu.Unlock()
	return keep
}

// tracedCloningFilter wraps a filter that carries per-stream state:
// the executor clones one instance per stream, and the clone must be
// traced too.
type tracedCloningFilter struct{ tracedFilter }

func (b tracedCloningFilter) CloneModel() any {
	return b.t.wrap(b.BinaryFilter.(models.Cloner).CloneModel())
}

type tracedVLM struct {
	models.ConceptModel
	t *tracer
}

func (v tracedVLM) AnswerConcept(env *models.Env, f *video.Frame, class video.Class, concepts []string) bool {
	start := time.Now()
	out := v.ConceptModel.AnswerConcept(env, f, class, concepts)
	v.t.leaf(spanVLM, start)
	return out
}
