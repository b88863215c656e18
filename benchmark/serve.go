package main

// serve_mixed: the operator path, through the real serve.Handler()
// over loopback TCP, from this one process.
//
// The server runs two sources without its own ticker (Speed 0): the
// benchmark is the camera. cityflow has redcar attached at frame zero
// and is stepped to the end of its clip in setup, so every synchronous
// query spans a constant number of fed frames; banff carries four
// standing queries and is ticked by the benchmark.
//
// Phase A (paced, open loop): a feeder calls Server.Step("banff") on a
// fixed schedule and each client sends requests on a fixed schedule
// from a 20-slot cycle, over one keep-alive connection.
// Ticks and requests are timed from when they were due, so a stall
// shows in everything queued behind it. Open-loop ticks on banff while
// synchronous queries hold the server on cityflow is exactly the
// cross-source head-of-line blocking the global lock causes.
//
// Phase B (capacity, closed loop): the feeder stops and the clients
// replay the cycle, minus the attach slots, as fast as replies come, one
// cycle per round.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"time"

	"vqpy"

	"vqpy/internal/metrics"
	"vqpy/internal/serve"
)

// slotKind is one kind of request in the clients' cycle.
type slotKind int

const (
	slotPoll slotKind = iota
	slotFirstVerdict
	slotText
	slotSearch
	slotFidelity
	slotStreamz
	slotMetrics
	// slotFollowUp marks the requests a first-verdict cycle sends after
	// its attach (verdict polls, the detach). They have no due time of
	// their own, so the pooled request latencies leave them out.
	slotFollowUp
	numSlotKinds
)

var slotNames = [numSlotKinds]string{"poll", "first_verdict", "text", "search", "fidelity", "streamz", "metrics", "follow_up"}

// cycle is the clients' 20-slot request cycle: 8 result polls, 3 attach
// cycles, 3 text, 3 search, 1 fidelity, 1 /streamz, 1 /metrics, with the
// expensive slots spread evenly. Its order is fixed because the tail of
// the latency distribution follows which long requests run back to
// back: ten seed-shuffled orders spread req_p95_ms by 20 % and
// tick_late_p95_ms by 30 %. The seed picks where in the cycle a run
// starts; the second client runs half a cycle apart from the first.
var cycle = []slotKind{
	slotPoll, slotText, slotPoll, slotSearch, slotFirstVerdict,
	slotPoll, slotText, slotPoll, slotSearch, slotStreamz,
	slotPoll, slotFidelity, slotPoll, slotFirstVerdict, slotText,
	slotPoll, slotSearch, slotMetrics, slotPoll, slotFirstVerdict,
}

const (
	syncSource  = "cityflow"
	tickSource  = "banff"
	syncQuery   = "redcar" // the catalogue query search and fidelity ride
	searchSlots = 3        // distinct exemplar tracks the search slots rotate
)

// standingQueries ride banff for the whole run; churnQueries are what
// the first-verdict cycles attach and detach.
var (
	standingQueries = []string{"people", "redcar", "plates", "speeding"}
	churnQueries    = []string{"bluecars", "whitecars", "balls"}
)

// syncRef is the reference reply of one synchronous query.
type syncRef struct {
	frames, matched, hits int
	chosen                string
}

type serveState struct {
	env      *runEnv
	seed     uint64
	srv      *serve.Server
	http     *http.Server
	base     string
	syncClip *vqpy.Video
	tickClip *vqpy.Video
	start    int // where in the cycle this seed's run begins
	standing []int

	exemplars   []int
	textRef     map[string]syncRef
	searchRef   map[int]syncRef
	fidelityRef syncRef
}

func (st *serveState) close() {
	if st.http != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = st.http.Shutdown(ctx)
		cancel()
	}
	if st.srv != nil {
		st.srv.Close()
	}
}

// setupServe builds the server, brings it to its steady state, computes
// the reference replies on an archive of its own, and starts listening.
func setupServe(env *runEnv) (*serveState, error) {
	// The benchmark's own copies of the clips the server generates.
	seed := serveScene
	st := &serveState{
		env: env, seed: seed,
		syncClip: vqpy.GenerateVideo(vqpy.DatasetCityFlow(seed, env.P.ServeSeconds)),
		tickClip: vqpy.GenerateVideo(vqpy.DatasetBanff(seed, env.P.ServeSeconds)),
	}
	storeDir, err := env.tempDir("serve-store")
	if err != nil {
		return nil, err
	}
	indexDir, err := env.tempDir("serve-index")
	if err != nil {
		return nil, err
	}
	st.srv, err = serve.NewServer(serve.Config{
		Seed: seed, Seconds: env.P.ServeSeconds, Speed: 0, Loop: true,
		StoreDir: storeDir, IndexDir: indexDir,
	}, []string{syncSource, tickSource})
	if err != nil {
		return nil, err
	}
	ok := false
	defer func() {
		if !ok {
			st.close()
		}
	}()
	if _, err := st.srv.AttachNamed(syncSource, syncQuery); err != nil {
		return nil, err
	}
	for range st.syncClip.Frames {
		if err := st.srv.Step(syncSource); err != nil {
			return nil, err
		}
	}
	for _, q := range standingQueries {
		id, err := st.srv.AttachNamed(tickSource, q)
		if err != nil {
			return nil, err
		}
		st.standing = append(st.standing, id)
	}
	if err := st.references(); err != nil {
		return nil, err
	}
	// Let the server's own archive, index and tiers fill before timing:
	// the first search and the first fidelity query pay a cold pass.
	if _, err := st.srv.Search(serve.SearchRequest{Source: syncSource, Query: syncQuery, Track: &st.exemplars[0]}); err != nil {
		return nil, err
	}
	if _, err := st.srv.FidelityQuery(serve.FidelityRequest{Source: syncSource, Query: syncQuery, Accuracy: fidelityFloor}); err != nil {
		return nil, err
	}

	st.start = int(splitmix64(env.Seed) % uint64(len(cycle)))

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st.base = "http://" + ln.Addr().String()
	st.http = &http.Server{Handler: st.srv.Handler()}
	go func() { _ = st.http.Serve(ln) }() // returns when close() shuts the server down
	ok = true
	return st, nil
}

// references answers every synchronous query the clients will send on
// an archive the benchmark builds itself with plain library calls over
// its own copy of the clip: the server must reply the same.
func (st *serveState) references() error {
	n := len(st.syncClip.Frames)
	st.textRef = map[string]syncRef{}
	for _, text := range serveSentences {
		res, err := newSession(st.seed, nil).Text(text, st.syncClip)
		if err != nil {
			return err
		}
		st.textRef[text] = syncRef{frames: res.Frames, matched: res.MatchedCount(), hits: len(res.Hits)}
	}

	storeDir, err := st.env.tempDir("ref-store")
	if err != nil {
		return err
	}
	indexDir, err := st.env.tempDir("ref-index")
	if err != nil {
		return err
	}
	store, err := vqpy.OpenStore(storeDir, st.seed)
	if err != nil {
		return err
	}
	defer store.Close()
	x, err := vqpy.OpenIndex(indexDir, st.seed)
	if err != nil {
		return err
	}
	defer x.Close()
	q := func() *vqpy.Query {
		q, _ := serve.BuildQuery(syncQuery)
		return q
	}
	withStore := vqpy.WithStore(store)
	s := newSession(st.seed, nil)
	if err := s.WarmSearchArchive(q(), st.syncClip, 0, withStore); err != nil {
		return err
	}
	if _, err := s.IndexArchive(x, q(), st.syncClip, 0, withStore); err != nil {
		return err
	}
	if _, st.exemplars, err = typicalTracks(x, searchSlots); err != nil {
		return fmt.Errorf("serve_mixed: %w", err)
	}
	st.searchRef = map[int]syncRef{}
	for _, t := range st.exemplars {
		res, err := newSession(st.seed, nil).Search(st.syncClip, vqpy.SearchSpec{Query: q(), Track: t}, withStore, vqpy.WithIndex(x))
		if err != nil {
			return err
		}
		a := answerOfSearch(res)
		st.searchRef[t] = syncRef{frames: n, matched: a.matchedCount(), hits: a.hits}
	}
	for _, fid := range reducedTiers() {
		if _, err := s.ArchiveFidelity(q(), st.syncClip, fid, 0, withStore); err != nil {
			return err
		}
	}
	res, err := newSession(st.seed, nil).ExecuteFidelity(q(), st.syncClip, 0, withStore, vqpy.WithMinAccuracy(fidelityFloor))
	if err != nil {
		return err
	}
	st.fidelityRef = syncRef{
		frames: n, matched: answer{matched: res.Matched}.matchedCount(), hits: len(res.Hits),
		chosen: res.Decision.ChosenCandidate().Key,
	}
	return nil
}

// reqSample is one HTTP request as a client saw it.
type reqSample struct {
	kind   slotKind
	status int
	// latency runs from when the request was due (phase A) or sent
	// (phase B, and the follow-up requests of a first-verdict cycle);
	// sendLate is how long after its due time it was sent.
	latency  time.Duration
	sendLate time.Duration
	frames   int // frames spanned by a synchronous reply
}

// client is one load-generating connection.
type client struct {
	st      *serveState
	id      int
	hc      *http.Client
	tr      *tracer
	out     *outcome
	mu      *sync.Mutex // guards out
	lastSee map[int]int // query id → frames_processed last polled
	// turn counts the slots of each kind this client has run: each kind
	// rotates its own sentences, exemplars or queries, so over whole
	// cycles a client asks the same set whatever order the seed gave.
	turn [numSlotKinds]int
	body bytes.Buffer

	samples      []reqSample
	firstVerdict []time.Duration
}

func newClient(st *serveState, id int, tr *tracer, out *outcome, mu *sync.Mutex) *client {
	return &client{
		st: st, id: id, tr: tr, out: out, mu: mu, lastSee: map[int]int{},
		hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}},
	}
}

func (c *client) check(ok bool, format string, args ...any) {
	c.mu.Lock()
	c.out.check(ok, format, args...)
	c.mu.Unlock()
}

// wire is the union of the reply fields the oracle reads.
type wire struct {
	ID              int    `json:"id"`
	FramesProcessed int    `json:"frames_processed"`
	Frames          int    `json:"frames"`
	SearchFrames    int    `json:"search_frames"`
	MatchedFrames   int    `json:"matched_frames"`
	Hits            int    `json:"hits"`
	Chosen          string `json:"chosen"`
	UsedIndex       bool   `json:"used_index"`
}

// decodeWire fills w from a reply body. A result snapshot runs to
// megabytes once a lane has history, and the load generator shares two
// cores with the server: fully parsing every poll would make the
// client, not the server, the bottleneck. So snapshots are scanned for
// the one field the oracle needs, frames_processed, which precedes the
// bulky result; every other reply is parsed.
func decodeWire(data []byte, snapshot bool, w *wire) error {
	if !snapshot {
		return json.Unmarshal(data, w)
	}
	const key = `"frames_processed":`
	i := bytes.Index(data, []byte(key))
	if i < 0 {
		return fmt.Errorf("result snapshot of %d bytes has no frames_processed", len(data))
	}
	rest := bytes.TrimLeft(data[i+len(key):], " ")
	_, err := fmt.Sscanf(string(rest[:min(len(rest), 24)]), "%d", &w.FramesProcessed)
	return err
}

// do sends one request and reads the whole reply. due is when the
// request should have been sent (zero: now).
func (c *client) do(kind slotKind, method, path, body string, due time.Time, into *wire) (int, error) {
	sent := time.Now()
	if due.IsZero() {
		due = sent
	}
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, c.st.base+path, rd)
	if err != nil {
		return 0, err
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	done := time.Now()
	if into != nil && resp.StatusCode == http.StatusOK {
		if err := decodeWire(c.body.Bytes(), strings.HasSuffix(path, "/results") || strings.Contains(path, "/results?"), into); err != nil {
			return 0, fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	c.samples = append(c.samples, reqSample{kind: kind, status: resp.StatusCode, latency: done.Sub(due), sendLate: sent.Sub(due)})
	c.tr.request("serve."+slotNames[kind], int32(c.id+1), sent, done)
	return resp.StatusCode, nil
}

// slot performs one slot of the cycle.
func (c *client) slot(kind slotKind, due time.Time) error {
	turn := c.turn[kind] + c.id
	c.turn[kind]++
	st := c.st
	var w wire
	switch kind {
	case slotPoll:
		id := st.standing[turn%len(st.standing)]
		since := c.lastSee[id] % len(st.tickClip.Frames)
		code, err := c.do(kind, http.MethodGet, fmt.Sprintf("/queries/%d/results?since=%d", id, since), "", due, &w)
		if err != nil {
			return err
		}
		c.check(code == http.StatusOK && w.FramesProcessed >= c.lastSee[id],
			"serve_mixed: poll of query %d: status %d, frames_processed %d after %d", id, code, w.FramesProcessed, c.lastSee[id])
		c.lastSee[id] = w.FramesProcessed

	case slotFirstVerdict:
		q := churnQueries[turn%len(churnQueries)]
		began := time.Now() // first verdict runs from when the attach is sent
		code, err := c.do(kind, http.MethodPost, "/queries", fmt.Sprintf(`{"source":%q,"query":%q}`, tickSource, q), due, &w)
		if err != nil {
			return err
		}
		if code != http.StatusOK {
			c.check(false, "serve_mixed: attach of %s: status %d", q, code)
			return nil
		}
		id := w.ID
		// Poll, once per tick interval, until the lane has a verdict; the
		// feeder keeps ticking until every client is done. (Polling five
		// times per tick was tried: what then decides the median is where
		// in the tick interval the attach lands, and ten seeds spread it
		// by 29 %.)
		pause := time.Duration(float64(time.Second) / st.env.P.TickRate)
		verdictBy := time.Now().Add(5 * time.Second)
		seen := false
		for !seen && time.Now().Before(verdictBy) {
			var r wire
			code, err := c.do(slotFollowUp, http.MethodGet, fmt.Sprintf("/queries/%d/results?since=0", id), "", time.Time{}, &r)
			if err != nil {
				return err
			}
			if code != http.StatusOK {
				break
			}
			if r.FramesProcessed > 0 {
				seen = true
				c.firstVerdict = append(c.firstVerdict, time.Since(began))
			} else {
				time.Sleep(pause)
			}
		}
		code, err = c.do(slotFollowUp, http.MethodDelete, fmt.Sprintf("/queries/%d", id), "", time.Time{}, nil)
		if err != nil {
			return err
		}
		c.check(seen && code == http.StatusOK, "serve_mixed: %s attach→verdict→detach: verdict seen %v, detach status %d", q, seen, code)

	case slotText:
		text := serveSentences[turn%len(serveSentences)]
		code, err := c.do(kind, http.MethodPost, "/queries", fmt.Sprintf(`{"mode":"text","source":%q,"text":%q}`, syncSource, text), due, &w)
		if err != nil {
			return err
		}
		ref := st.textRef[text]
		c.syncDone(w.Frames)
		c.check(code == http.StatusOK && w.Frames == ref.frames && w.MatchedFrames == ref.matched && w.Hits == ref.hits,
			"serve_mixed: text %q: status %d, frames %d matched %d hits %d, want %+v", text, code, w.Frames, w.MatchedFrames, w.Hits, ref)

	case slotSearch:
		track := st.exemplars[turn%len(st.exemplars)]
		code, err := c.do(kind, http.MethodPost, "/queries", fmt.Sprintf(`{"mode":"search","source":%q,"query":%q,"track":%d}`, syncSource, syncQuery, track), due, &w)
		if err != nil {
			return err
		}
		ref := st.searchRef[track]
		c.syncDone(w.SearchFrames)
		c.check(code == http.StatusOK && w.UsedIndex && w.SearchFrames == ref.frames && w.MatchedFrames == ref.matched && w.Hits == ref.hits,
			"serve_mixed: search for track %d: status %d, frames %d matched %d hits %d, want %+v", track, code, w.SearchFrames, w.MatchedFrames, w.Hits, ref)

	case slotFidelity:
		code, err := c.do(kind, http.MethodPost, "/queries", fmt.Sprintf(`{"mode":"fidelity","source":%q,"query":%q,"accuracy":%g}`, syncSource, syncQuery, fidelityFloor), due, &w)
		if err != nil {
			return err
		}
		ref := st.fidelityRef
		c.syncDone(w.Frames)
		c.check(code == http.StatusOK && w.Frames == ref.frames && w.MatchedFrames == ref.matched && w.Hits == ref.hits && w.Chosen == ref.chosen,
			"serve_mixed: fidelity: status %d, frames %d matched %d hits %d tier %s, want %+v", code, w.Frames, w.MatchedFrames, w.Hits, w.Chosen, ref)

	case slotStreamz, slotMetrics:
		path := "/streamz"
		if kind == slotMetrics {
			path = "/metrics"
		}
		code, err := c.do(kind, http.MethodGet, path, "", due, nil)
		if err != nil {
			return err
		}
		c.check(code == http.StatusOK, "serve_mixed: GET %s: status %d", path, code)
	}
	return nil
}

// syncDone books the frames the last synchronous reply spanned.
func (c *client) syncDone(frames int) { c.samples[len(c.samples)-1].frames = frames }

// slotAt is the i-th slot of client ci: the seed's starting point, the
// clients half a cycle apart.
func (st *serveState) slotAt(ci, i int) slotKind {
	return cycle[(st.start+ci*len(cycle)/2+i)%len(cycle)]
}

// sleepUntil waits for t or for the context to end.
func sleepUntil(ctx context.Context, t time.Time) bool {
	d := time.Until(t)
	if d <= 0 {
		return ctx.Err() == nil
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-timer.C:
		return true
	}
}

// phaseStats is what one phase of load measured.
type phaseStats struct {
	wall         time.Duration
	samples      []reqSample
	firstVerdict []time.Duration
	tickLate     []time.Duration // Step return − due, in schedule order
	ticks        int
	// framesPerS and reqPerS are the synchronous query-frames and the
	// requests per second of each closed-loop round.
	framesPerS, reqPerS []float64
}

// paced runs phase A: the feeder and every client on open-loop
// schedules, each client for the given number of whole cycles — so the
// mix of what was asked does not depend on where the seed's shuffle put
// the expensive slots.
func (st *serveState) paced(cycles int, clients []*client) (*phaseStats, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ps := &phaseStats{}
	errs := make(chan error, len(clients)+1) // one slot per goroutine: none blocks on exit
	var wg, feeder sync.WaitGroup
	start := time.Now()
	slots := cycles * len(cycle)

	// The feeder ticks until the last client has finished its last slot
	// (a first-verdict cycle begun near the end still needs frames).
	feeder.Add(1)
	go func() {
		defer feeder.Done()
		interval := time.Duration(float64(time.Second) / st.env.P.TickRate)
		for i := 0; ; i++ {
			due := start.Add(time.Duration(i) * interval)
			if !sleepUntil(ctx, due) {
				return
			}
			if err := st.srv.Step(tickSource); err != nil {
				errs <- err
				return
			}
			ps.tickLate = append(ps.tickLate, time.Since(due))
		}
	}()
	interval := time.Duration(float64(time.Second) / st.env.P.ReqRate)
	for ci, c := range clients {
		wg.Add(1)
		go func(ci int, c *client) {
			defer wg.Done()
			// Clients interleave: each starts its schedule a fraction of
			// the interval after the previous one.
			offset := time.Duration(ci) * interval / time.Duration(len(clients))
			for i := 0; i < slots; i++ {
				due := start.Add(offset + time.Duration(i)*interval)
				if !sleepUntil(ctx, due) {
					return
				}
				if err := c.slot(st.slotAt(ci, i), due); err != nil {
					errs <- err
					return
				}
			}
		}(ci, c)
	}
	wg.Wait()
	cancel()
	feeder.Wait()
	ps.wall = time.Since(start)
	ps.ticks = len(ps.tickLate)
	select {
	case err := <-errs:
		return nil, err
	default:
	}
	for _, c := range clients {
		ps.samples = append(ps.samples, c.samples...)
		ps.firstVerdict = append(ps.firstVerdict, c.firstVerdict...)
		c.samples, c.firstVerdict = nil, nil
	}
	return ps, nil
}

// closedLoop runs phase B for d, in rounds: in each round every client
// replays one whole cycle without the attach slots, sending the next
// request when the reply arrives, and the round ends when the last
// client is done. A round is fixed work, so capacity is read from the
// median round (one that met a collection does not move it). With a
// tracer, rounds alternate span recording off and on, and the overhead
// is the traced rounds' median time over the plain rounds', minus one.
func (st *serveState) closedLoop(d time.Duration, clients []*client, tr *tracer) (ps *phaseStats, overhead float64, err error) {
	ps = &phaseStats{}
	var plain, traced []float64
	for round := 0; ps.wall < d; round++ {
		on := tr != nil && round%2 == 1
		errs := make(chan error, len(clients))
		var wg sync.WaitGroup
		start := time.Now()
		for ci, c := range clients {
			c.tr = nil
			if on {
				c.tr = tr
			}
			wg.Add(1)
			go func(ci int, c *client) {
				defer wg.Done()
				for i := 0; i < len(cycle); i++ {
					kind := st.slotAt(ci, round*len(cycle)+i)
					if kind == slotFirstVerdict {
						continue
					}
					if err := c.slot(kind, time.Time{}); err != nil {
						errs <- err
						return
					}
				}
			}(ci, c)
		}
		wg.Wait()
		wall := time.Since(start)
		select {
		case err := <-errs:
			return nil, 0, err
		default:
		}
		ps.wall += wall
		requests, frames := 0, 0
		for _, c := range clients {
			requests += len(c.samples)
			frames += syncFrames(c.samples)
			ps.samples = append(ps.samples, c.samples...)
			c.samples = nil
		}
		ps.framesPerS = append(ps.framesPerS, float64(frames)/wall.Seconds())
		ps.reqPerS = append(ps.reqPerS, float64(requests)/wall.Seconds())
		if on {
			traced = append(traced, wall.Seconds())
		} else {
			plain = append(plain, wall.Seconds())
		}
	}
	for _, c := range clients {
		c.tr = tr
	}
	return ps, ratio(median(traced), median(plain)) - 1, nil
}

func latenciesMS(samples []reqSample, keep func(reqSample) bool) []float64 {
	var out []float64
	for _, s := range samples {
		if keep == nil || keep(s) {
			out = append(out, ms(s.latency))
		}
	}
	return out
}

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// scheduled keeps the requests that had a due time of their own.
func scheduled(s reqSample) bool { return s.kind != slotFollowUp }

func ofKind(kind slotKind) func(reqSample) bool {
	return func(s reqSample) bool { return s.kind == kind }
}

func syncFrames(samples []reqSample) int {
	n := 0
	for _, s := range samples {
		n += s.frames
	}
	return n
}

// virtualMS is the virtual time charged so far on every source.
func (st *serveState) virtualMS() float64 {
	total := 0.0
	for _, src := range st.srv.Streamz().Sources {
		total += src.VirtualMS
	}
	return total
}

func runServeMixed(env *runEnv) (*outcome, error) {
	o := newOutcome()
	var st *serveState
	var setups []float64
	for i := 0; i < env.P.SetupRepeats; i++ {
		if st != nil {
			st.close()
		}
		start := time.Now()
		var err error
		if st, err = setupServe(env); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer st.close()
	if env.corrupt {
		ref := st.textRef[serveSentences[0]]
		ref.matched++
		st.textRef[serveSentences[0]] = ref
	}
	var tr *tracer
	if env.Trace {
		tr = newTracer()
	}
	nClients := min(2, runtime.NumCPU())
	var mu sync.Mutex
	clients := make([]*client, nClients)
	for i := range clients {
		clients[i] = newClient(st, i, tr, o, &mu)
	}

	runtime.GC()
	mem := markMem()
	vms := st.virtualMS()
	total := time.Duration(env.Seconds * float64(time.Second))
	cycles := max(1, int(env.Seconds*env.P.PacedShare*env.P.ReqRate)/len(cycle))
	a, err := st.paced(cycles, clients)
	if err != nil {
		return nil, err
	}
	pacedFor := min(a.wall, total*9/10)
	b, overhead, err := st.closedLoop(total-pacedFor, clients, tr)
	if err != nil {
		return nil, err
	}
	after := markMem()
	vms = st.virtualMS() - vms

	queryFrames := float64(a.ticks*len(standingQueries) + syncFrames(a.samples) + syncFrames(b.samples))
	o.note("phaseA: %d ticks, %d requests, %d first verdicts in %.2fs; phaseB: %d requests in %.2fs; clients=%d",
		a.ticks, len(a.samples), len(a.firstVerdict), a.wall.Seconds(), len(b.samples), b.wall.Seconds(), nClients)

	quantiles := func(xs []float64) string {
		return fmt.Sprintf("p50 %.1f p75 %.1f p90 %.1f p95 %.1f p99 %.1f ms (n=%d)", median(xs), percentile(xs, 0.75),
			percentile(xs, 0.9), percentile(xs, 0.95), percentile(xs, 0.99), len(xs))
	}
	o.note("phaseA requests from due: %s", quantiles(latenciesMS(a.samples, scheduled)))
	o.note("phaseA tick lateness: mean %.2f %s", mean(durationsMS(a.tickLate)), quantiles(durationsMS(a.tickLate)))
	if !env.Trace {
		o.Metrics["setup_s"] = median(setups)
		o.Metrics["frames_per_s"] = median(b.framesPerS)
		o.Metrics["virtual_ms_per_frame"] = ratio(vms, queryFrames)
		o.Metrics["allocs_per_frame"] = ratio(float64(after.mallocs-mem.mallocs), queryFrames)
		reqs := latenciesMS(a.samples, scheduled)
		o.Metrics["req_p50_ms"] = median(reqs)
		o.Metrics["req_p95_ms"] = percentile(reqs, 0.95)
		o.Metrics["first_verdict_p50_ms"] = median(durationsMS(a.firstVerdict))
		o.Metrics["tick_late_p95_ms"] = percentile(durationsMS(a.tickLate), 0.95)
		o.Samples["req_p95_ms"] = len(reqs)
		o.Samples["first_verdict_p50_ms"] = len(a.firstVerdict)
		o.Samples["tick_late_p95_ms"] = len(a.tickLate)
		o.Metrics["live_heap_mb"] = liveHeapMB()
		runtime.KeepAlive(st)
		return o, nil
	}

	for _, m := range perLayer {
		o.Metrics[m.Name] = 0
	}
	lm := &layerMetrics{env: env, out: o}
	lm.set("trace_overhead_ratio", overhead)
	if err := st.layers(lm, a, b, clients[0]); err != nil {
		return nil, err
	}
	return o, tr.write(env.TraceFile, runRecord(env))
}

// inProcess times handler calls made straight into Handler().ServeHTTP
// on a recorder: no transport, no contention.
func (st *serveState) inProcess(reps int, method, path string, body func(i int) string) (ns float64, bytes int, err error) {
	h := st.srv.Handler()
	start := time.Now()
	for i := 0; i < reps; i++ {
		var rd io.Reader
		if body != nil {
			rd = strings.NewReader(body(i))
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, rd))
		if rec.Code != http.StatusOK {
			return 0, 0, fmt.Errorf("in-process %s %s: status %d: %s", method, path, rec.Code, rec.Body.String())
		}
		bytes = rec.Body.Len()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(reps), bytes, nil
}

// layers fills the serve.*, metrics.*, vql.* and store/index counter
// rows of a traced run. The load phases are over and the feeder is
// stopped, so every in-process call runs uncontended.
func (st *serveState) layers(lm *layerMetrics, a, b *phaseStats, c *client) error {
	handler := [numSlotKinds]float64{}
	var err error

	lm.set("serve.step_ns", timeEach(200, func(int) { _ = st.srv.Step(tickSource) }))

	// Attach and detach, in process.
	h := st.srv.Handler()
	var attachNS, detachNS []float64
	for i := 0; i < 9; i++ {
		body := fmt.Sprintf(`{"source":%q,"query":%q}`, tickSource, churnQueries[i%len(churnQueries)])
		rec := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/queries", strings.NewReader(body)))
		attachNS = append(attachNS, float64(time.Since(start).Nanoseconds()))
		var w wire
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &w) != nil {
			return fmt.Errorf("in-process attach: status %d", rec.Code)
		}
		rec = httptest.NewRecorder()
		start = time.Now()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, fmt.Sprintf("/queries/%d", w.ID), nil))
		detachNS = append(detachNS, float64(time.Since(start).Nanoseconds()))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("in-process detach: status %d", rec.Code)
		}
	}
	lm.set("serve.attach_ns", mean(attachNS))
	lm.set("serve.detach_ns", mean(detachNS))
	handler[slotFirstVerdict] = mean(attachNS)
	handler[slotFollowUp] = mean(detachNS) // verdict polls and detaches: both small

	fed := 0
	for _, src := range st.srv.Streamz().Sources {
		if src.Name == tickSource {
			fed = src.FramesFed
		}
	}
	since := fed % len(st.tickClip.Frames)
	var size int
	if handler[slotPoll], size, err = st.inProcess(50, http.MethodGet,
		fmt.Sprintf("/queries/%d/results?since=%d", st.standing[0], since), nil); err != nil {
		return err
	}
	lm.set("serve.results_ns", handler[slotPoll])
	lm.set("serve.results_bytes", float64(size))
	if handler[slotStreamz], _, err = st.inProcess(20, http.MethodGet, "/streamz", nil); err != nil {
		return err
	}
	lm.set("serve.streamz_ns", handler[slotStreamz])
	if handler[slotText], _, err = st.inProcess(len(serveSentences), http.MethodPost, "/queries", func(i int) string {
		return fmt.Sprintf(`{"mode":"text","source":%q,"text":%q}`, syncSource, serveSentences[i])
	}); err != nil {
		return err
	}
	lm.set("serve.text_ns", handler[slotText])
	if handler[slotSearch], _, err = st.inProcess(2*searchSlots, http.MethodPost, "/queries", func(i int) string {
		return fmt.Sprintf(`{"mode":"search","source":%q,"query":%q,"track":%d}`, syncSource, syncQuery, st.exemplars[i%searchSlots])
	}); err != nil {
		return err
	}
	lm.set("serve.search_ns", handler[slotSearch])
	if handler[slotFidelity], _, err = st.inProcess(3, http.MethodPost, "/queries", func(int) string {
		return fmt.Sprintf(`{"mode":"fidelity","source":%q,"query":%q,"accuracy":%g}`, syncSource, syncQuery, fidelityFloor)
	}); err != nil {
		return err
	}
	lm.set("serve.fidelity_ns", handler[slotFidelity])
	if handler[slotMetrics], _, err = st.inProcess(20, http.MethodGet, "/metrics", nil); err != nil {
		return err
	}
	var exposition bytes.Buffer
	lm.set("metrics.render_ns", timeEach(20, func(int) {
		exposition.Reset()
		_ = metrics.WriteText(&exposition, st.srv.MetricsFamilies()) // a bytes.Buffer does not fail
	}))
	lm.set("metrics.bytes", float64(exposition.Len()))

	// Transport: loopback latency of the cheapest endpoint, one idle
	// connection, minus its in-process handler time.
	readyz, _, err := st.inProcess(200, http.MethodGet, "/readyz", nil)
	if err != nil {
		return err
	}
	c.samples = nil
	for i := 0; i < 200; i++ {
		if _, err := c.do(slotStreamz, http.MethodGet, "/readyz", "", time.Time{}, nil); err != nil {
			return err
		}
	}
	transport := mean(latenciesMS(c.samples, nil))*1e6 - readyz
	c.samples = nil
	lm.set("serve.transport_ns", transport)

	// What the lock was asked to carry in phase A: every tick and every
	// request at its uncontended cost, over the phase's wall time.
	issued := float64(a.ticks) * lm.out.Metrics["serve.step_ns"]
	var waits, sendLate []float64
	codes := map[int]int{}
	for _, s := range a.samples {
		issued += handler[s.kind]
		if scheduled(s) {
			waits = append(waits, ms(s.latency)-(handler[s.kind]+transport)/1e6)
			sendLate = append(sendLate, ms(s.sendLate))
		}
	}
	for _, s := range append(a.samples, b.samples...) {
		codes[s.status/100]++
	}
	lm.set("serve.lock_busy_ratio", issued/float64(a.wall.Nanoseconds()))
	lm.set("serve.queue_wait_p95_ms", percentile(waits, 0.95))
	lm.set("serve.generator_late_p95_ms", percentile(sendLate, 0.95))
	lm.set("serve.status_2xx", float64(codes[2]))
	lm.set("serve.status_4xx", float64(codes[4]))
	lm.set("serve.status_5xx", float64(codes[5]))

	lm.set("serve.req_per_s", median(b.reqPerS))
	lm.set("serve.text_p50_ms", median(latenciesMS(a.samples, ofKind(slotText))))
	lm.set("serve.search_p50_ms", median(latenciesMS(a.samples, ofKind(slotSearch))))
	lm.set("serve.fidelity_p50_ms", median(latenciesMS(a.samples, ofKind(slotFidelity))))
	lm.set("serve.first_verdict_p90_ms", percentile(durationsMS(a.firstVerdict), 0.9))
	third := len(a.tickLate) / 3
	if third > 0 {
		first := percentile(durationsMS(a.tickLate[:third]), 0.95)
		last := percentile(durationsMS(a.tickLate[len(a.tickLate)-third:]), 0.95)
		lm.set("serve.backlog_growth_ratio", ratio(last, first))
	}

	vqlLayers(lm, serveSentences)
	stats := st.srv.Streamz()
	if stats.Store != nil {
		frames := float64(len(st.syncClip.Frames) + fed)
		storeRows(lm, stats.Store.Tiers, stats.Store.Counters, frames)
		lm.set("store.bytes_per_frame", float64(dirBytes(stats.Store.Dir))/frames)
	}
	if stats.Index != nil {
		indexRows(lm, stats.Index.Stats, stats.Index.Dir)
	}
	return nil
}
