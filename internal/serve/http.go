package serve

// HTTP surface of the serving daemon:
//
//	POST   /queries              {"source":"cityflow","query":"redcar"} → {"id":0,...}
//	                             (+"backfill":true to replay scanned history from the store)
//	                             (+"mode":"search" [+"track","threshold","topk"] for a
//	                             synchronous archive search — probe-then-verify over the
//	                             fed frames; requires -store and -index)
//	                             (+"mode":"fidelity" [+"accuracy"] for a synchronous
//	                             accuracy-budgeted query answered from the cheapest
//	                             archived fidelity tier meeting the floor; requires -store)
//	                             (+"mode":"text" with "text" [+"eager"] for a synchronous
//	                             language query — the cheap cascade decides most frames
//	                             and the open-vocabulary verifier answers the rest)
//	                             ({"mode":"fleet","query":"redcar"} → {"id":0,"sources":[...]}
//	                             attaches one lane per camera; requires -fleet N)
//	DELETE /queries/{id}         → final result JSON (a fleet query: per-source summaries)
//	GET    /queries/{id}/results → live result snapshot JSON
//	                             (?since=F restricts hits to frames >= F — delta polling;
//	                             a fleet query answers the merged per-global-id view,
//	                             ?min_sources=2&window_sec=30 tuning the cross-camera
//	                             predicate)
//	GET    /streamz              → sources, groups, lanes, counters, store tiers,
//	                             degradation state (breakers, quarantines, chaos counters)
//	GET    /metrics              → Prometheus text exposition (DESIGN.md §11)
//	GET    /healthz              → liveness + degradation summary (always 200)
//	GET    /readyz               → readiness (503 while draining)
//
// With tenants configured (DESIGN.md §11) every query endpoint is
// tenant-scoped: the caller names its tenant with the X-Tenant header
// (or the "tenant" body field on POSTs), requests are charged against
// the tenant's token bucket, admission runs against the tenant's budget
// slice — both rejections answer 429 with a Retry-After header — and a
// query answers only the tenant that attached it (404 for anyone else).
// /streamz, /metrics and the health probes stay ungated so a saturated
// daemon remains observable.
//
// The handlers are thin JSON adapters over the Server methods; all
// concurrency control lives there (the lock hierarchy is on Server).

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"vqpy"

	"vqpy/internal/metrics"
)

// queryEnvelope is the mode-independent part of every POST /queries
// body: the mode selects the entry in the queryModes registry, and the
// tenant (when the X-Tenant header is absent) names who to charge. The
// rest of the flat JSON body is decoded by the selected mode's own
// request struct, so existing bodies keep their exact shape.
type queryEnvelope struct {
	Mode   string `json:"mode,omitempty"`
	Tenant string `json:"tenant,omitempty"`
}

// queryMode is one entry in the POST /queries mode registry: the wire
// value of the "mode" field and the function that decodes the mode's
// typed request from the raw body and answers it. The tenant reaching
// run is already resolved and charged by TenantGate.
type queryMode struct {
	name string
	run  func(s *Server, tenant string, body []byte) (any, error)
}

// badBody words the 400 for a body that cannot be read or decoded.
func badBody(err error) error {
	return errors.New("serve: bad request body: " + err.Error())
}

// mode builds a registry row whose request type is R: the body decodes
// into a zero R, which answer receives.
func mode[R any](name string, answer func(s *Server, tenant string, req R) (any, error)) queryMode {
	return queryMode{name: name, run: func(s *Server, tenant string, body []byte) (any, error) {
		var req R
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, badBody(err)
		}
		return answer(s, tenant, req)
	}}
}

// queryModes is the mode registry POST /queries dispatches through,
// mirroring vqbench's experiments table: one row per mode, each with
// its own typed request struct. An empty mode selects "attach", and
// the unknown-mode error lists exactly these names.
var queryModes = []queryMode{
	mode("attach", func(s *Server, tenant string, req AttachRequest) (any, error) {
		req.Tenant = tenant
		id, err := s.Attach(req)
		return attachResponse{ID: id, Source: req.Source, Query: req.Query, Tenant: tenant, Backfill: req.Backfill}, err
	}),
	mode("search", func(s *Server, tenant string, req SearchRequest) (any, error) {
		req.Tenant = tenant
		return s.Search(req)
	}),
	mode("fidelity", func(s *Server, tenant string, req FidelityRequest) (any, error) {
		req.Tenant = tenant
		return s.FidelityQuery(req)
	}),
	mode("text", func(s *Server, tenant string, req TextRequest) (any, error) {
		req.Tenant = tenant
		return s.TextQuery(req)
	}),
	mode("fleet", func(s *Server, tenant string, req AttachRequest) (any, error) {
		req.Fleet, req.Tenant = true, tenant
		id, err := s.Attach(req)
		return fleetAttachResponse{ID: id, Query: req.Query, Sources: s.SourceNamesRegistered()}, err
	}),
}

// findQueryMode resolves a wire mode name against the registry; "" is
// the attach default. The error for unknown names is derived from the
// registry so the list can never drift from the dispatch table.
func findQueryMode(name string) (queryMode, error) {
	if name == "" {
		name = "attach"
	}
	for _, m := range queryModes {
		if m.name == name {
			return m, nil
		}
	}
	quoted := make([]string, len(queryModes))
	for i, m := range queryModes {
		quoted[i] = strconv.Quote(m.name)
	}
	want := strings.Join(quoted[:len(quoted)-1], ", ") + " or " + quoted[len(quoted)-1]
	return queryMode{}, errors.New("serve: unknown mode " + strconv.Quote(name) + " (want " + want + ")")
}

// attachResponse is the POST /queries reply of the "attach" mode.
type attachResponse struct {
	ID       int    `json:"id"`
	Source   string `json:"source"`
	Query    string `json:"query"`
	Tenant   string `json:"tenant,omitempty"`
	Backfill bool   `json:"backfill,omitempty"`
}

// fleetAttachResponse is the POST /queries reply of the "fleet" mode.
type fleetAttachResponse struct {
	ID      int      `json:"id"`
	Query   string   `json:"query"`
	Sources []string `json:"sources"`
}

// fleetDetachResponse is the DELETE /queries/{id} reply for a fleet
// query: the final per-source result summaries.
type fleetDetachResponse struct {
	ID        int                           `json:"id"`
	PerSource map[string]FleetSourceSummary `json:"per_source"`
}

// resultResponse wraps a query result for the wire.
type resultResponse struct {
	ID              int          `json:"id"`
	Query           string       `json:"query"`
	FramesProcessed int          `json:"frames_processed"`
	MatchedFrames   int          `json:"matched_frames"`
	Hits            int          `json:"hits"`
	Count           int          `json:"count,omitempty"`
	TrackIDs        []int        `json:"track_ids,omitempty"`
	VirtualMS       float64      `json:"virtual_ms"`
	Result          *vqpy.Result `json:"result"`
}

func wireResult(id int, res *vqpy.Result) resultResponse {
	return resultResponse{
		ID: id, Query: res.Query,
		FramesProcessed: res.FramesProcessed, MatchedFrames: res.MatchedCount(),
		Hits: len(res.Hits), Count: res.Count, TrackIDs: res.TrackIDs,
		VirtualMS: res.VirtualMS, Result: res,
	}
}

// Handler returns the daemon's HTTP mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /queries", s.handleAttach)
	mux.HandleFunc("DELETE /queries/{id}", s.handleDetach)
	mux.HandleFunc("GET /queries/{id}/results", s.handleResults)
	mux.HandleFunc("GET /streamz", s.handleStreamz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	return mux
}

// requestTenant resolves the tenant a request acts as: the X-Tenant
// header, or the body's "tenant" field when the header is absent.
func requestTenant(r *http.Request, bodyTenant string) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	return bodyTenant
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// retryAfterSeconds renders a Retry-After header value: whole seconds,
// rounded up, at least 1 (a 429 must always carry a usable hint).
func retryAfterSeconds(sec float64) string {
	n := int(math.Ceil(sec))
	if n < 1 {
		n = 1
	}
	return strconv.Itoa(n)
}

func writeErr(w http.ResponseWriter, err error) {
	var adm *ErrAdmission
	var tb *ErrTenantBudget
	var rl *ErrRateLimited
	code := http.StatusBadRequest
	switch {
	case errors.As(err, &tb):
		// Tenant-level rejections are 429, not 503: the daemon is fine,
		// THIS tenant is over ITS budget.
		w.Header().Set("Retry-After", retryAfterSeconds(tb.RetryAfterSec))
		code = http.StatusTooManyRequests
	case errors.As(err, &rl):
		w.Header().Set("Retry-After", retryAfterSeconds(rl.RetryAfterSec))
		code = http.StatusTooManyRequests
	case errors.As(err, &adm):
		code = http.StatusServiceUnavailable
	case errors.Is(err, ErrDraining):
		code = http.StatusServiceUnavailable
	case errors.Is(err, ErrNotFound):
		code = http.StatusNotFound
	}
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// handleAttach is POST /queries.
func (s *Server) handleAttach(w http.ResponseWriter, r *http.Request) {
	reply, err := s.dispatch(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, reply)
}

// dispatch answers one POST /queries: decode the mode-independent
// envelope, charge the tenant, then run the mode's registry row, which
// re-decodes its own typed request from the same flat body.
func (s *Server) dispatch(r *http.Request) (any, error) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		return nil, badBody(err)
	}
	var env queryEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		return nil, badBody(err)
	}
	tenant := requestTenant(r, env.Tenant)
	if err := s.TenantGate(tenant); err != nil {
		return nil, err
	}
	m, err := findQueryMode(env.Mode)
	if err != nil {
		return nil, err
	}
	return m.run(s, tenant, body)
}

// queryRequest is the shared preamble of the per-id endpoints: charge
// the caller's tenant, then parse the {id} path value.
func (s *Server) queryRequest(r *http.Request) (tenant string, id int, err error) {
	tenant = requestTenant(r, "")
	if err := s.TenantGate(tenant); err != nil {
		return "", 0, err
	}
	if id, err = strconv.Atoi(r.PathValue("id")); err != nil {
		return "", 0, errors.New("serve: bad query id: " + err.Error())
	}
	return tenant, id, nil
}

// handleDetach is DELETE /queries/{id}.
func (s *Server) handleDetach(w http.ResponseWriter, r *http.Request) {
	tenant, id, err := s.queryRequest(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	q, perSource, err := s.read(tenant, id, true)
	if err != nil {
		writeErr(w, err)
		return
	}
	if q.fleet {
		writeJSON(w, http.StatusOK, fleetDetachResponse{ID: id, PerSource: summarizeSources(perSource)})
		return
	}
	writeJSON(w, http.StatusOK, wireResult(id, perSource[q.lanes[0].source]))
}

// readParams are the query parameters of GET /queries/{id}/results,
// validated; the flags record which were given, because each applies to
// one kind of query only.
type readParams struct {
	since, minSources  int
	windowSec          float64
	hasSince, hasFleet bool
}

func parseReadParams(v url.Values) (readParams, error) {
	p := readParams{minSources: 2, windowSec: 30}
	var err error
	if raw := v.Get("since"); raw != "" {
		p.hasSince = true
		if p.since, err = strconv.Atoi(raw); err != nil {
			return p, errors.New("serve: bad since frame: " + err.Error())
		}
	}
	if raw := v.Get("min_sources"); raw != "" {
		p.hasFleet = true
		if p.minSources, err = strconv.Atoi(raw); err != nil || p.minSources < 0 {
			return p, fmt.Errorf("serve: bad min_sources %q: want a non-negative integer", raw)
		}
	}
	if raw := v.Get("window_sec"); raw != "" {
		p.hasFleet = true
		// "NaN" and "Inf" parse: a NaN window would drive the cross-camera
		// counts negative, and neither can be echoed back as JSON.
		p.windowSec, err = strconv.ParseFloat(raw, 64)
		if err != nil || math.IsNaN(p.windowSec) || math.IsInf(p.windowSec, 0) || p.windowSec < 0 {
			return p, fmt.Errorf("serve: bad window_sec %q: want a finite, non-negative number of seconds", raw)
		}
	}
	return p, nil
}

// handleResults is GET /queries/{id}/results: the live snapshot of a
// per-source query, or the merged cross-camera view of a fleet query.
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	tenant, id, err := s.queryRequest(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	p, err := parseReadParams(r.URL.Query())
	if err != nil {
		writeErr(w, err)
		return
	}
	q, perSource, err := s.read(tenant, id, false)
	switch {
	case err != nil:
		writeErr(w, err)
	case q.fleet && p.hasSince:
		writeErr(w, fmt.Errorf("serve: query %d is fleet-wide: since does not apply (use min_sources, window_sec)", id))
	case q.fleet:
		writeJSON(w, http.StatusOK, fleetView(q, perSource, p.minSources, p.windowSec))
	case p.hasFleet:
		writeErr(w, fmt.Errorf("serve: query %d rides one source: min_sources and window_sec do not apply (use since)", id))
	default:
		writeJSON(w, http.StatusOK, wireResult(id, hitsSince(perSource[q.lanes[0].source], p.since)))
	}
}

func (s *Server) handleStreamz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Streamz())
}

// handleMetrics is GET /metrics: the Prometheus text exposition of the
// daemon's counters and gauges (DESIGN.md §11). Never tenant-gated.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", metrics.ContentType)
	_ = metrics.WriteText(w, s.MetricsFamilies())
}

// handleHealthz is the liveness probe: always 200, with the
// degradation summary (breakers, quarantines, draining) in the body.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Health())
}

// handleReadyz is the readiness probe: 503 from the moment a drain
// starts, so load balancers route away before the listener goes down.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if !s.Ready() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}
