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
//	DELETE /queries/{id}         → final result JSON
//	GET    /queries/{id}/results → live result snapshot JSON
//	                             (?since=F restricts hits to frames >= F — delta polling)
//	GET    /streamz              → sources, groups, lanes, counters, store tiers,
//	                             degradation state (breakers, quarantines, chaos counters)
//	GET    /metrics              → Prometheus text exposition (DESIGN.md §11)
//	GET    /healthz              → liveness + degradation summary (always 200)
//	GET    /readyz               → readiness (503 while draining)
//
// With tenants configured (DESIGN.md §11) every query endpoint is
// tenant-scoped: the caller names its tenant with the X-Tenant header
// (or the "tenant" body field on POSTs), requests are charged against
// the tenant's token bucket, and admission runs against the tenant's
// budget slice — both rejections answer 429 with a Retry-After header.
// /streamz, /metrics and the health probes stay ungated so a saturated
// daemon remains observable.
//
// Fleet mode (vqserve -fleet N) adds the fleet-wide surface:
//
//	POST   /fleet/queries              {"query":"redcar"} → {"id":0,"sources":[...]}
//	DELETE /fleet/queries/{id}         → final per-source results
//	GET    /fleet/queries/{id}/results → merged per-global-id view
//	                                   (?min_sources=2&window_sec=30 tunes the
//	                                   cross-camera predicate)
//
// The handlers are thin JSON adapters over the Server methods; all
// concurrency control lives there (the lock hierarchy is on Server).

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
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

// attachModeRequest is the default POST /queries body (mode "" or
// "attach"): attach a catalogue query to a source's lane. Backfill asks
// for the store-replayed attach: results cover the frames scanned
// before the query arrived (requires the daemon's -store).
type attachModeRequest struct {
	Source   string `json:"source"`
	Query    string `json:"query"`
	Backfill bool   `json:"backfill,omitempty"`
}

// searchModeRequest is the "mode":"search" body: a synchronous archive
// search (requires -store and -index). No lane attaches, the reply is
// the search summary, and track/threshold/topk tune the appearance
// predicate.
type searchModeRequest struct {
	Source    string  `json:"source"`
	Query     string  `json:"query"`
	Track     *int    `json:"track,omitempty"`
	Threshold float64 `json:"threshold,omitempty"`
	TopK      int     `json:"topk,omitempty"`
}

// fidelityModeRequest is the "mode":"fidelity" body: a synchronous
// accuracy-budgeted query (requires -store). Accuracy declares the
// floor the answer must meet, and the reply is the fidelity summary
// with the chosen tier.
type fidelityModeRequest struct {
	Source   string  `json:"source"`
	Query    string  `json:"query"`
	Accuracy float64 `json:"accuracy,omitempty"`
}

// textModeRequest is the "mode":"text" body: a synchronous language
// query over the source's fed frames. Eager asks the open-vocabulary
// verifier on every frame instead of lazily (the parity baseline).
type textModeRequest struct {
	Source string `json:"source"`
	Text   string `json:"text"`
	Eager  bool   `json:"eager,omitempty"`
}

// queryMode is one entry in the POST /queries mode registry: the wire
// value of the "mode" field and the handler that decodes the mode's
// typed request from the raw body and answers it. The tenant reaching
// handle is already resolved and charged by TenantGate.
type queryMode struct {
	name   string
	handle func(s *Server, w http.ResponseWriter, tenant string, body []byte)
}

// queryModes is the mode registry POST /queries dispatches through,
// mirroring vqbench's experiments table: one row per mode, each with
// its own typed request struct. An empty mode selects "attach", and
// the unknown-mode error lists exactly these names.
var queryModes = []queryMode{
	{name: "attach", handle: (*Server).modeAttach},
	{name: "search", handle: (*Server).modeSearch},
	{name: "fidelity", handle: (*Server).modeFidelity},
	{name: "text", handle: (*Server).modeText},
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

// attachResponse is the POST /queries reply.
type attachResponse struct {
	ID       int    `json:"id"`
	Source   string `json:"source"`
	Query    string `json:"query"`
	Tenant   string `json:"tenant,omitempty"`
	Backfill bool   `json:"backfill,omitempty"`
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
	mux.HandleFunc("POST /fleet/queries", s.handleFleetAttach)
	mux.HandleFunc("DELETE /fleet/queries/{id}", s.handleFleetDetach)
	mux.HandleFunc("GET /fleet/queries/{id}/results", s.handleFleetResults)
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

// handleAttach is POST /queries: decode the mode-independent envelope,
// charge the tenant, then dispatch through the mode registry. Every
// mode re-decodes its own typed request from the same flat body.
func (s *Server) handleAttach(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		writeErr(w, errors.New("serve: bad request body: "+err.Error()))
		return
	}
	var env queryEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		writeErr(w, errors.New("serve: bad request body: "+err.Error()))
		return
	}
	tenant := requestTenant(r, env.Tenant)
	if err := s.TenantGate(tenant); err != nil {
		writeErr(w, err)
		return
	}
	mode, err := findQueryMode(env.Mode)
	if err != nil {
		writeErr(w, err)
		return
	}
	mode.handle(s, w, tenant, body)
}

func (s *Server) modeAttach(w http.ResponseWriter, tenant string, body []byte) {
	var req attachModeRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeErr(w, errors.New("serve: bad request body: "+err.Error()))
		return
	}
	id, err := s.AttachNamedAs(tenant, req.Source, req.Query, req.Backfill)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, attachResponse{ID: id, Source: req.Source, Query: req.Query, Tenant: tenant, Backfill: req.Backfill})
}

func (s *Server) modeSearch(w http.ResponseWriter, tenant string, body []byte) {
	var req searchModeRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeErr(w, errors.New("serve: bad request body: "+err.Error()))
		return
	}
	sum, err := s.Search(SearchRequest{
		Source: req.Source, Query: req.Query,
		Track: req.Track, Threshold: req.Threshold, TopK: req.TopK,
		Tenant: tenant,
	})
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, sum)
}

func (s *Server) modeFidelity(w http.ResponseWriter, tenant string, body []byte) {
	var req fidelityModeRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeErr(w, errors.New("serve: bad request body: "+err.Error()))
		return
	}
	sum, err := s.FidelityQuery(FidelityRequest{
		Source: req.Source, Query: req.Query, Accuracy: req.Accuracy,
		Tenant: tenant,
	})
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, sum)
}

func (s *Server) modeText(w http.ResponseWriter, tenant string, body []byte) {
	var req textModeRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeErr(w, errors.New("serve: bad request body: "+err.Error()))
		return
	}
	sum, err := s.TextQuery(TextRequest{Source: req.Source, Text: req.Text, Eager: req.Eager, Tenant: tenant})
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, sum)
}

func queryID(r *http.Request) (int, error) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		return 0, errors.New("serve: bad query id: " + err.Error())
	}
	return id, nil
}

func (s *Server) handleDetach(w http.ResponseWriter, r *http.Request) {
	if err := s.TenantGate(requestTenant(r, "")); err != nil {
		writeErr(w, err)
		return
	}
	id, err := queryID(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	res, err := s.Detach(id)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, wireResult(id, res))
}

func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	if err := s.TenantGate(requestTenant(r, "")); err != nil {
		writeErr(w, err)
		return
	}
	id, err := queryID(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	since := 0
	if raw := r.URL.Query().Get("since"); raw != "" {
		since, err = strconv.Atoi(raw)
		if err != nil {
			writeErr(w, errors.New("serve: bad since frame: "+err.Error()))
			return
		}
	}
	res, err := s.ResultsSince(id, since)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, wireResult(id, res))
}

// fleetAttachRequest is the POST /fleet/queries body.
type fleetAttachRequest struct {
	Query  string `json:"query"`
	Tenant string `json:"tenant,omitempty"`
}

// fleetAttachResponse is the POST /fleet/queries reply.
type fleetAttachResponse struct {
	ID      int      `json:"id"`
	Query   string   `json:"query"`
	Sources []string `json:"sources"`
}

func (s *Server) handleFleetAttach(w http.ResponseWriter, r *http.Request) {
	var req fleetAttachRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, errors.New("serve: bad request body: "+err.Error()))
		return
	}
	tenant := requestTenant(r, req.Tenant)
	if err := s.TenantGate(tenant); err != nil {
		writeErr(w, err)
		return
	}
	id, err := s.AttachFleetAs(tenant, req.Query)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, fleetAttachResponse{ID: id, Query: req.Query, Sources: s.SourceNamesRegistered()})
}

// fleetDetachResponse is the DELETE /fleet/queries/{id} reply: the
// final per-source result summaries.
type fleetDetachResponse struct {
	ID        int                           `json:"id"`
	PerSource map[string]FleetSourceSummary `json:"per_source"`
}

func (s *Server) handleFleetDetach(w http.ResponseWriter, r *http.Request) {
	if err := s.TenantGate(requestTenant(r, "")); err != nil {
		writeErr(w, err)
		return
	}
	id, err := queryID(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	perSource, err := s.DetachFleet(id)
	if err != nil {
		writeErr(w, err)
		return
	}
	resp := fleetDetachResponse{ID: id, PerSource: make(map[string]FleetSourceSummary, len(perSource))}
	for name, res := range perSource {
		resp.PerSource[name] = FleetSourceSummary{
			FramesProcessed: res.FramesProcessed,
			MatchedFrames:   res.MatchedCount(),
			Hits:            len(res.Hits),
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleFleetResults(w http.ResponseWriter, r *http.Request) {
	if err := s.TenantGate(requestTenant(r, "")); err != nil {
		writeErr(w, err)
		return
	}
	id, err := queryID(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	minSources := 2
	windowSec := 30.0
	if raw := r.URL.Query().Get("min_sources"); raw != "" {
		if minSources, err = strconv.Atoi(raw); err != nil {
			writeErr(w, errors.New("serve: bad min_sources: "+err.Error()))
			return
		}
	}
	if raw := r.URL.Query().Get("window_sec"); raw != "" {
		if windowSec, err = strconv.ParseFloat(raw, 64); err != nil {
			writeErr(w, errors.New("serve: bad window_sec: "+err.Error()))
			return
		}
	}
	view, err := s.FleetResults(id, minSources, windowSec)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, view)
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
