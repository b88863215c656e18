package serve

// Multi-tenant QoS (DESIGN.md §11): named tenants from the typed
// config split each source's virtual-time admission budget in
// proportion to their shares, and every tenant-scoped HTTP request is
// charged against a per-tenant token bucket. The two enforcement
// points are independent failure domains:
//
//   - admission (virtual time): a tenant whose resident queries would
//     exceed its budget slice gets 429 ErrTenantBudget — the OTHER
//     tenants' slices are untouched, so one noisy tenant can never
//     starve its neighbours of attach capacity;
//   - rate limiting (wall time): a tenant hammering the API drains its
//     bucket and gets 429 ErrRateLimited with a Retry-After telling it
//     when the next token lands.
//
// With no tenants configured the daemon runs in single-tenant mode:
// one implicit tenant owns the whole budget, no rate limits, and
// admission rejections keep their historical 503 shape (ErrAdmission)
// — the pre-tenant behaviour, byte for byte.

import (
	"fmt"
	"math"
	"time"

	"vqpy/internal/config"
)

// DefaultTenantName is the tenant a request without an X-Tenant header
// (or "tenant" body field) is attributed to, when a tenant of that
// name is configured.
const DefaultTenantName = "default"

// tenantState is one configured tenant's runtime state: its config
// plus the token bucket. Guarded by Server.mu, the registry lock.
type tenantState struct {
	cfg    config.Tenant
	burst  float64 // bucket capacity (>= 1 when rate limiting is on)
	tokens float64
	last   time.Time // last refill instant
}

// refill tops the bucket up for the wall time elapsed since last.
func (t *tenantState) refill(now time.Time) {
	if t.cfg.RatePerSec <= 0 {
		return
	}
	dt := now.Sub(t.last).Seconds()
	if dt > 0 {
		t.tokens = math.Min(t.burst, t.tokens+dt*t.cfg.RatePerSec)
	}
	t.last = now
}

// take consumes one token. When the bucket is dry it reports the
// seconds until the next token lands (the Retry-After hint).
func (t *tenantState) take(now time.Time) (ok bool, retryAfter float64) {
	if t.cfg.RatePerSec <= 0 {
		return true, 0
	}
	t.refill(now)
	if t.tokens >= 1 {
		t.tokens--
		return true, 0
	}
	return false, (1 - t.tokens) / t.cfg.RatePerSec
}

// configureTenantsLocked (re)installs the tenant set. Buckets of
// tenants that survive a reload carry their fill level over (a reload
// must not hand every tenant a free burst); new tenants start full.
// Callers hold s.mu.
func (s *Server) configureTenantsLocked(list []config.Tenant) {
	old := s.tenants
	now := s.now()
	s.tenants = make(map[string]*tenantState, len(list))
	s.tenantOrder = s.tenantOrder[:0]
	s.totalShares = 0
	for _, t := range list {
		st := &tenantState{cfg: t, last: now}
		st.burst = float64(t.Burst)
		if t.RatePerSec > 0 && st.burst < 1 {
			st.burst = 1
		}
		st.tokens = st.burst
		if prev, ok := old[t.Name]; ok && prev.cfg.RatePerSec > 0 {
			prev.refill(now)
			st.tokens = math.Min(prev.tokens, st.burst)
		}
		s.tenants[t.Name] = st
		s.tenantOrder = append(s.tenantOrder, t.Name)
		s.totalShares += t.Share
	}
}

// multiTenantLocked reports whether explicit tenants are configured.
func (s *Server) multiTenantLocked() bool { return len(s.tenantOrder) > 0 }

// resolveTenantLocked maps a request's tenant name to its state. In
// single-tenant mode every name (including "") resolves to the
// implicit tenant (nil state). In multi-tenant mode "" falls back to
// the tenant named "default" when one is configured; unknown names are
// refused — a typoed tenant must not silently ride on someone else's
// budget. Callers hold s.mu.
func (s *Server) resolveTenantLocked(name string) (*tenantState, error) {
	if !s.multiTenantLocked() {
		return nil, nil
	}
	if name == "" {
		if st, ok := s.tenants[DefaultTenantName]; ok {
			return st, nil
		}
		return nil, fmt.Errorf("serve: tenant required (set X-Tenant; have %v)", s.tenantOrder)
	}
	st, ok := s.tenants[name]
	if !ok {
		return nil, fmt.Errorf("serve: unknown tenant %q (have %v)", name, s.tenantOrder)
	}
	return st, nil
}

// tenantSliceLocked is a tenant's slice of one source's per-frame
// admission budget: BudgetMS weighted by its share. 0 means
// unconstrained (no budget configured). Callers hold s.mu.
func (s *Server) tenantSliceLocked(st *tenantState) float64 {
	if st == nil || s.cfg.BudgetMS <= 0 || s.totalShares <= 0 {
		return s.cfg.BudgetMS
	}
	return s.cfg.BudgetMS * st.cfg.Share / s.totalShares
}

// ErrRateLimited marks a request refused by a tenant's token bucket
// (HTTP 429 with a Retry-After header).
type ErrRateLimited struct {
	// Tenant is the limited tenant; RetryAfterSec the seconds until its
	// next token lands.
	Tenant        string
	RetryAfterSec float64
}

// Error implements error.
func (e *ErrRateLimited) Error() string {
	return fmt.Sprintf("serve: tenant %s rate limited (retry after %.2fs)", e.Tenant, e.RetryAfterSec)
}

// ErrTenantBudget marks an attach rejected because the tenant's slice
// of the source's admission budget is exhausted (HTTP 429 with a
// Retry-After header). Other tenants are unaffected by construction —
// their slices are disjoint.
type ErrTenantBudget struct {
	// Tenant and Source locate the rejection; EstMS is the query's
	// estimated per-frame cost, LoadMS the tenant's resident load,
	// SliceMS its budget slice and ResidentQueries its lane count.
	Tenant, Source  string
	EstMS, LoadMS   float64
	SliceMS         float64
	ResidentQueries int
	// RetryAfterSec is the Retry-After hint (budget frees when a
	// resident query detaches, so this is advisory).
	RetryAfterSec float64
}

// Error implements error.
func (e *ErrTenantBudget) Error() string {
	return fmt.Sprintf("serve: tenant %s over budget on %s: +%.2f est ms/frame onto %.2f resident (%d queries) exceeds slice %.2f",
		e.Tenant, e.Source, e.EstMS, e.LoadMS, e.ResidentQueries, e.SliceMS)
}

// TenantGate charges one tenant-scoped HTTP request: resolves the
// tenant, counts the request, and takes a rate-limit token. It is the
// single entry point the HTTP handlers call before touching the query
// surface; /streamz, /metrics and the health probes stay ungated so
// operators can always observe a saturated daemon.
func (s *Server) TenantGate(tenant string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, err := s.resolveTenantLocked(tenant)
	if err != nil {
		s.counters.Add("tenant_unknown", 1)
		return err
	}
	if st == nil { // single-tenant mode: count only
		s.counters.Add("http_requests", 1)
		return nil
	}
	s.counters.Add("tenant_requests:"+st.cfg.Name, 1)
	if ok, retry := st.take(s.now()); !ok {
		s.counters.Add("tenant_rate_limited:"+st.cfg.Name, 1)
		return &ErrRateLimited{Tenant: st.cfg.Name, RetryAfterSec: retry}
	}
	return nil
}

// OpsConfig is the hot-reloadable slice of the daemon configuration —
// what a SIGHUP reload may change on a running server. Everything else
// (sources, store, fleet shape, listen address) needs a restart.
type OpsConfig struct {
	// BudgetMS replaces the per-source admission budget.
	BudgetMS float64
	// Tenants replaces the tenant set. Surviving tenants keep their
	// bucket fill; queries attached under a removed tenant keep their
	// lanes but new requests under that name are refused.
	Tenants []config.Tenant
}

// ApplyOps applies a hot reload. Safe to call while tickers run and
// requests are in flight; admission and rate decisions after the call
// see the new budgets atomically.
func (s *Server) ApplyOps(ops OpsConfig) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cfg.BudgetMS = ops.BudgetMS
	s.cfg.Tenants = ops.Tenants
	s.configureTenantsLocked(ops.Tenants)
	s.counters.Add("config_reloads", 1)
}

// TenantStat is one tenant's /streamz row.
type TenantStat struct {
	// Name and Share echo the configuration; SliceMS is the tenant's
	// per-source admission slice under the current budget.
	Name    string  `json:"name"`
	Share   float64 `json:"share"`
	SliceMS float64 `json:"budget_slice_ms_per_frame"`
	// RatePerSec / Burst / Tokens describe the rate limiter.
	RatePerSec float64 `json:"rate_per_sec"`
	Burst      int     `json:"burst"`
	Tokens     float64 `json:"tokens"`
	// ResidentQueries counts the tenant's lanes across all sources.
	ResidentQueries int `json:"resident_queries"`
	// Requests / RateLimited / AdmissionRejected are the tenant's
	// request counters.
	Requests          int64 `json:"requests"`
	RateLimited       int64 `json:"rate_limited"`
	AdmissionRejected int64 `json:"admission_rejected"`
	// SyncQueries counts the synchronous queries (search, fidelity,
	// text) run for the tenant; SyncVirtualMS is their exact virtual
	// cost, warm and extract steps included.
	SyncQueries   int64   `json:"sync_queries"`
	SyncVirtualMS float64 `json:"sync_virtual_ms"`
}

// tenantStatsLocked assembles the /streamz tenant rows in configured
// order. Callers hold s.mu.
func (s *Server) tenantStatsLocked() []TenantStat {
	if !s.multiTenantLocked() {
		return nil
	}
	now := s.now()
	out := make([]TenantStat, 0, len(s.tenantOrder))
	for _, name := range s.tenantOrder {
		st := s.tenants[name]
		st.refill(now)
		resident := 0
		for _, src := range s.order {
			_, n := s.estLoadLocked(src, name)
			resident += n
		}
		out = append(out, TenantStat{
			Name: name, Share: st.cfg.Share, SliceMS: s.tenantSliceLocked(st),
			RatePerSec: st.cfg.RatePerSec, Burst: st.cfg.Burst, Tokens: st.tokens,
			ResidentQueries:   resident,
			Requests:          s.counters.Get("tenant_requests:" + name),
			RateLimited:       s.counters.Get("tenant_rate_limited:" + name),
			AdmissionRejected: s.counters.Get("tenant_admission_rejected:" + name),
			SyncQueries:       s.counters.Get("tenant_sync_queries:" + name),
			SyncVirtualMS:     s.tenantSyncMS[name],
		})
	}
	return out
}
