package serve

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"vqpy/internal/config"
)

// tenantTestClock installs a manual clock on the server so token-
// bucket tests do not sleep.
func tenantTestClock(s *Server) (advance func(d time.Duration)) {
	base := time.Unix(0, 0)
	s.mu.Lock()
	s.now = func() time.Time { return base }
	s.mu.Unlock()
	return func(d time.Duration) {
		s.mu.Lock()
		base = base.Add(d)
		s.mu.Unlock()
	}
}

// attachUntilBudget attaches queryName for the tenant until its budget
// slice rejects, returning how many attaches were admitted.
func attachUntilBudget(t *testing.T, s *Server, tenant, queryName string) int {
	t.Helper()
	for n := 0; ; n++ {
		if n > 100 {
			t.Fatalf("tenant %s: no budget rejection after %d attaches", tenant, n)
		}
		_, err := s.Attach(AttachRequest{Tenant: tenant, Source: "cityflow", Query: queryName})
		if err == nil {
			continue
		}
		var tb *ErrTenantBudget
		if !errors.As(err, &tb) {
			t.Fatalf("tenant %s: attach error = %v, want ErrTenantBudget", tenant, err)
		}
		if tb.Tenant != tenant {
			t.Fatalf("rejection names tenant %q, want %q", tb.Tenant, tenant)
		}
		return n
	}
}

// TestTenantAdmissionFairness: with shares 3:1 over one budget, the
// heavy tenant admits ~3× the queries of the light one, and the light
// tenant exhausting its slice leaves the heavy tenant's headroom
// untouched — rejections are per-tenant, not global.
func TestTenantAdmissionFairness(t *testing.T) {
	// redcar estimates ~28.7 virtual ms/frame on the cityflow clip:
	// budget 160 gives free (share 1) a 40ms slice — one redcar — and
	// gold (share 3) a 120ms slice — four.
	s := testServer(t, Config{
		BudgetMS: 160,
		Tenants: []config.Tenant{
			{Name: "gold", Share: 3},
			{Name: "free", Share: 1},
		},
	})

	// Exhaust the light tenant FIRST: its 429s must not eat into gold.
	freeN := attachUntilBudget(t, s, "free", "redcar")
	goldN := attachUntilBudget(t, s, "gold", "redcar")
	if freeN < 1 {
		t.Fatalf("free admitted %d queries, want >= 1", freeN)
	}
	if goldN < 2*freeN {
		t.Errorf("gold admitted %d vs free %d; want at least 2x under 3:1 shares", goldN, freeN)
	}

	// The rejection carries the tenant's slice, not the whole budget.
	_, err := s.Attach(AttachRequest{Tenant: "free", Source: "cityflow", Query: "redcar"})
	var tb *ErrTenantBudget
	if !errors.As(err, &tb) {
		t.Fatalf("err = %v, want ErrTenantBudget", err)
	}
	if want := 160.0 * 1 / 4; tb.SliceMS != want {
		t.Errorf("free slice = %g, want %g", tb.SliceMS, want)
	}

	st := s.Streamz()
	if len(st.Tenants) != 2 {
		t.Fatalf("streamz tenants = %+v", st.Tenants)
	}
	for _, ts := range st.Tenants {
		wantResident := map[string]int{"gold": goldN, "free": freeN}[ts.Name]
		if ts.ResidentQueries != wantResident {
			t.Errorf("tenant %s resident = %d, want %d", ts.Name, ts.ResidentQueries, wantResident)
		}
		if ts.AdmissionRejected < 1 {
			t.Errorf("tenant %s admission_rejected = %d, want >= 1", ts.Name, ts.AdmissionRejected)
		}
	}
}

// TestTenantAdmissionConcurrent hammers per-tenant attach from many
// goroutines (run under -race in CI): totals per tenant must respect
// each slice exactly as in the serial case.
func TestTenantAdmissionConcurrent(t *testing.T) {
	s := testServer(t, Config{
		BudgetMS: 160,
		Tenants: []config.Tenant{
			{Name: "gold", Share: 3},
			{Name: "free", Share: 1},
		},
	})
	serialFree := attachUntilBudget(t, testServer(t, Config{
		BudgetMS: 160,
		Tenants:  []config.Tenant{{Name: "gold", Share: 3}, {Name: "free", Share: 1}},
	}), "free", "redcar")

	var wg sync.WaitGroup
	// Filled before any worker starts: the workers read the map.
	admitted := map[string]*int{"gold": new(int), "free": new(int)}
	var mu sync.Mutex
	for _, tenant := range []string{"gold", "free"} {
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(tenant string) {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					if _, err := s.Attach(AttachRequest{Tenant: tenant, Source: "cityflow", Query: "redcar"}); err == nil {
						mu.Lock()
						*admitted[tenant]++
						mu.Unlock()
					}
				}
			}(tenant)
		}
	}
	wg.Wait()
	if *admitted["free"] != serialFree {
		t.Errorf("concurrent free admissions = %d, want the serial count %d", *admitted["free"], serialFree)
	}
	if *admitted["gold"] < 2**admitted["free"] {
		t.Errorf("gold admitted %d vs free %d under concurrency", *admitted["gold"], *admitted["free"])
	}
}

// TestTenantRateLimit: the token bucket rejects the burst-exceeding
// request with a usable retry hint and refills with wall time; the
// other tenant is unaffected.
func TestTenantRateLimit(t *testing.T) {
	s := testServer(t, Config{
		Tenants: []config.Tenant{
			{Name: "gold", Share: 3},
			{Name: "free", Share: 1, RatePerSec: 1, Burst: 2},
		},
	})
	advance := tenantTestClock(s)

	for i := 0; i < 2; i++ {
		if err := s.TenantGate("free"); err != nil {
			t.Fatalf("burst request %d: %v", i, err)
		}
	}
	err := s.TenantGate("free")
	var rl *ErrRateLimited
	if !errors.As(err, &rl) {
		t.Fatalf("err = %v, want ErrRateLimited", err)
	}
	if rl.Tenant != "free" || rl.RetryAfterSec <= 0 || rl.RetryAfterSec > 1 {
		t.Errorf("rate limit = %+v, want free with 0 < retry <= 1s", rl)
	}
	// Gold has no rate limit: never throttled.
	for i := 0; i < 50; i++ {
		if err := s.TenantGate("gold"); err != nil {
			t.Fatalf("gold throttled: %v", err)
		}
	}
	// One second refills one token.
	advance(time.Second)
	if err := s.TenantGate("free"); err != nil {
		t.Fatalf("after refill: %v", err)
	}
	if err := s.TenantGate("free"); err == nil {
		t.Fatal("second request after a 1-token refill should be limited")
	}
}

// TestTenantResolution: unknown tenants are refused, the empty name
// falls back to the "default" tenant when configured, and single-
// tenant mode ignores tenant names entirely.
func TestTenantResolution(t *testing.T) {
	s := testServer(t, Config{
		Tenants: []config.Tenant{{Name: "default", Share: 1}, {Name: "gold", Share: 1}},
	})
	if err := s.TenantGate(""); err != nil {
		t.Errorf("empty tenant with a configured default: %v", err)
	}
	if err := s.TenantGate("nosuch"); err == nil {
		t.Error("unknown tenant admitted")
	}

	single := testServer(t, Config{})
	if err := single.TenantGate("anything"); err != nil {
		t.Errorf("single-tenant mode rejected a tenant name: %v", err)
	}

	noDefault := testServer(t, Config{Tenants: []config.Tenant{{Name: "gold", Share: 1}}})
	if err := noDefault.TenantGate(""); err == nil {
		t.Error("empty tenant without a default should be refused")
	}
}

// TestApplyOpsReload: a hot reload swaps budget and tenant set under
// live traffic; surviving tenants keep their bucket level (no free
// burst), new budgets govern the next admission decision.
func TestApplyOpsReload(t *testing.T) {
	s := testServer(t, Config{
		BudgetMS: 80,
		Tenants: []config.Tenant{
			{Name: "gold", Share: 3, RatePerSec: 1, Burst: 2},
			{Name: "free", Share: 1},
		},
	})
	tenantTestClock(s)

	// Drain gold's bucket, then reload with the same gold config.
	for i := 0; i < 2; i++ {
		if err := s.TenantGate("gold"); err != nil {
			t.Fatal(err)
		}
	}
	s.ApplyOps(OpsConfig{BudgetMS: 40, Tenants: []config.Tenant{
		{Name: "gold", Share: 1, RatePerSec: 1, Burst: 2},
	}})
	if err := s.TenantGate("gold"); err == nil {
		t.Error("reload refilled gold's bucket — surviving tenants must keep their level")
	}
	// free is gone.
	if err := s.TenantGate("free"); err == nil {
		t.Error("removed tenant still resolves")
	}
	// The new budget governs admission: gold now owns all of 40ms.
	_, err := s.Attach(AttachRequest{Tenant: "gold", Source: "cityflow", Query: "people"})
	var tb *ErrTenantBudget
	if errors.As(err, &tb) && tb.SliceMS != 40 {
		t.Errorf("post-reload slice = %g, want 40", tb.SliceMS)
	}
	if s.Streamz().Counters["config_reloads"] != 1 {
		t.Error("config_reloads counter not incremented")
	}
}

// TestApplyOpsRace runs reloads against concurrent attaches and
// streamz reads (the -race suite for the SIGHUP path).
func TestApplyOpsRace(t *testing.T) {
	s := testServer(t, Config{
		BudgetMS: 80,
		Tenants:  []config.Tenant{{Name: "gold", Share: 3}, {Name: "free", Share: 1}},
	})
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			s.ApplyOps(OpsConfig{BudgetMS: float64(40 + i), Tenants: []config.Tenant{
				{Name: "gold", Share: 3}, {Name: "free", Share: 1, RatePerSec: 100, Burst: 5},
			}})
		}
		close(done)
	}()
	for _, tenant := range []string{"gold", "free"} {
		wg.Add(1)
		go func(tenant string) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				id, err := s.Attach(AttachRequest{Tenant: tenant, Source: "cityflow", Query: "redcar"})
				if err == nil {
					_, _ = s.Detach(tenant, id)
				}
				_ = s.TenantGate(tenant)
			}
		}(tenant)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			_ = s.Streamz()
			_ = s.MetricsFamilies()
		}
	}()
	wg.Wait()
}

// TestHTTPTenant429 drives the tenant surface over HTTP: rate-limited
// and over-budget tenants get 429 with a Retry-After header, unknown
// tenants 400, and the other tenant keeps getting 200s throughout.
func TestHTTPTenant429(t *testing.T) {
	s := testServer(t, Config{
		BudgetMS: 80,
		Tenants: []config.Tenant{
			{Name: "gold", Share: 3, RatePerSec: 1000, Burst: 1000},
			{Name: "free", Share: 1, RatePerSec: 1, Burst: 2},
		},
	})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	do := func(tenant, method, path, body string) *http.Response {
		t.Helper()
		var rd io.Reader
		if body != "" {
			rd = strings.NewReader(body)
		}
		req, err := http.NewRequest(method, srv.URL+path, rd)
		if err != nil {
			t.Fatal(err)
		}
		if tenant != "" {
			req.Header.Set("X-Tenant", tenant)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Attach one gold query; read results as gold well past free's rate.
	resp := do("gold", "POST", "/queries", `{"source":"cityflow","query":"redcar"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gold attach = %d", resp.StatusCode)
	}
	var att attachResponse
	if err := json.NewDecoder(resp.Body).Decode(&att); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if att.Tenant != "gold" {
		t.Errorf("attach response tenant = %q, want gold", att.Tenant)
	}

	// free's burst is 2: the third request must be 429 with Retry-After,
	// while gold keeps reading 200s.
	sawLimited := false
	for i := 0; i < 4; i++ {
		r := do("free", "GET", "/queries/0/results", "")
		if r.StatusCode == http.StatusTooManyRequests {
			sawLimited = true
			if ra := r.Header.Get("Retry-After"); ra == "" {
				t.Error("429 without Retry-After header")
			}
		}
		r.Body.Close()
		g := do("gold", "GET", "/queries/0/results", "")
		if g.StatusCode != http.StatusOK {
			t.Errorf("gold read %d = %d while free is limited", i, g.StatusCode)
		}
		g.Body.Close()
	}
	if !sawLimited {
		t.Error("free never rate-limited over 4 requests at burst 2")
	}

	// Unknown tenant: 400.
	r := do("nosuch", "GET", "/queries/0/results", "")
	if r.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown tenant = %d, want 400", r.StatusCode)
	}
	r.Body.Close()

	// Over-budget attach (tenant via body field, no header): 429 + hint.
	for i := 0; i < 20; i++ {
		r := do("", "POST", "/queries", `{"source":"cityflow","query":"redcar","tenant":"gold"}`)
		if r.StatusCode == http.StatusTooManyRequests {
			if ra := r.Header.Get("Retry-After"); ra == "" {
				t.Error("budget 429 without Retry-After header")
			}
			r.Body.Close()
			return
		}
		if r.StatusCode != http.StatusOK {
			t.Fatalf("gold attach %d = %d", i, r.StatusCode)
		}
		r.Body.Close()
	}
	t.Error("gold never hit its budget slice over 20 attaches")
}

// promSample matches one non-comment line of the text exposition.
var promSample = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? (-?[0-9.eE+-]+|\+Inf|-Inf|NaN)$`)

// TestHTTPMetrics: GET /metrics serves the Prometheus text format with
// the expected families and stays ungated in multi-tenant mode.
func TestHTTPMetrics(t *testing.T) {
	s := testServer(t, Config{
		BudgetMS: 80,
		Tenants:  []config.Tenant{{Name: "gold", Share: 3}, {Name: "free", Share: 1}},
	})
	if _, err := s.Attach(AttachRequest{Tenant: "gold", Source: "cityflow", Query: "redcar"}); err != nil {
		t.Fatal(err)
	}
	if err := s.StepAll(); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics") // no X-Tenant: must not 4xx
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, frag := range []string{
		"# TYPE vqserve_up gauge",
		"vqserve_up 1",
		`vqserve_tenant_share{tenant="gold"} 3`,
		`vqserve_tenant_budget_ms{tenant="gold"} 60`,
		`vqserve_tenant_resident_queries{tenant="gold"} 1`,
		`vqserve_source_lanes{source="cityflow"} 1`,
		`vqserve_source_budget_ms{source="cityflow"} 80`,
		"# TYPE vqserve_queries_attached_total counter",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("/metrics missing %q", frag)
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !promSample.MatchString(line) {
			t.Errorf("unparseable sample line %q", line)
		}
	}
}

// TestSingleTenantBackCompat pins the pre-tenant surface: without
// configured tenants, admission rejections stay ErrAdmission (503 over
// HTTP, covered by TestHTTPAdmission503) and /metrics still serves.
func TestSingleTenantBackCompat(t *testing.T) {
	s := testServer(t, Config{BudgetMS: 40})
	if _, err := s.Attach(AttachRequest{Tenant: "ignored-name", Source: "cityflow", Query: "redcar"}); err != nil {
		t.Fatalf("single-tenant attach with a tenant name: %v", err)
	}
	_, err := s.Attach(AttachRequest{Tenant: "", Source: "cityflow", Query: "people"})
	var adm *ErrAdmission
	if !errors.As(err, &adm) {
		t.Fatalf("err = %v, want ErrAdmission (503 shape)", err)
	}
	st := s.Streamz()
	if st.Tenants != nil {
		t.Errorf("single-tenant streamz reports tenants: %+v", st.Tenants)
	}
	fams := s.MetricsFamilies()
	if len(fams) == 0 {
		t.Fatal("no metric families in single-tenant mode")
	}
	for _, f := range fams {
		if strings.HasPrefix(f.Name, "vqserve_tenant_") && len(f.Samples) > 0 {
			t.Errorf("single-tenant mode exports tenant gauges: %s", f.Name)
		}
	}
}

// TestTenantIsolationOnReadsAndDetaches: on a multi-tenant daemon a
// query answers only the tenant that attached it — another tenant's
// poll or DELETE of the same id gets the 404 of an id that does not
// exist, and the query stays attached. Covers a one-lane and a
// fleet-wide query; single-tenant mode keeps ignoring the header.
func TestTenantIsolationOnReadsAndDetaches(t *testing.T) {
	tenants := []config.Tenant{{Name: "gold", Share: 1}, {Name: "free", Share: 1}}
	s := testServer(t, Config{FleetCams: 2, Tenants: tenants})
	h := s.Handler()
	do := func(method, path, tenant string) int {
		t.Helper()
		r := httptest.NewRequest(method, path, nil)
		r.Header.Set("X-Tenant", tenant)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		if w.Code == http.StatusNotFound && !strings.Contains(w.Body.String(), "unknown query") {
			t.Errorf("%s %s as %s: 404 body %q leaks more than an unknown id does", method, path, tenant, w.Body.String())
		}
		return w.Code
	}

	one, err := s.Attach(AttachRequest{Tenant: "gold", Source: s.SourceNamesRegistered()[0], Query: "people"})
	if err != nil {
		t.Fatal(err)
	}
	wide, err := s.Attach(AttachRequest{Tenant: "gold", Query: "people", Fleet: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.StepAll(); err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{one, wide} {
		results := "/queries/" + strconv.Itoa(id) + "/results"
		if code := do("GET", results, "free"); code != http.StatusNotFound {
			t.Errorf("free polled gold's query %d: %d, want 404", id, code)
		}
		if code := do("DELETE", "/queries/"+strconv.Itoa(id), "free"); code != http.StatusNotFound {
			t.Errorf("free detached gold's query %d: %d, want 404", id, code)
		}
		if code := do("GET", results, "gold"); code != http.StatusOK {
			t.Errorf("gold polled its own query %d: %d, want 200", id, code)
		}
		if code := do("DELETE", "/queries/"+strconv.Itoa(id), "gold"); code != http.StatusOK {
			t.Errorf("gold detached its own query %d: %d, want 200", id, code)
		}
	}
	if code := do("GET", "/queries/99/results", "free"); code != http.StatusNotFound {
		t.Errorf("missing id: %d, want 404", code)
	}

	single := testServer(t, Config{})
	id, err := single.AttachNamed("cityflow", "redcar")
	if err != nil {
		t.Fatal(err)
	}
	h = single.Handler()
	if code := do("GET", "/queries/"+strconv.Itoa(id)+"/results", "anyone"); code != http.StatusOK {
		t.Errorf("single-tenant poll with a tenant header: %d, want 200", code)
	}
}
