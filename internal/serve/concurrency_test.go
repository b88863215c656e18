package serve

// Concurrency contract of the per-source lock hierarchy (DESIGN.md §6):
// a synchronous query holds no lock a tick or another request needs, a
// concurrent run is bit-identical to a serial replay of the order in
// which its operations took effect, and shutdown waits for what is in
// flight. Run with -race.

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vqpy"

	"vqpy/internal/config"
)

// within fails the test when f has not returned after ten seconds — the
// shape a lock held across the wrong call takes in a test.
func within(t *testing.T, what string, f func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not return", what)
	}
}

// syncOp is one synchronous query against a server; the reply is the
// mode's summary struct.
type syncOp struct {
	name string
	run  func(s *Server) (any, error)
}

func searchOp(source string) syncOp {
	return syncOp{"search " + source, func(s *Server) (any, error) {
		return s.Search(SearchRequest{Source: source, Query: "redcar"})
	}}
}

func fidelityOp(source string, accuracy float64) syncOp {
	return syncOp{"fidelity " + source, func(s *Server) (any, error) {
		return s.FidelityQuery(FidelityRequest{Source: source, Query: "redcar", Accuracy: accuracy})
	}}
}

func textOp(source, text string, eager bool) syncOp {
	return syncOp{"text " + source, func(s *Server) (any, error) {
		return s.TextQuery(TextRequest{Source: source, Text: text, Eager: eager})
	}}
}

// TestSyncQueryHoldsNoLockATickNeeds holds each synchronous mode open on
// cityflow and requires a tick on the other source, a tick on the SAME
// source, a results poll on it and /streamz all to return meanwhile.
func TestSyncQueryHoldsNoLockATickNeeds(t *testing.T) {
	s := testServer(t, Config{StoreDir: t.TempDir(), IndexDir: t.TempDir(), Loop: true}, "cityflow", "banff")
	id, err := s.AttachNamed("cityflow", "redcar")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := s.StepAll(); err != nil {
			t.Fatal(err)
		}
	}
	entered, release := make(chan struct{}), make(chan struct{})
	s.hook = func(_ string, ev hookEvent) {
		if ev == evSyncRunning {
			entered <- struct{}{}
			<-release
		}
	}
	cityflow := func() SourceStat { return s.Streamz().Sources[0] }

	for _, op := range []syncOp{searchOp("cityflow"), fidelityOp("cityflow", 0.9), textOp("cityflow", "red car stopped", false)} {
		done := make(chan error, 1)
		go func() {
			_, err := op.run(s)
			done <- err
		}()
		select {
		case <-entered:
		case err := <-done:
			t.Fatalf("%s returned before running: %v", op.name, err)
		}
		fedBefore := cityflow().FramesFed
		within(t, "Step(banff) while "+op.name+" is held", func() error { return s.Step("banff") })
		within(t, "Step(cityflow) while "+op.name+" is held", func() error { return s.Step("cityflow") })
		within(t, "results poll while "+op.name+" is held", func() error {
			_, err := s.Results("", id)
			return err
		})
		within(t, "/streamz while "+op.name+" is held", func() error {
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/streamz", nil))
			if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"sync_inflight": 1`) {
				return errors.New("no sync_inflight: 1 in " + rec.Body.String())
			}
			return nil
		})
		if st := cityflow(); st.FramesFed != fedBefore+1 || st.SyncInflight != 1 {
			t.Errorf("while %s is held: frames_fed %d (was %d), sync_inflight %d", op.name, st.FramesFed, fedBefore, st.SyncInflight)
		}
		release <- struct{}{}
		if err := <-done; err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
	}
	if n := cityflow().SyncInflight; n != 0 {
		t.Errorf("sync_inflight after the queries = %d, want 0", n)
	}
}

// stormScript is what the storm runs on one source besides its ticker:
// the queries a churn goroutine attaches, polls and detaches in turn,
// and the synchronous queries a second goroutine sends one after the
// other.
//
// A source's live lanes and its synchronous queries share the store:
// whichever first needs a detection or a label it does not hold pays
// for it and archives it for the other. That is work-conserving but
// timing-dependent — a query running beside forty ticks archives its
// records somewhere among them, and no serial order reproduces where —
// so the scripts keep the two sides from sharing NEW records, which is
// what makes bit-for-bit comparable. On cityflow the lanes and the
// queries use the same models (color_detect, yolov8m), so warm runs
// every distinct store-backed query once before the storm; on banff the
// queries start cold (the warm → extract pass races the ticks) and no
// lane uses a model they archive.
type stormScript struct {
	source   string
	standing []string
	churn    []string
	warm     []syncOp
	sync     []syncOp
}

var stormScripts = []stormScript{
	{
		source: "cityflow", standing: []string{"redcar", "plates"},
		churn: []string{"bluecars", "whitecars", "speeding", "bluecars"},
		warm:  []syncOp{searchOp("cityflow"), fidelityOp("cityflow", 0.9), fidelityOp("cityflow", 0)},
		sync: []syncOp{
			searchOp("cityflow"), textOp("cityflow", "red car stopped", false), fidelityOp("cityflow", 0.9),
			searchOp("cityflow"), textOp("cityflow", "red car stopped", true), fidelityOp("cityflow", 0),
		},
	},
	{
		source: "banff", standing: []string{"people", "speeding"},
		churn: []string{"plates", "balls", "people", "plates"},
		sync: []syncOp{
			textOp("banff", "red car stopped", false), fidelityOp("banff", 0.9),
			textOp("banff", "red car stopped", true), fidelityOp("banff", 0.85),
		},
	},
}

// stormServer builds the two-source daemon of the storm and brings it to
// the state both the concurrent run and the replay start from: standing
// queries attached at frame zero, every source fed once around its clip
// (so every synchronous query spans the whole clip whatever ticks race
// it, and the live scan groups are archived), the warm queries run.
func stormServer(t *testing.T) (*Server, map[string][]int) {
	t.Helper()
	s := testServer(t, Config{Seconds: 2, Loop: true, StoreDir: t.TempDir(), IndexDir: t.TempDir()}, "cityflow", "banff")
	standing := map[string][]int{}
	for _, sc := range stormScripts {
		for _, q := range sc.standing {
			id, err := s.AttachNamed(sc.source, q)
			if err != nil {
				t.Fatal(err)
			}
			standing[sc.source] = append(standing[sc.source], id)
		}
		for range s.sources[sc.source].video.Frames {
			if err := s.Step(sc.source); err != nil {
				t.Fatal(err)
			}
		}
		for _, op := range sc.warm {
			if _, err := op.run(s); err != nil {
				t.Fatalf("warm %s: %v", op.name, err)
			}
		}
	}
	return s, standing
}

// stormOutcome is everything the storm compares: per source, the churned
// lanes' final results and the synchronous replies in script order, the
// standing lanes' results and the ledger.
type stormOutcome struct {
	Churned  map[string][]*vqpy.Result
	Replies  map[string][]any
	Standing map[string][]*vqpy.Result
	TotalMS  map[string]float64
	Accounts map[string]map[string]float64
	Calls    map[string]map[string]int64
}

func newStormOutcome() *stormOutcome {
	return &stormOutcome{
		Churned: map[string][]*vqpy.Result{}, Replies: map[string][]any{}, Standing: map[string][]*vqpy.Result{},
		TotalMS: map[string]float64{}, Accounts: map[string]map[string]float64{}, Calls: map[string]map[string]int64{},
	}
}

// finish reads the standing lanes and the ledgers once the run is over.
func (o *stormOutcome) finish(t *testing.T, s *Server, standing map[string][]int) {
	t.Helper()
	for source, ids := range standing {
		for _, id := range ids {
			res, err := s.Results("", id)
			if err != nil {
				t.Fatal(err)
			}
			o.Standing[source] = append(o.Standing[source], res[source])
		}
		clock := s.sources[source].session.Clock()
		o.TotalMS[source] = clock.TotalMS()
		o.Accounts[source] = clock.Accounts()
		o.Calls[source] = clock.InvocationTotals()
	}
}

// TestStormEqualsSerialReplay runs tickers on two sources, attach /
// poll / detach churn, all three synchronous modes, result polls and
// /streamz, /metrics, /healthz scrapes all at once, recording per source
// the order in which ticks, lane changes and merged query ledgers took
// effect. A second daemon then replays each source's order serially:
// every churned lane, every synchronous reply, every standing lane and
// each source's ledger (total, accounts, invocation counts) must be
// equal bit for bit — float sums included, which is why the replay
// follows the recorded order and not an arbitrary one.
func TestStormEqualsSerialReplay(t *testing.T) {
	s, standing := stormServer(t)
	var logMu sync.Mutex
	log := map[string][]hookEvent{}
	s.hook = func(source string, ev hookEvent) {
		if ev != evSyncRunning {
			logMu.Lock()
			log[source] = append(log[source], ev)
			logMu.Unlock()
		}
	}

	got := newStormOutcome()
	var outMu sync.Mutex // guards got's maps during the storm
	var stop atomic.Bool
	var scripted, background sync.WaitGroup
	spin := func(f func()) {
		background.Add(1)
		go func() {
			defer background.Done()
			for !stop.Load() {
				f()
			}
		}()
	}
	h := s.Handler()
	for _, sc := range stormScripts {
		spin(func() {
			if err := s.Step(sc.source); err != nil {
				t.Error(err)
			}
		})
		spin(func() {
			for _, id := range standing[sc.source] {
				if _, err := s.Results("", id); err != nil {
					t.Error(err)
				}
			}
		})
		scripted.Add(2)
		go func() {
			defer scripted.Done()
			for _, q := range sc.churn {
				id, err := s.AttachNamed(sc.source, q)
				if err != nil {
					t.Error(err)
					return
				}
				for polls := 0; polls < 3; polls++ {
					if _, err := s.Results("", id); err != nil {
						t.Error(err)
					}
				}
				res, err := s.Detach("", id)
				if err != nil {
					t.Error(err)
					return
				}
				outMu.Lock()
				got.Churned[sc.source] = append(got.Churned[sc.source], res[sc.source])
				outMu.Unlock()
			}
		}()
		go func() {
			defer scripted.Done()
			for _, op := range sc.sync {
				reply, err := op.run(s)
				if err != nil {
					t.Errorf("%s: %v", op.name, err)
					return
				}
				outMu.Lock()
				got.Replies[sc.source] = append(got.Replies[sc.source], reply)
				outMu.Unlock()
			}
		}()
	}
	for _, path := range []string{"/streamz", "/metrics", "/healthz"} {
		spin(func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
			if rec.Code != http.StatusOK {
				t.Errorf("GET %s = %d", path, rec.Code)
			}
		})
	}
	scripted.Wait()
	stop.Store(true)
	background.Wait()
	if t.Failed() {
		return
	}
	got.finish(t, s, standing)

	// The serial replay: one operation at a time, source by source, in
	// the order the storm's operations took effect.
	r, rStanding := stormServer(t)
	want := newStormOutcome()
	for _, sc := range stormScripts {
		var attached []int
		churn, syncs := sc.churn, sc.sync
		for _, ev := range log[sc.source] {
			switch ev {
			case evTick:
				if err := r.Step(sc.source); err != nil {
					t.Fatal(err)
				}
			case evAttach:
				id, err := r.AttachNamed(sc.source, churn[0])
				if err != nil {
					t.Fatal(err)
				}
				attached, churn = append(attached, id), churn[1:]
			case evDetach:
				res, err := r.Detach("", attached[0])
				if err != nil {
					t.Fatal(err)
				}
				attached = attached[1:]
				want.Churned[sc.source] = append(want.Churned[sc.source], res[sc.source])
			case evMerge:
				reply, err := syncs[0].run(r)
				if err != nil {
					t.Fatalf("replay %s: %v", syncs[0].name, err)
				}
				syncs = syncs[1:]
				want.Replies[sc.source] = append(want.Replies[sc.source], reply)
			}
		}
		if len(churn) != 0 || len(syncs) != 0 || len(attached) != 0 {
			t.Fatalf("%s: the recorded order left %d attaches, %d synchronous queries, %d detaches unreplayed",
				sc.source, len(churn), len(syncs), len(attached))
		}
	}
	want.finish(t, r, rStanding)

	for _, d := range firstDiffs("", reflect.ValueOf(*got), reflect.ValueOf(*want)) {
		t.Errorf("the storm and its serial replay differ at %s", d)
	}
	for _, sc := range stormScripts {
		ticks := 0
		for _, ev := range log[sc.source] {
			if ev == evTick {
				ticks++
			}
		}
		if ticks == 0 {
			t.Errorf("%s: no tick took effect during the storm", sc.source)
		}
	}
}

// firstDiffs walks two values of one type and names where they differ
// (path: storm value vs replay value), descending into whatever
// reflect.DeepEqual calls unequal so a failure names the field, not two
// pointers.
func firstDiffs(path string, a, b reflect.Value) []string {
	if reflect.DeepEqual(a.Interface(), b.Interface()) {
		return nil
	}
	var out []string
	switch a.Kind() {
	case reflect.Ptr, reflect.Interface:
		if !a.IsNil() && !b.IsNil() && a.Elem().Type() == b.Elem().Type() {
			return firstDiffs(path, a.Elem(), b.Elem())
		}
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			out = append(out, firstDiffs(path+"."+a.Type().Field(i).Name, a.Field(i), b.Field(i))...)
		}
		return out
	case reflect.Map:
		for _, k := range a.MapKeys() {
			if bv := b.MapIndex(k); bv.IsValid() {
				out = append(out, firstDiffs(fmt.Sprintf("%s[%v]", path, k), a.MapIndex(k), bv)...)
			}
		}
		if len(out) > 0 {
			return out
		}
	case reflect.Slice:
		if a.Len() == b.Len() {
			for i := 0; i < a.Len() && len(out) < 3; i++ {
				out = append(out, firstDiffs(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i))...)
			}
			return out
		}
		return []string{fmt.Sprintf("%s: %d vs %d elements", path, a.Len(), b.Len())}
	}
	return []string{fmt.Sprintf("%s: %v vs %v", path, a.Interface(), b.Interface())}
}

// TestDrainWaitsForInflightQueries holds a synchronous query open, starts
// a drain, and requires the drain to wait for the query (which answers
// normally — the store is still open under it) while new work is
// refused with ErrDraining from the moment the drain began.
func TestDrainWaitsForInflightQueries(t *testing.T) {
	s := testServer(t, Config{StoreDir: t.TempDir()})
	if _, err := s.AttachNamed("cityflow", "redcar"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := s.StepAll(); err != nil {
			t.Fatal(err)
		}
	}
	entered, release := make(chan struct{}), make(chan struct{})
	s.hook = func(_ string, ev hookEvent) {
		if ev == evSyncRunning {
			close(entered)
			<-release
		}
	}
	type reply struct {
		sum *FidelitySummary
		err error
	}
	answered := make(chan reply, 1)
	go func() {
		sum, err := s.FidelityQuery(FidelityRequest{Source: "cityflow", Query: "redcar", Accuracy: 0.9})
		answered <- reply{sum, err}
	}()
	<-entered
	drained := make(chan DrainSummary, 1)
	go func() { drained <- s.Drain() }()
	for s.Ready() { // the drain has begun once /readyz flips
		time.Sleep(time.Millisecond)
	}
	if err := s.Step("cityflow"); !errors.Is(err, ErrDraining) {
		t.Errorf("step during the drain = %v, want ErrDraining", err)
	}
	if _, err := s.TextQuery(TextRequest{Source: "cityflow", Text: "red car stopped"}); !errors.Is(err, ErrDraining) {
		t.Errorf("text query during the drain = %v, want ErrDraining", err)
	}
	select {
	case sum := <-drained:
		t.Fatalf("drain finished under an in-flight query: %+v", sum)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if r := <-answered; r.err != nil || r.sum.Frames != 10 {
		t.Errorf("query racing the drain = %+v, %v; want its answer over 10 frames", r.sum, r.err)
	}
	if sum := <-drained; sum.QueriesDetached != 1 || !sum.StoreFlushed {
		t.Errorf("drain summary = %+v", sum)
	}
}

// TestAttachRacesRespectBudget: the admission check and the lane attach
// are one step as far as another attach can tell, even though planning
// and the attach itself hold no registry lock — racing attaches admit
// exactly as many queries as attaching one at a time.
func TestAttachRacesRespectBudget(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		req  AttachRequest
	}{
		{"per-source", Config{BudgetMS: 100, Loop: true}, AttachRequest{Source: "cityflow", Query: "redcar"}},
		// A fleet-wide attach reserves on every camera in one step.
		{"fleet", Config{BudgetMS: 100, Loop: true, FleetCams: 2}, AttachRequest{Query: "redcar", Fleet: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			serial := testServer(t, tc.cfg)
			want := 0
			for {
				if _, err := serial.Attach(tc.req); err != nil {
					break
				}
				want++
			}
			s := testServer(t, tc.cfg)
			var admitted atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 4; i++ {
						_, err := s.Attach(tc.req)
						var adm *ErrAdmission
						switch {
						case err == nil:
							admitted.Add(1)
						case !errors.As(err, &adm):
							t.Error(err)
						}
						if err := s.StepAll(); err != nil {
							t.Error(err)
						}
					}
				}()
			}
			wg.Wait()
			if got := int(admitted.Load()); got != want || want == 0 {
				t.Errorf("racing attaches admitted %d queries, one at a time admits %d", got, want)
			}
			for _, st := range s.Streamz().Sources {
				if st.Queries != want || len(st.Lanes) != want {
					t.Errorf("%s: resident queries %d, lanes %d, want %d", st.Name, st.Queries, len(st.Lanes), want)
				}
			}
		})
	}
}

// TestTenantSyncAccounting: each synchronous mode bills its tenant one
// query and the query's exact virtual cost — the ledger its forked
// clock collected, which is also what the source's clock gained.
func TestTenantSyncAccounting(t *testing.T) {
	s := testServer(t, Config{
		StoreDir: t.TempDir(), IndexDir: t.TempDir(),
		Tenants: []config.Tenant{{Name: "gold", Share: 3}, {Name: "free", Share: 1}},
	})
	if _, err := s.Attach(AttachRequest{Tenant: "gold", Source: "cityflow", Query: "redcar"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := s.StepAll(); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ledger := func() float64 { return s.Streamz().Sources[0].VirtualMS }
	before := ledger()
	for _, body := range []string{
		`{"source":"cityflow","query":"redcar","mode":"search"}`,
		`{"source":"cityflow","query":"redcar","mode":"fidelity","accuracy":0.9}`,
		`{"source":"cityflow","text":"red car stopped","mode":"text"}`,
	} {
		if code, _, m := postQueries(t, ts, body, "gold"); code != http.StatusOK {
			t.Fatalf("%s answered %d: %v", body, code, m)
		}
	}
	goldCost := ledger() - before
	code, _, m := postQueries(t, ts, `{"source":"cityflow","text":"red car stopped","mode":"text","tenant":"free"}`, "")
	if code != http.StatusOK {
		t.Fatalf("free text query answered %d: %v", code, m)
	}
	if _, err := s.TextQuery(TextRequest{Source: "cityflow", Text: "red car stopped", Tenant: "nobody"}); err == nil {
		t.Error("a synchronous query for an unknown tenant ran")
	}

	rows := map[string]TenantStat{}
	for _, row := range s.Streamz().Tenants {
		rows[row.Name] = row
	}
	if g := rows["gold"]; g.SyncQueries != 3 || g.SyncVirtualMS <= 0 || g.SyncVirtualMS < goldCost*(1-1e-9) || g.SyncVirtualMS > goldCost*(1+1e-9) {
		t.Errorf("gold billed %d synchronous queries for %v virtual ms, want 3 for the %v the source ledger gained", g.SyncQueries, g.SyncVirtualMS, goldCost)
	}
	if f := rows["free"]; f.SyncQueries != 1 || f.SyncVirtualMS != m["virtual_ms"].(float64) {
		t.Errorf("free billed %d synchronous queries for %v virtual ms, want 1 for the reply's %v", f.SyncQueries, f.SyncVirtualMS, m["virtual_ms"])
	}

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, frag := range []string{
		`vqserve_tenant_sync_queries_total{tenant="gold"} 3`,
		`vqserve_tenant_sync_queries_total{tenant="free"} 1`,
		`vqserve_tenant_sync_virtual_ms_total{tenant="gold"} `,
		`vqserve_source_sync_inflight{source="cityflow"} 0`,
	} {
		if !strings.Contains(rec.Body.String(), frag) {
			t.Errorf("/metrics missing %q", frag)
		}
	}
}

// TestLateTicksAreCounted runs the real ticker faster than a step can
// finish: every such tick returns after the next one was due and must
// show as ticks_late on /streamz and /metrics.
func TestLateTicksAreCounted(t *testing.T) {
	s := testServer(t, Config{Seconds: 2, Speed: 1e6, Loop: true})
	if _, err := s.AttachNamed("cityflow", "redcar"); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Run()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if !strings.Contains(rec.Body.String(), `vqserve_ticks_late_total{target="cityflow"} `) {
		t.Error("/metrics has no ticks_late series before the first late tick")
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.Streamz().Sources[0].TicksLate == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no late tick counted within 10s at a 33ns tick interval")
		}
		time.Sleep(time.Millisecond)
	}
	s.Close()
	if st := s.Streamz(); st.Counters["ticks_late:cityflow"] != st.Sources[0].TicksLate {
		t.Errorf("ticks_late counter %d, source row %d", st.Counters["ticks_late:cityflow"], st.Sources[0].TicksLate)
	}
}
