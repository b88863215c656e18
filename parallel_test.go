// Parallel-scheduler contract tests at the facade level: ExecuteAll
// must produce results indistinguishable from sequential execution at
// every worker count, for basic, aggregating and higher-order nodes.
package vqpy_test

import (
	"reflect"
	"strings"
	"testing"

	"vqpy"

	"vqpy/internal/bench"
	"vqpy/internal/models"
	"vqpy/internal/video"
)

func runWorkload(t *testing.T, workers int) []*vqpy.RunResult {
	t.Helper()
	cfg := bench.Config{Seed: 99, Scale: 0.5}
	res, _, err := bench.RunWorkload(cfg, "runall", workers)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return res
}

func TestExecuteAllParallelMatchesSequential(t *testing.T) {
	seq := runWorkload(t, 1)
	for _, workers := range []int{2, 4, 8} {
		par := runWorkload(t, workers)
		if len(par) != len(seq) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(par), len(seq))
		}
		for i := range seq {
			if seq[i].Name != par[i].Name {
				t.Fatalf("workers=%d: result %d is %s, want %s", workers, i, par[i].Name, seq[i].Name)
			}
			if !reflect.DeepEqual(seq[i].Matched, par[i].Matched) {
				t.Errorf("workers=%d query %s: matched vectors differ", workers, seq[i].Name)
			}
			if !reflect.DeepEqual(seq[i].Events, par[i].Events) {
				t.Errorf("workers=%d query %s: events differ", workers, seq[i].Name)
			}
			sb, pb := seq[i].Basic, par[i].Basic
			if (sb == nil) != (pb == nil) {
				t.Errorf("workers=%d query %s: basic result presence differs", workers, seq[i].Name)
				continue
			}
			if sb == nil {
				continue
			}
			if !reflect.DeepEqual(sb.Hits, pb.Hits) {
				t.Errorf("workers=%d query %s: hits differ", workers, seq[i].Name)
			}
			if sb.Count != pb.Count || !reflect.DeepEqual(sb.TrackIDs, pb.TrackIDs) {
				t.Errorf("workers=%d query %s: aggregation differs (count %d vs %d)",
					workers, seq[i].Name, sb.Count, pb.Count)
			}
		}
	}
}

// TestExecuteAllHigherOrderNodes runs duration/temporal nodes through
// the pool: higher-order recursion must stay inside one worker and
// still match sequential output.
func TestExecuteAllHigherOrderNodes(t *testing.T) {
	v := vqpy.GenerateVideo(vqpy.DatasetJackson(7, 20))
	build := func() []vqpy.QueryNode {
		base := vqpy.NewQuery("PersonPresent").
			Use("p", vqpy.Person()).
			Where(vqpy.P("p", vqpy.PropScore).Gt(0.5))
		loiter, err := vqpy.NewDurationQuery("Loitering", base, 2)
		if err != nil {
			t.Fatal(err)
		}
		speeding := vqpy.SpeedQuery("Speeding", "car", vqpy.Car(), 10)
		return []vqpy.QueryNode{loiter, speeding}
	}
	run := func(workers int) []*vqpy.RunResult {
		s := vqpy.NewSession(7)
		s.SetNoBurn(true)
		res, err := s.ExecuteAll(build(), v, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}
	seq := run(1)
	par := run(2)
	for i := range seq {
		if !reflect.DeepEqual(seq[i].Matched, par[i].Matched) {
			t.Errorf("query %s: matched vectors differ", seq[i].Name)
		}
		if !reflect.DeepEqual(seq[i].Events, par[i].Events) {
			t.Errorf("query %s: events differ", seq[i].Name)
		}
	}
}

// TestExecuteAllMergesLedger checks the virtual clock is worker-count
// independent: forked worker ledgers must merge back into the session
// clock.
func TestExecuteAllMergesLedger(t *testing.T) {
	v := vqpy.GenerateVideo(vqpy.DatasetCityFlow(11, 10))
	nodes := func() []vqpy.QueryNode {
		var out []vqpy.QueryNode
		for _, color := range []string{"red", "blue", "black", "white"} {
			out = append(out, vqpy.NewQuery("Q"+color).
				Use("car", vqpy.Car()).
				Where(vqpy.P("car", "color").Eq(color)))
		}
		return out
	}
	run := func(workers int) float64 {
		s := vqpy.NewSession(11)
		s.SetNoBurn(true)
		if _, err := s.ExecuteAll(nodes(), v, workers); err != nil {
			t.Fatal(err)
		}
		return s.Clock().TotalMS()
	}
	seqMS, parMS := run(1), run(4)
	if diff := seqMS - parMS; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("ledger totals differ: sequential %.3f ms vs parallel %.3f ms", seqMS, parMS)
	}
	if seqMS == 0 {
		t.Error("ledger recorded no work")
	}
}

// TestExecuteAllFailingQueryNamed: one failing query among good ones
// fails the whole call with an error naming that query — at every worker
// count, without deadlocking the job feeder (workers that saw the
// failure keep draining) — and an empty node list is a no-op.
func TestExecuteAllFailingQueryNamed(t *testing.T) {
	v := vqpy.GenerateVideo(vqpy.DatasetCityFlow(11, 10))
	s := vqpy.NewSession(11)
	s.SetNoBurn(true)
	if res, err := s.ExecuteAll(nil, v, 4); err != nil || res != nil {
		t.Fatalf("empty ExecuteAll = %v, %v", res, err)
	}
	ghost := vqpy.NewVObj("Ghost", video.ClassCar).Detector("no_such_model")
	var nodes []vqpy.QueryNode
	for _, color := range []string{"red", "blue", "black", "white", "silver"} {
		nodes = append(nodes, vqpy.NewQuery("Q"+color).
			Use("car", vqpy.Car()).
			Where(vqpy.P("car", "color").Eq(color)))
	}
	bad := vqpy.NewQuery("Haunted").Use("g", ghost).Where(vqpy.P("g", vqpy.PropScore).Gt(0.5))
	nodes = append(nodes[:2], append([]vqpy.QueryNode{bad}, nodes[2:]...)...)
	for _, workers := range []int{1, 2, 4} {
		_, err := s.ExecuteAll(nodes, v, workers)
		if err == nil || !strings.Contains(err.Error(), "Haunted") {
			t.Errorf("workers=%d: err = %v, want one naming query Haunted", workers, err)
		}
	}
}

// forkRedCar is the query the Session.Fork tests run.
func forkRedCar() *vqpy.Query {
	return vqpy.NewQuery("RedCar").
		Use("car", vqpy.Car()).
		Where(vqpy.And(
			vqpy.P("car", vqpy.PropScore).Gt(0.6),
			vqpy.P("car", "color").Eq("red"),
		))
}

// TestSessionForkLedger pins what the serving layer relies on when it
// runs a synchronous query beside live ticks: work on a fork, merged
// back, leaves the parent's ledger (total, accounts, invocation counts)
// exactly as the same work run on the parent would; and the fork reads
// its own exact cost however much the parent is charged meanwhile.
func TestSessionForkLedger(t *testing.T) {
	v := vqpy.GenerateVideo(vqpy.DatasetCityFlow(11, 10))
	work := func(s *vqpy.Session) *vqpy.RunResult {
		t.Helper()
		res, err := s.Execute(forkRedCar(), v)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Text("red car stopped", v); err != nil {
			t.Fatal(err)
		}
		return res
	}
	direct := vqpy.NewSession(11)
	direct.SetNoBurn(true)
	want := work(direct)

	parent := vqpy.NewSession(11)
	parent.SetNoBurn(true)
	fork := parent.Fork()
	if fork.Registry() != parent.Registry() || fork.Clock() == parent.Clock() || !fork.Env().NoBurn {
		t.Fatal("a fork shares the registry and real-time behaviour, not the clock")
	}
	stop := make(chan struct{})
	charged := make(chan struct{})
	go func() { // the live side: charges the parent while the fork works
		defer close(charged)
		for {
			select {
			case <-stop:
				return
			default:
				parent.Clock().Charge("live", 1.7)
			}
		}
	}()
	got := work(fork)
	close(stop)
	<-charged
	if got.VirtualMS != want.VirtualMS || !reflect.DeepEqual(got.Matched, want.Matched) {
		t.Errorf("fork result: virtual ms %v, want %v (matched equal: %v)", got.VirtualMS, want.VirtualMS,
			reflect.DeepEqual(got.Matched, want.Matched))
	}
	if acc := parent.Clock().Accounts(); len(acc) != 1 || acc["live"] == 0 {
		t.Errorf("before the merge the parent holds %v, want the live charges and none of the fork's", acc)
	}

	parent.Clock().Reset() // leave only the fork's work to compare
	parent.Clock().Merge(fork.Clock())
	if got, want := parent.Clock().TotalMS(), direct.Clock().TotalMS(); got != want {
		t.Errorf("merged total %v, want %v", got, want)
	}
	if !reflect.DeepEqual(parent.Clock().Accounts(), direct.Clock().Accounts()) {
		t.Errorf("merged accounts %v, want %v", parent.Clock().Accounts(), direct.Clock().Accounts())
	}
	if !reflect.DeepEqual(parent.Clock().InvocationTotals(), direct.Clock().InvocationTotals()) {
		t.Errorf("merged invocation counts %v, want %v", parent.Clock().InvocationTotals(), direct.Clock().InvocationTotals())
	}
}

// countingInterceptor counts the charges offered to it per Env and
// declines them all.
type countingInterceptor struct{ seen map[*models.Env]int }

func (c *countingInterceptor) Intercept(env *models.Env, _ string, _ float64) bool {
	c.seen[env]++
	return false
}

// TestSessionForkKeepsFaultWiring: a fork of a session under SetFaults
// still routes every charge through the injector (and whatever the
// injector wraps), on the fork's own Env.
func TestSessionForkKeepsFaultWiring(t *testing.T) {
	v := vqpy.GenerateVideo(vqpy.DatasetCityFlow(11, 4))
	inner := &countingInterceptor{seen: map[*models.Env]int{}}
	parent := vqpy.NewSession(11)
	parent.SetNoBurn(true)
	parent.Env().Interceptor = inner
	inj := vqpy.NewFaultInjector(vqpy.FaultSchedule{Seed: 1})
	parent.SetFaults(inj)

	fork := parent.Fork()
	if fork.Faults() != inj || fork.Env().Interceptor != models.ChargeInterceptor(inj) {
		t.Fatal("the fork lost the injector")
	}
	if _, err := fork.Execute(forkRedCar(), v); err != nil {
		t.Fatal(err)
	}
	if inner.seen[fork.Env()] == 0 || inner.seen[parent.Env()] != 0 {
		t.Errorf("charges seen through the injector: %d on the fork's env, %d on the parent's; want all on the fork's",
			inner.seen[fork.Env()], inner.seen[parent.Env()])
	}
	if fork.Clock().TotalMS() == 0 || parent.Clock().TotalMS() != 0 {
		t.Errorf("fork charged %v, parent %v", fork.Clock().TotalMS(), parent.Clock().TotalMS())
	}
}
