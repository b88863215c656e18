// Command vqserve is the live serving daemon: it registers scenario
// sources (the reproduction's stand-in for cameras), drives one dynamic
// shared-scan MuxStream per source on a frame-rate ticker, and lets
// queries attach and detach over HTTP while frames keep flowing.
//
// Configuration (DESIGN.md §11) is layered: built-in defaults, then a
// JSON config file (-config PATH or $VQSERVE_CONFIG), then $VQSERVE_*
// environment variables, then flags — each layer overriding the last,
// so the daemon runs with ZERO flags from a file or environment alone.
//
// Usage:
//
//	vqserve [-config FILE] [-addr :8791] [-sources cityflow,retail]
//	        [-seconds 60] [-seed 42] [-speed 1] [-budget-ms 0] [-loop]
//	        [-store DIR] [-index DIR] [-attach source:query,...]
//	        [-fleet N] [-chaos] [-chaos-seed N]
//	        [-tenants name:share[:rate[:burst]],...]
//
// API:
//
//	POST   /queries              {"source":"cityflow","query":"redcar"}
//	                             (+"backfill":true replays scanned history)
//	                             (+"mode":"search" answers an archive search
//	                             synchronously: probe-then-verify over the fed
//	                             frames, tuned by "track"/"threshold"/"topk";
//	                             requires -store and -index)
//	                             ({"mode":"fleet","query":"redcar"} attaches
//	                             the query to all cameras at once; -fleet N)
//	DELETE /queries/{id}         detach, returns the final result (a fleet
//	                             query: per-source finals)
//	GET    /queries/{id}/results live result snapshot (?since=F for deltas;
//	                             a fleet query: the merged per-global-id view
//	                             with provenance, ?min_sources=&window_sec=)
//	GET    /streamz              sources, scan groups, lanes, counters, store,
//	                             degradation state (breakers, quarantines)
//	GET    /metrics              Prometheus text exposition (DESIGN.md §11)
//	GET    /healthz              liveness + degradation summary (always 200)
//	GET    /readyz               readiness (503 while draining)
//
// Fleet mode (-fleet N, DESIGN.md §8) replaces -sources with N
// correlated camera clips sharing one entity population, driven in
// lockstep with batched cross-source detector inference and a global
// re-ID registry, and enables the "fleet" mode of POST /queries
// (-attach accepts the pseudo-source "fleet", e.g. -attach
// fleet:redcar, to register a standing fleet-wide query before frames
// start flowing).
//
// -speed multiplies the frame rate (10 feeds a 30fps source at 300fps);
// -budget-ms rejects queries (HTTP 503) whose estimated per-frame
// virtual cost would push a source past the budget; -loop wraps each
// clip endlessly. -store DIR persists every source's scan output to the
// tiered result store: a daemon restarted over the same directory (and
// seed) serves frames it already scanned at zero model cost, and
// backfill attaches replay a joining query over the scanned history.
// -attach registers standing queries before the first frame is fed —
// with -store, that guarantees the archive covers the stream from
// frame zero, which is what later backfill attaches need. See
// DESIGN.md §6 for attach/detach semantics and §7 for the store.
//
// -index DIR opens the appearance-embedding index (DESIGN.md §10) over
// the store and enables the archive-search mode above: each search
// warms the archive up to the fed-frame watermark, extracts new tracks
// into the index (one embedding per track, ever), probes it for
// candidate tracks and verifies only their frames. /streamz gains an
// index block (probes, candidates, verified frames, pruned-frame
// ratio). Requires -store; incompatible with -fleet.
//
// -chaos enables the deterministic fault injector (DESIGN.md §9) with
// a canned schedule seeded by -chaos-seed: transient model errors the
// retry layer absorbs, occasional terminal failure windows that trip
// circuit breakers into fallback detectors, source stalls that
// quarantine a camera, and store write/read faults. Degradation state
// is visible on /streamz and /healthz.
//
// -tenants enables multi-tenant QoS (DESIGN.md §11): each tenant's
// share carves a slice of -budget-ms, over-slice attaches and
// rate-limited requests answer 429 with a Retry-After header, and
// requests name their tenant with the X-Tenant header. SIGHUP reloads
// the configuration in place: budget and tenant changes apply to the
// running daemon (logged as "config reloaded"); anything else —
// sources, store, fleet shape, listen address — logs a restart-needed
// notice and keeps its old value.
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: it stops
// admitting queries and frames (readyz flips to 503), detaches and
// finalizes every live query, flushes the store, then stops the HTTP
// listener.
package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"reflect"
	"strings"
	"syscall"

	"vqpy"

	"vqpy/internal/config"
	"vqpy/internal/serve"
)

// chaosSchedule is the canned -chaos fault plan: enough of every
// failure domain to exercise retries, breakers, fallbacks, quarantine
// and store degradation on a long-running daemon without drowning it.
func chaosSchedule(seed uint64) vqpy.FaultSchedule {
	return vqpy.FaultSchedule{
		Seed: seed,
		Rules: []vqpy.FaultRule{
			// Transient model errors: absorbed by retry, zero verdict impact.
			{Kind: vqpy.FaultModelError, Rate: 0.05, Persist: 1},
			// Transient timeouts: absorbed by retry, charged on the clock.
			{Kind: vqpy.FaultModelTimeout, Rate: 0.02, Persist: 1, DeadlineMS: 40},
			// A recurring terminal window: trips breakers into fallback.
			{Kind: vqpy.FaultModelError, Rate: 0.01, Persist: 10},
			// Source stalls: a camera wedges and gets quarantined.
			{Kind: vqpy.FaultSourceStall, Rate: 0.01, Persist: 6},
			// Dropped frames.
			{Kind: vqpy.FaultSourceDrop, Rate: 0.005, Persist: 1},
			// Store faults: writes degrade a tier to memory-only, reads
			// become misses.
			{Kind: vqpy.FaultStoreRead, Rate: 0.02, Persist: 1},
		},
	}
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	context.AfterFunc(ctx, stop) // a second signal during the drain kills the process the default way
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole daemon: load the configuration from args and the
// environment, build the server, attach the standing queries, listen,
// and serve until ctx is cancelled, then drain. It returns the process
// exit code — 2 for a refused configuration, 1 for a failed start — and
// every path past NewServer closes the server (and with it the store).
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	cfg, res, err := config.LoadServe(args)
	if err != nil {
		fmt.Fprintf(stderr, "vqserve: %v\n", err)
		return 2
	}
	if res.File != "" {
		fmt.Fprintf(stdout, "vqserve: config file %s\n", res.File)
	}

	var inj *vqpy.FaultInjector
	if cfg.Chaos {
		inj = vqpy.NewFaultInjector(chaosSchedule(cfg.ChaosSeed))
	}
	s, err := serve.NewServer(serve.Config{
		Seed: cfg.Seed, Seconds: cfg.Seconds, Speed: cfg.Speed, BudgetMS: cfg.BudgetMS,
		Loop: cfg.Loop, StoreDir: cfg.StoreDir, IndexDir: cfg.IndexDir,
		FleetCams: cfg.FleetCams, Tenants: cfg.Tenants, Faults: inj,
	}, cfg.SourceList())
	if err != nil {
		fmt.Fprintf(stderr, "vqserve: %v\n", err)
		return 1
	}
	defer s.Close()
	// Standing queries attach before Run starts the tickers, so they
	// (and the store archive) see the stream from frame zero. The
	// pseudo-source "fleet" attaches a fleet-wide query to every camera
	// at once (fleet mode only). Validate vetted every pair's shape.
	for _, pair := range strings.Split(cfg.Attach, ",") {
		if pair = strings.TrimSpace(pair); pair == "" {
			continue
		}
		sourceName, queryName, _ := strings.Cut(pair, ":")
		req := serve.AttachRequest{Source: sourceName, Query: queryName}
		if sourceName == "fleet" {
			req = serve.AttachRequest{Query: queryName, Fleet: true}
		}
		id, err := s.Attach(req)
		if err != nil {
			fmt.Fprintf(stderr, "vqserve: -attach %s: %v\n", pair, err)
			return 1
		}
		fmt.Fprintf(stdout, "vqserve: attached standing query %s on %s (id %d)\n", queryName, sourceName, id)
	}
	// Listen before the tickers start: -addr :0 binds an ephemeral port
	// and the banner below names the address actually bound.
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		fmt.Fprintf(stderr, "vqserve: %v\n", err)
		return 1
	}
	s.Run()

	// SIGHUP hot reload: re-run the whole precedence chain (same args,
	// file and environment re-read) and apply the ops-tunable subset —
	// budget and tenants — to the running daemon. Changes to anything
	// else are logged as needing a restart and otherwise ignored.
	stopWatch := config.Watch(func() {
		next, _, err := config.LoadServe(args)
		if err != nil {
			fmt.Fprintf(stderr, "vqserve: reload rejected: %v\n", err)
			return
		}
		if restart := restartOnlyChanges(cfg, next); len(restart) > 0 {
			fmt.Fprintf(stdout, "vqserve: reload: %s need a restart; keeping old values\n", strings.Join(restart, ", "))
		}
		s.ApplyOps(serve.OpsConfig{BudgetMS: next.BudgetMS, Tenants: next.Tenants})
		fmt.Fprintf(stdout, "vqserve: config reloaded (budget %.1f ms/frame, tenants: %s)\n", next.BudgetMS, orNone(tenantText(next.Tenants)))
	})
	defer stopWatch()

	persistence := "off"
	if cfg.StoreDir != "" {
		persistence = cfg.StoreDir
		if cfg.IndexDir != "" {
			persistence += " (index: " + cfg.IndexDir + ")"
		}
	}
	serving := strings.Join(cfg.SourceList(), ",")
	queries := strings.Join(serve.QueryNames(), ",")
	if cfg.FleetCams > 0 {
		serving = fmt.Sprintf("fleet of %d cameras (%s)", cfg.FleetCams, strings.Join(s.SourceNamesRegistered(), ","))
		queries = queries + "; fleet: " + strings.Join(serve.FleetQueryNames(), ",")
	}
	chaosNote := ""
	if cfg.Chaos {
		chaosNote = fmt.Sprintf(", chaos seed %d", cfg.ChaosSeed)
	}
	tenantNote := ""
	if len(cfg.Tenants) > 0 {
		tenantNote = ", tenants: " + tenantText(cfg.Tenants)
	}
	fmt.Fprintf(stdout, "vqserve: serving %s on %s (speed %gx, budget %.1f ms/frame, store: %s%s%s, queries: %s)\n",
		serving, ln.Addr(), cfg.Speed, cfg.BudgetMS, persistence, chaosNote, tenantNote, queries)

	// Graceful shutdown: a cancelled ctx (SIGINT/SIGTERM) drains before
	// the listener goes down — stop admitting (readyz → 503), detach and
	// finalize every live query, flush the store, then stop serving HTTP.
	httpSrv := &http.Server{Handler: s.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	select {
	case err := <-errCh:
		fmt.Fprintf(stderr, "vqserve: %v\n", err)
		return 1
	case <-ctx.Done():
	}
	fmt.Fprintln(stdout, "vqserve: signal received, draining")
	sum := s.Drain()
	fmt.Fprintf(stdout, "vqserve: drained %d queries, store flushed: %v\n", sum.QueriesDetached, sum.StoreFlushed)
	if err := httpSrv.Shutdown(context.Background()); err != nil {
		fmt.Fprintf(stderr, "vqserve: shutdown: %v\n", err)
	}
	fmt.Fprintln(stdout, "vqserve: stopped")
	return 0
}

// restartOnlyChanges names the reloaded knobs a SIGHUP cannot apply to
// a running daemon: every flag-bound field but the two ops-tunable ones.
func restartOnlyChanges(cur, next config.Config) []string {
	var out []string
	c, n := reflect.ValueOf(cur), reflect.ValueOf(next)
	for i := 0; i < c.NumField(); i++ {
		name := c.Type().Field(i).Tag.Get("flag")
		if name != "budget-ms" && name != "tenants" && !reflect.DeepEqual(c.Field(i).Interface(), n.Field(i).Interface()) {
			out = append(out, name)
		}
	}
	return out
}

// tenantText renders the tenant section in its compact flag encoding.
func tenantText(tl config.TenantList) string {
	text, _ := tl.MarshalText() // never fails
	return string(text)
}

func orNone(s string) string {
	if s == "" {
		return "none"
	}
	return s
}
