package main

// Covers only the glue no internal/serve or internal/config test can
// reach: run's wiring of configuration, standing attaches, the bound
// listener, SIGHUP reload and the drain, through the real entry point
// on an ephemeral port. What the HTTP surface answers is pinned by the
// internal/serve suites against the same Handler.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// logBuf is a writer the daemon goroutine and the test can share.
type logBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *logBuf) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *logBuf) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// eventually polls cond every few milliseconds until it holds.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(20 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// daemon is one run() in flight.
type daemon struct {
	t              *testing.T
	base           string // http://127.0.0.1:PORT, from the banner
	stdout, stderr *logBuf
	cancel         context.CancelFunc
	exit           chan int
}

var bannerAddr = regexp.MustCompile(`serving .* on (127\.0\.0\.1:\d+) `)

// start launches run(args) and waits for the banner naming the bound
// address.
func start(t *testing.T, args ...string) *daemon {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	d := &daemon{t: t, stdout: &logBuf{}, stderr: &logBuf{}, cancel: cancel, exit: make(chan int, 1)}
	go func() { d.exit <- run(ctx, args, d.stdout, d.stderr) }()
	t.Cleanup(func() { d.stop() })
	eventually(t, "the serving banner", func() bool {
		select {
		case code := <-d.exit:
			t.Fatalf("daemon exited %d before serving\nstderr: %s", code, d.stderr)
		default:
		}
		m := bannerAddr.FindStringSubmatch(d.stdout.String())
		if m != nil {
			d.base = "http://" + m[1]
		}
		return m != nil
	})
	return d
}

// stop cancels the daemon (the SIGTERM path) and returns its exit code.
func (d *daemon) stop() int {
	d.cancel()
	code := <-d.exit
	d.exit <- code // keep it readable for the cleanup's second stop
	return code
}

// do issues one request and decodes a JSON reply into out (nil skips).
func (d *daemon) do(method, path, body string, out any) int {
	d.t.Helper()
	req, err := http.NewRequest(method, d.base+path, strings.NewReader(body))
	if err != nil {
		d.t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		d.t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, _ := io.ReadAll(resp.Body)
	if out != nil {
		if s, ok := out.(*string); ok {
			*s = string(blob)
		} else if err := json.Unmarshal(blob, out); err != nil {
			d.t.Fatalf("%s %s: %v\n%s", method, path, err, blob)
		}
	}
	return resp.StatusCode
}

type streamz struct {
	Sources []struct {
		FramesFed int  `json:"frames_fed"`
		Done      bool `json:"done"`
	} `json:"sources"`
}

// TestZeroFlagStartAndReload: the daemon starts from $VQSERVE_CONFIG and
// $VQSERVE_ADDR alone, answers on the address the banner prints, and a
// SIGHUP after editing the file moves the ops-tunable knobs while a
// restart-only change is logged and ignored.
func TestZeroFlagStartAndReload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ops.json")
	write := func(budget, seconds int) {
		t.Helper()
		blob, _ := json.Marshal(map[string]any{
			"sources": "cityflow", "seconds": seconds, "speed": 20, "loop": true, "budget_ms": budget,
		})
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(200, 2)
	t.Setenv("VQSERVE_CONFIG", path)
	t.Setenv("VQSERVE_ADDR", "127.0.0.1:0")
	d := start(t)

	var ready struct{ Status string }
	if code := d.do("GET", "/readyz", "", &ready); code != 200 || ready.Status != "ready" {
		t.Fatalf("/readyz = %d %+v", code, ready)
	}
	var page string
	d.do("GET", "/metrics", "", &page)
	if !strings.Contains(page, `vqserve_source_budget_ms{source="cityflow"} 200`+"\n") {
		t.Fatalf("budget gauge does not carry the file's value:\n%s", page)
	}

	write(50, 3) // budget is ops-tunable; seconds needs a restart
	if err := syscall.Kill(os.Getpid(), syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	eventually(t, "the reloaded budget on /metrics", func() bool {
		d.do("GET", "/metrics", "", &page)
		return strings.Contains(page, `vqserve_source_budget_ms{source="cityflow"} 50`+"\n") &&
			strings.Contains(page, "vqserve_config_reloads_total 1\n")
	})
	log := d.stdout.String()
	if !strings.Contains(log, "reload: seconds need a restart; keeping old values") ||
		!strings.Contains(log, "config reloaded (budget 50.0 ms/frame") {
		t.Errorf("reload not logged as expected:\n%s", log)
	}
	if code := d.stop(); code != 0 {
		t.Errorf("exit code %d, want 0\nstderr: %s", code, d.stderr)
	}
}

// TestAttachFlag: -attach registers standing queries before the first
// frame — per source and fleet-wide — and a malformed pair is refused
// with exit 2 before anything listens.
func TestAttachFlag(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-sources", "cityflow", "-attach", "cityflow:redcar"}, "attached standing query redcar on cityflow (id 0)"},
		{[]string{"-fleet", "3", "-attach", "fleet:redcar"}, "attached standing query redcar on fleet (id 0)"},
	} {
		d := start(t, append([]string{"-addr", "127.0.0.1:0", "-seconds", "2", "-speed", "20"}, tc.args...)...)
		if log := d.stdout.String(); !strings.Contains(log, tc.want) {
			t.Errorf("%v: stdout lacks %q:\n%s", tc.args, tc.want, log)
		}
		var ids struct {
			Queries []struct{ ID int } `json:"queries"`
		}
		if d.do("GET", "/streamz", "", &ids); len(ids.Queries) == 0 {
			t.Errorf("%v: /streamz lists no standing query", tc.args)
		}
		if code := d.stop(); code != 0 || !strings.Contains(d.stdout.String(), "drained 1 queries") {
			t.Errorf("%v: exit code %d, want 0 after draining the standing query:\n%s", tc.args, code, d.stdout)
		}
	}

	var stdout, stderr logBuf
	code := run(context.Background(), []string{"-addr", "127.0.0.1:0", "-attach", "cityflow"}, &stdout, &stderr)
	if code != 2 || !strings.Contains(stderr.String(), "want source:query") || stdout.String() != "" {
		t.Errorf("malformed -attach: exit %d, stdout %q, stderr %q", code, &stdout, &stderr)
	}
	// A pair the server refuses fails the start with the store closed
	// behind it, not left open.
	code = run(context.Background(), []string{"-addr", "127.0.0.1:0", "-store", t.TempDir(), "-attach", "cityflow:nosuchquery"}, &stdout, &stderr)
	if code != 1 || !strings.Contains(stderr.String(), "-attach cityflow:nosuchquery") {
		t.Errorf("unknown -attach query: exit %d, stderr %q", code, &stderr)
	}
}

// TestDrainThenWarmRestart: cancelling the daemon drains it — the
// standing query finalized, the store flushed, exit 0 — and a second
// daemon over the same -store serves a backfill attach from the archive.
func TestDrainThenWarmRestart(t *testing.T) {
	args := []string{"-addr", "127.0.0.1:0", "-sources", "cityflow", "-seconds", "2", "-speed", "50", "-store", t.TempDir()}
	d := start(t, append(args, "-attach", "cityflow:redcar")...)
	var st streamz
	eventually(t, "the clip to finish", func() bool {
		d.do("GET", "/streamz", "", &st)
		return len(st.Sources) == 1 && st.Sources[0].Done
	})
	if code := d.stop(); code != 0 {
		t.Fatalf("exit code %d, want 0\nstderr: %s", code, d.stderr)
	}
	log := d.stdout.String()
	for _, want := range []string{"signal received, draining", "drained 1 queries, store flushed: true", "vqserve: stopped"} {
		if !strings.Contains(log, want) {
			t.Errorf("drain log lacks %q:\n%s", want, log)
		}
	}

	d = start(t, args...)
	eventually(t, "the restarted daemon to feed frames", func() bool {
		d.do("GET", "/streamz", "", &st)
		return st.Sources[0].FramesFed > 0
	})
	fed := st.Sources[0].FramesFed
	var attached struct{ ID int }
	if code := d.do("POST", "/queries", `{"source":"cityflow","query":"plates","backfill":true}`, &attached); code != 200 {
		t.Fatalf("backfill attach = %d", code)
	}
	var res struct {
		FramesProcessed int `json:"frames_processed"`
	}
	if code := d.do("GET", fmt.Sprintf("/queries/%d/results", attached.ID), "", &res); code != 200 || res.FramesProcessed < fed {
		t.Errorf("backfill over the warm store covered %d frames (status %d), want >= the %d fed", res.FramesProcessed, code, fed)
	}
	if code := d.stop(); code != 0 {
		t.Errorf("second daemon: exit code %d, want 0", code)
	}
}
