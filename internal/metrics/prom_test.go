package metrics

import (
	"math"
	"regexp"
	"strings"
	"testing"
)

// promLine matches one sample line of the text exposition format —
// the same grammar internal/serve's TestHTTPMetrics asserts on the daemon.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? -?[0-9.eE+-]+$|^[a-zA-Z_:][a-zA-Z0-9_:]*(\{.*\})? (\+Inf|-Inf|NaN)$`)

func TestWriteTextFormat(t *testing.T) {
	fams := []Family{
		Gauge("vqserve_tenant_share", "Tenant QoS share.",
			LV("tenant", "gold", 3), LV("tenant", "free", 1)),
		Counter("vqserve_frames_fed_total", "Frames fed per source.",
			LV("source", "cityflow", 240)),
		Gauge("vqserve_up", "Daemon liveness.", V(1)),
	}
	var b strings.Builder
	if err := WriteText(&b, fams); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	// Families sorted by name, HELP before TYPE before samples.
	wantOrder := []string{
		"# HELP vqserve_frames_fed_total Frames fed per source.",
		"# TYPE vqserve_frames_fed_total counter",
		`vqserve_frames_fed_total{source="cityflow"} 240`,
		"# TYPE vqserve_tenant_share gauge",
		`vqserve_tenant_share{tenant="free"} 1`,
		`vqserve_tenant_share{tenant="gold"} 3`,
		"# TYPE vqserve_up gauge",
		"vqserve_up 1",
	}
	pos := -1
	for _, frag := range wantOrder {
		i := strings.Index(out, frag)
		if i < 0 {
			t.Fatalf("output missing %q:\n%s", frag, out)
		}
		if i < pos {
			t.Errorf("fragment %q out of order", frag)
		}
		pos = i
	}
	// Every non-comment line parses.
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Errorf("line does not parse as a prometheus sample: %q", line)
		}
	}
}

func TestWriteTextSkipsEmptyFamilies(t *testing.T) {
	var b strings.Builder
	if err := WriteText(&b, []Family{Gauge("vqserve_empty", "never measured")}); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Errorf("empty family still rendered:\n%s", b.String())
	}
}

func TestSanitizeName(t *testing.T) {
	cases := map[string]string{
		"frames_fed":      "frames_fed",
		"frames-fed.rate": "frames_fed_rate",
		"9lives":          "_9lives",
		"ok:colon":        "ok:colon",
		"":                "_",
		"héllo":           "h_llo",
	}
	for in, want := range cases {
		if got := SanitizeName(in); got != want {
			t.Errorf("SanitizeName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	var b strings.Builder
	err := WriteText(&b, []Family{Gauge("m", "", Sample{
		Labels: []Label{{Key: "weird-key", Value: "a\"b\\c\nd"}},
		Value:  1,
	})})
	if err != nil {
		t.Fatal(err)
	}
	want := `m{weird_key="a\"b\\c\nd"} 1`
	if !strings.Contains(b.String(), want) {
		t.Errorf("escaped sample = %q, want to contain %q", b.String(), want)
	}
}

func TestFormatFloatSpecials(t *testing.T) {
	cases := map[float64]string{
		math.Inf(1):  "+Inf",
		math.Inf(-1): "-Inf",
		0.25:         "0.25",
		3:            "3",
	}
	for in, want := range cases {
		if got := formatFloat(in); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", in, got, want)
		}
	}
	if got := formatFloat(math.NaN()); got != "NaN" {
		t.Errorf("formatFloat(NaN) = %q", got)
	}
}

func TestCounterFamilies(t *testing.T) {
	c := NewCounters()
	c.Add("frames_fed:cityflow", 240)
	c.Add("frames_fed:retail", 60)
	c.Add("queries_attached", 3)
	c.Add("queries_attached:redcar", 2)
	c.Add("tenant_requests:gold", 7)

	fams := CounterFamilies("vqserve", "target", c.Snapshot())
	var b strings.Builder
	if err := WriteText(&b, fams); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, frag := range []string{
		`vqserve_frames_fed_total{target="cityflow"} 240`,
		`vqserve_frames_fed_total{target="retail"} 60`,
		"\nvqserve_queries_attached_total 3\n",
		`vqserve_queries_attached_total{target="redcar"} 2`,
		`vqserve_tenant_requests_total{tenant="gold"} 7`,
		"# TYPE vqserve_frames_fed_total counter",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("CounterFamilies output missing %q:\n%s", frag, out)
		}
	}
}
