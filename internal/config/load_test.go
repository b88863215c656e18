package config

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// env builds a LookupEnv over a literal map.
func env(m map[string]string) func(string) (string, bool) {
	return func(k string) (string, bool) {
		v, ok := m[k]
		return v, ok
	}
}

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPrecedence pins the whole chain on one struct: defaults lose to
// the file, the file loses to env, env loses to flags — field by
// field, with provenance recorded per layer.
func TestPrecedence(t *testing.T) {
	file := writeFile(t, "cfg.json", `{"seconds": 10, "budget_ms": 20, "loop": true}`)
	cfg := DefaultConfig()
	res, err := Load(&cfg, Options{
		Name: "vqserve", EnvPrefix: "VQSERVE",
		Args: []string{"-config", file, "-budget-ms", "40"},
		LookupEnv: env(map[string]string{
			"VQSERVE_BUDGET_MS": "30", // flag wins over this
			"VQSERVE_SPEED":     "5",  // only env sets this
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.File != file {
		t.Errorf("loaded file = %q, want %q", res.File, file)
	}
	checks := []struct {
		name string
		got  any
		want any
		src  Source
	}{
		{"addr", cfg.Addr, ":8791", SourceDefault},
		{"seconds", cfg.Seconds, 10.0, SourceFile},
		{"loop", cfg.Loop, true, SourceFile},
		{"speed", cfg.Speed, 5.0, SourceEnv},
		{"budget-ms", cfg.BudgetMS, 40.0, SourceFlag},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
		if got := res.Source(c.name); got != c.src {
			t.Errorf("Source(%s) = %v, want %v", c.name, got, c.src)
		}
	}
	if res.Explicit("addr") {
		t.Error("addr reported explicit despite being a default")
	}
	if !res.Explicit("speed") || !res.Explicit("budget-ms") {
		t.Error("env/flag fields not reported explicit")
	}
}

// TestConfigFileByEnvAlone starts the daemon config with zero flags:
// the file comes from $VQSERVE_CONFIG, the address from $VQSERVE_ADDR —
// the acceptance path cmd/vqserve's test drives end to end through run.
func TestConfigFileByEnvAlone(t *testing.T) {
	file := writeFile(t, "cfg.json", `{
		"sources": "retail",
		"tenants": [
			{"name": "gold", "share": 3, "rate_per_sec": 50, "burst": 10},
			{"name": "free", "share": 1, "rate_per_sec": 1, "burst": 2}
		]
	}`)
	cfg := DefaultConfig()
	res, err := Load(&cfg, Options{
		Name: "vqserve", EnvPrefix: "VQSERVE", Args: nil,
		LookupEnv: env(map[string]string{
			"VQSERVE_CONFIG": file,
			"VQSERVE_ADDR":   "127.0.0.1:9999",
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.File != file || cfg.Addr != "127.0.0.1:9999" || cfg.Sources != "retail" {
		t.Errorf("env-only load: file=%q addr=%q sources=%q", res.File, cfg.Addr, cfg.Sources)
	}
	if len(cfg.Tenants) != 2 || cfg.Tenants[0].Name != "gold" || cfg.Tenants[1].Burst != 2 {
		t.Errorf("tenants = %+v", cfg.Tenants)
	}
	if res.Source("tenants") != SourceFile {
		t.Errorf("tenants source = %v, want file", res.Source("tenants"))
	}
}

// TestEnvErrorsAccumulate: every bad variable is reported, not just
// the first one found.
func TestEnvErrorsAccumulate(t *testing.T) {
	cfg := DefaultConfig()
	_, err := Load(&cfg, Options{
		Name: "vqserve", EnvPrefix: "VQSERVE",
		LookupEnv: env(map[string]string{
			"VQSERVE_SECONDS": "not-a-number",
			"VQSERVE_FLEET":   "many",
		}),
	})
	if err == nil {
		t.Fatal("bad env values loaded without error")
	}
	for _, frag := range []string{"VQSERVE_SECONDS", "VQSERVE_FLEET"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("error %q does not mention %s", err, frag)
		}
	}
}

// TestValidationAccumulates: a config wrong in several ways — fleet
// mode with both a store and an index among them — names every knob in
// one error.
func TestValidationAccumulates(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Speed = -1
	cfg.Sources = " , "
	cfg.FleetCams, cfg.StoreDir, cfg.IndexDir = -1, "s", "x"
	cfg.Tenants = TenantList{{Name: "a", Share: 0}, {Name: "a", Share: 1}}
	_, err := Load(&cfg, Options{Name: "vqserve"})
	if err == nil {
		t.Fatal("invalid config loaded without error")
	}
	for _, frag := range []string{"speed", "no sources", "share must be > 0", "declared twice", "fleet must be >= 0"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("error %q does not mention %q", err, frag)
		}
	}
	cfg = DefaultConfig()
	cfg.FleetCams, cfg.StoreDir, cfg.IndexDir = 2, "s", "x"
	err = cfg.Validate()
	for _, frag := range []string{"fleet does not combine with store", "fleet does not combine with index"} {
		if err == nil || !strings.Contains(err.Error(), frag) {
			t.Errorf("fleet with store and index: error %v does not mention %q", err, frag)
		}
	}
}

// TestStrayArgsRejected: positional leftovers are a usage error, as
// they were under raw flag parsing.
func TestStrayArgsRejected(t *testing.T) {
	cfg := DefaultConfig()
	_, err := Load(&cfg, Options{Name: "vqserve", Args: []string{"-loop", "stray"}})
	if err == nil || !strings.Contains(err.Error(), "unexpected arguments") {
		t.Fatalf("stray args error = %v", err)
	}
}

// TestUnknownFileKeyRejected: a typoed config-file key fails the load
// instead of being silently ignored.
func TestUnknownFileKeyRejected(t *testing.T) {
	file := writeFile(t, "cfg.json", `{"budget_msec": 10}`)
	cfg := DefaultConfig()
	_, err := Load(&cfg, Options{Name: "vqserve", Args: []string{"-config", file}})
	if err == nil || !strings.Contains(err.Error(), "budget_msec") {
		t.Fatalf("unknown key error = %v", err)
	}
}

// TestMissingFileRejected: a named-but-absent config file is an error,
// never an empty default run.
func TestMissingFileRejected(t *testing.T) {
	cfg := DefaultConfig()
	_, err := Load(&cfg, Options{
		Name: "vqserve", EnvPrefix: "VQSERVE",
		LookupEnv: env(map[string]string{"VQSERVE_CONFIG": "/no/such/file.json"}),
	})
	if err == nil || !strings.Contains(err.Error(), "no such file") {
		t.Fatalf("missing file error = %v", err)
	}
}

// TestTenantListText round-trips the compact flag/env encoding and
// rejects the malformed shapes.
func TestTenantListText(t *testing.T) {
	var tl TenantList
	if err := tl.UnmarshalText([]byte("gold:3:50:10, free:1:1:2, anon:2")); err != nil {
		t.Fatal(err)
	}
	want := TenantList{
		{Name: "gold", Share: 3, RatePerSec: 50, Burst: 10},
		{Name: "free", Share: 1, RatePerSec: 1, Burst: 2},
		{Name: "anon", Share: 2},
	}
	if len(tl) != len(want) {
		t.Fatalf("parsed %d tenants, want %d", len(tl), len(want))
	}
	for i := range want {
		if tl[i] != want[i] {
			t.Errorf("tenant[%d] = %+v, want %+v", i, tl[i], want[i])
		}
	}
	text, err := tl.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	var back TenantList
	if err := back.UnmarshalText(text); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	for i := range want {
		if back[i] != want[i] {
			t.Errorf("round-tripped tenant[%d] = %+v, want %+v", i, back[i], want[i])
		}
	}
	if err := tl.UnmarshalText([]byte("justaname")); err == nil {
		t.Error("share-less tenant parsed without error")
	}
	if err := tl.UnmarshalText([]byte("x:notanumber")); err == nil {
		t.Error("non-numeric share parsed without error")
	}
	if err := tl.UnmarshalText([]byte("")); err != nil || back.UnmarshalText(nil) != nil {
		t.Error("empty tenant list did not clear cleanly")
	}
}

// TestTenantsFromEnv wires the compact encoding through the env layer.
func TestTenantsFromEnv(t *testing.T) {
	cfg := DefaultConfig()
	_, err := Load(&cfg, Options{
		Name: "vqserve", EnvPrefix: "VQSERVE",
		LookupEnv: env(map[string]string{"VQSERVE_TENANTS": "gold:3:50:10,free:1:1:2"}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Tenants) != 2 || cfg.Tenants[0].RatePerSec != 50 {
		t.Errorf("tenants from env = %+v", cfg.Tenants)
	}
}

// TestBoolAndUsageOverride covers bare bool flags and the dynamic
// usage override hook (vqbench's computed -exp help).
func TestBoolAndUsageOverride(t *testing.T) {
	type tiny struct {
		Exp  string `flag:"exp" json:"exp"`
		Burn bool   `flag:"burn" json:"burn"`
	}
	c := tiny{Exp: "all"}
	res, err := Load(&c, Options{
		Name: "t", Args: []string{"-burn"},
		Usage:  map[string]string{"exp": "computed help"},
		Output: io.Discard,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !c.Burn || res.Source("burn") != SourceFlag {
		t.Errorf("bare bool flag: burn=%v src=%v", c.Burn, res.Source("burn"))
	}
}

// TestLoadRejectsNonStruct pins the developer-error path.
func TestLoadRejectsNonStruct(t *testing.T) {
	var n int
	if _, err := Load(&n, Options{Name: "t"}); err == nil {
		t.Error("Load accepted a non-struct")
	}
	if _, err := Load(nil, Options{Name: "t"}); err == nil {
		t.Error("Load accepted nil")
	}
}

// TestDefaultConfigValidates: the shipped defaults must pass their own
// validation.
func TestDefaultConfigValidates(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("DefaultConfig invalid: %v", err)
	}
}

// TestFindFileArg covers the pre-scan forms.
func TestFindFileArg(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-config", "a.json"}, "a.json"},
		{[]string{"--config", "a.json"}, "a.json"},
		{[]string{"-config=a.json"}, "a.json"},
		{[]string{"-loop", "-config", "a.json"}, "a.json"},
		{[]string{"-loop"}, ""},
		{[]string{"--", "-config", "a.json"}, ""},
	}
	for _, c := range cases {
		if got := findFileArg(c.args); got != c.want {
			t.Errorf("findFileArg(%v) = %q, want %q", c.args, got, c.want)
		}
	}
}

// TestBadFlagValue: a malformed flag value surfaces as a parse error
// mentioning the flag.
func TestBadFlagValue(t *testing.T) {
	cfg := DefaultConfig()
	_, err := Load(&cfg, Options{Name: "vqserve", Args: []string{"-seconds", "soon"}, Output: io.Discard})
	if err == nil || !strings.Contains(err.Error(), "seconds") {
		t.Fatalf("bad flag value error = %v", err)
	}
}
