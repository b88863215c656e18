package config

// vqserve's typed configuration: the daemon knobs that used to be raw
// flag calls in cmd/vqserve, plus the multi-tenant QoS section. The
// same struct is what a future fleet coordinator ships to its worker
// daemons, so everything here is plain data with JSON names.

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Tenant is one named QoS principal of the serving daemon. Tenants
// split each source's virtual-time admission budget in proportion to
// their Share, and rate-limit their HTTP requests through a token
// bucket of Burst tokens refilled at RatePerSec.
type Tenant struct {
	// Name identifies the tenant on the wire (the X-Tenant header or
	// the "tenant" body field).
	Name string `json:"name"`
	// Share is the tenant's weight: its slice of a source's admission
	// budget is BudgetMS * Share / sum(all shares). Must be > 0.
	Share float64 `json:"share"`
	// RatePerSec refills the tenant's HTTP token bucket; 0 disables
	// rate limiting for the tenant.
	RatePerSec float64 `json:"rate_per_sec"`
	// Burst is the bucket capacity — how many requests may arrive
	// back-to-back before the rate applies. 0 with a non-zero
	// RatePerSec means a bucket of 1.
	Burst int `json:"burst,omitempty"`
}

// TenantList carries the tenant section. As flag/env text it encodes
// compactly as "name:share[:rate[:burst]]" entries joined by commas
// (e.g. -tenants gold:3:50:50,free:1:1:2); in the JSON config file it
// is a normal array of objects.
type TenantList []Tenant

// MarshalText renders the compact flag/env encoding.
func (tl TenantList) MarshalText() ([]byte, error) {
	parts := make([]string, len(tl))
	for i, t := range tl {
		parts[i] = fmt.Sprintf("%s:%s:%s:%d", t.Name,
			strconv.FormatFloat(t.Share, 'g', -1, 64),
			strconv.FormatFloat(t.RatePerSec, 'g', -1, 64), t.Burst)
	}
	return []byte(strings.Join(parts, ",")), nil
}

// UnmarshalText parses the compact flag/env encoding. An empty string
// clears the list (back to single-tenant mode).
func (tl *TenantList) UnmarshalText(text []byte) error {
	raw := strings.TrimSpace(string(text))
	if raw == "" {
		*tl = nil
		return nil
	}
	var out TenantList
	for _, entry := range strings.Split(raw, ",") {
		fields := strings.Split(strings.TrimSpace(entry), ":")
		if len(fields) < 2 || len(fields) > 4 {
			return fmt.Errorf("tenant %q: want name:share[:rate[:burst]]", entry)
		}
		t := Tenant{Name: strings.TrimSpace(fields[0])}
		var err error
		if t.Share, err = strconv.ParseFloat(fields[1], 64); err != nil {
			return fmt.Errorf("tenant %q: bad share: %v", entry, err)
		}
		if len(fields) > 2 {
			if t.RatePerSec, err = strconv.ParseFloat(fields[2], 64); err != nil {
				return fmt.Errorf("tenant %q: bad rate: %v", entry, err)
			}
		}
		if len(fields) > 3 {
			if t.Burst, err = strconv.Atoi(fields[3]); err != nil {
				return fmt.Errorf("tenant %q: bad burst: %v", entry, err)
			}
		}
		out = append(out, t)
	}
	*tl = out
	return nil
}

// UnmarshalJSON accepts either the natural array-of-objects form (the
// config file) or a string in the compact text encoding — without
// this, encoding/json would route every non-string value to an error
// because the type implements encoding.TextUnmarshaler.
func (tl *TenantList) UnmarshalJSON(data []byte) error {
	trimmed := strings.TrimSpace(string(data))
	if strings.HasPrefix(trimmed, "\"") {
		var s string
		if err := json.Unmarshal(data, &s); err != nil {
			return err
		}
		return tl.UnmarshalText([]byte(s))
	}
	var raw []Tenant
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	*tl = TenantList(raw)
	return nil
}

// MarshalJSON renders the natural array form.
func (tl TenantList) MarshalJSON() ([]byte, error) {
	return json.Marshal([]Tenant(tl))
}

// Config is vqserve's full configuration. Defaults come from
// DefaultConfig; LoadServe applies the file/env/flag chain on top.
type Config struct {
	// Addr is the HTTP listen address.
	Addr string `flag:"addr" json:"addr" usage:"HTTP listen address"`
	// Sources names the scenario sources to register, comma-separated.
	Sources string `flag:"sources" json:"sources" usage:"comma-separated scenario sources to register"`
	// Seconds is the clip length per source.
	Seconds float64 `flag:"seconds" json:"seconds" usage:"clip length per source in seconds"`
	// Seed drives scenario generation and the model zoo.
	Seed uint64 `flag:"seed" json:"seed" usage:"scenario and model seed"`
	// Speed multiplies the frame ticker rate.
	Speed float64 `flag:"speed" json:"speed" usage:"frame ticker speed multiplier (x capture rate)"`
	// BudgetMS is the per-frame virtual-time admission budget per
	// source (0 admits everything). With tenants configured it is split
	// between them by share.
	BudgetMS float64 `flag:"budget-ms" json:"budget_ms" usage:"per-frame virtual-time admission budget per source (0 = admit all)"`
	// Loop wraps clips endlessly.
	Loop bool `flag:"loop" json:"loop" usage:"wrap clips endlessly (live-camera stand-in)"`
	// StoreDir enables the persistent result store.
	StoreDir string `flag:"store" json:"store" usage:"persistent result store directory (empty = no persistence)"`
	// IndexDir enables the appearance index (requires StoreDir).
	IndexDir string `flag:"index" json:"index" usage:"appearance index directory enabling archive search (requires -store)"`
	// Attach lists standing source:query pairs, comma-separated.
	Attach string `flag:"attach" json:"attach" usage:"comma-separated source:query pairs to attach before frames start flowing"`
	// FleetCams switches the daemon to fleet mode when > 0.
	FleetCams int `flag:"fleet" json:"fleet" usage:"fleet mode: drive N correlated cameras in lockstep with batched cross-source inference (replaces -sources)"`
	// Chaos enables the canned deterministic fault schedule.
	Chaos bool `flag:"chaos" json:"chaos" usage:"enable the deterministic fault injector with a canned schedule (DESIGN.md §9)"`
	// ChaosSeed seeds the fault schedule.
	ChaosSeed uint64 `flag:"chaos-seed" json:"chaos_seed" usage:"fault schedule seed (with -chaos)"`
	// Tenants is the multi-tenant QoS section; empty runs the daemon in
	// single-tenant mode (one implicit tenant, the whole budget, no
	// rate limits — the pre-tenant behaviour).
	Tenants TenantList `flag:"tenants" json:"tenants,omitempty" usage:"named QoS tenants as name:share[:rate[:burst]],... (empty = single-tenant)"`
}

// DefaultConfig is the daemon's built-in configuration — the bottom of
// the precedence chain.
func DefaultConfig() Config {
	return Config{
		Addr:      ":8791",
		Sources:   "cityflow",
		Seconds:   60,
		Seed:      42,
		Speed:     1,
		ChaosSeed: 1,
	}
}

// SourceList splits Sources into trimmed, non-empty names.
func (c Config) SourceList() []string {
	var out []string
	for _, name := range strings.Split(c.Sources, ",") {
		if name = strings.TrimSpace(name); name != "" {
			out = append(out, name)
		}
	}
	return out
}

// Validate checks the loaded configuration and returns every problem
// found, joined — not just the first — so one failed start names all
// the bad knobs.
func (c *Config) Validate() error {
	var errs []error
	bad := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf("config: "+format, args...))
	}
	if c.Speed <= 0 {
		bad("speed must be > 0 (got %g)", c.Speed)
	}
	if c.Seconds <= 0 {
		bad("seconds must be > 0 (got %g)", c.Seconds)
	}
	if c.BudgetMS < 0 {
		bad("budget-ms must be >= 0 (got %g)", c.BudgetMS)
	}
	if c.FleetCams < 0 {
		bad("fleet must be >= 0 (got %d)", c.FleetCams)
	}
	if c.IndexDir != "" && c.StoreDir == "" {
		bad("index requires store (the index accelerates archive search, it is not a source of truth)")
	}
	if c.FleetCams > 0 && c.StoreDir != "" {
		bad("fleet does not combine with store (per-camera archives of a lockstep fleet are future work)")
	}
	if c.FleetCams > 0 && c.IndexDir != "" {
		bad("fleet does not combine with index (archive search is per-source)")
	}
	if c.FleetCams <= 0 && len(c.SourceList()) == 0 {
		bad("no sources registered (set sources or fleet)")
	}
	for _, pair := range strings.Split(c.Attach, ",") {
		if pair = strings.TrimSpace(pair); pair == "" {
			continue
		}
		if _, _, ok := strings.Cut(pair, ":"); !ok {
			bad("attach %q: want source:query (or fleet:query)", pair)
		}
	}
	seen := make(map[string]bool, len(c.Tenants))
	for _, t := range c.Tenants {
		switch {
		case t.Name == "":
			bad("tenant with empty name")
		case seen[t.Name]:
			bad("tenant %q declared twice", t.Name)
		}
		seen[t.Name] = true
		if t.Share <= 0 {
			bad("tenant %q: share must be > 0 (got %g)", t.Name, t.Share)
		}
		if t.RatePerSec < 0 {
			bad("tenant %q: rate_per_sec must be >= 0 (got %g)", t.Name, t.RatePerSec)
		}
		if t.Burst < 0 {
			bad("tenant %q: burst must be >= 0 (got %d)", t.Name, t.Burst)
		}
	}
	return errors.Join(errs...)
}

// LoadServe loads vqserve's configuration: DefaultConfig, then the
// standard file < env ($VQSERVE_*) < flag chain over args.
func LoadServe(args []string) (Config, *Result, error) {
	cfg := DefaultConfig()
	res, err := Load(&cfg, Options{Name: "vqserve", EnvPrefix: "VQSERVE", Args: args})
	return cfg, res, err
}
