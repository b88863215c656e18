package store

// The per-source fidelity manifest (DESIGN.md §12): one entry per
// (source, fidelity) a scan has been archived at, recording the
// decorated scan signature the records live under, how many frames the
// archive covers and the calibrated accuracy / cost-per-frame the
// fidelity planner's cost model consults. The manifest is small (a
// handful of entries per source), so it is kept wholly in memory and
// replaced atomically as one JSON file on every upsert (reclog.WriteFile)
// — no log framing needed — and it shares the store's identity rules:
// it is removed on manifest invalidation and its writes flow through the
// injectable write-fault hook ("fidelity" kind), degrading to
// memory-only on failure exactly like the log tiers.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"vqpy/internal/reclog"
)

// fidelityName is the fidelity manifest file inside the store directory.
const fidelityName = "fidelity.json"

// FidelityEntry records one archived fidelity of one source.
type FidelityEntry struct {
	// Source is the stream the archive covers.
	Source string `json:"source"`
	// Key is the canonical fidelity name (video.Fidelity.Key()).
	Key string `json:"key"`
	// ScanKey is the decorated scan-group signature the tier's scan
	// records are archived under (exec.ScanSig.Key() with the fidelity
	// suffix).
	ScanKey string `json:"scan_key"`
	// Detector is the tier's detector model (the dets-tier key).
	Detector string `json:"detector"`
	// Stride / Res describe the scan config for display and planning.
	Stride int    `json:"stride"`
	Res    string `json:"res"`
	// Covered means frames [0, Covered) are archived (the stride-aligned
	// ones among them).
	Covered int `json:"covered"`
	// Accuracy is the calibrated per-frame verdict agreement with the
	// full-fidelity scan over the archived window, in [0, 1].
	Accuracy float64 `json:"accuracy"`
	// CostPerFrameMS is the estimated full-fidelity virtual cost per
	// frame this tier substitutes for (the planner's live-scan unit).
	CostPerFrameMS float64 `json:"cost_per_frame_ms"`
}

// loadFidelity reads the fidelity manifest at open. A missing file is
// an empty manifest; an unreadable one is dropped with a warning (the
// manifest is derived state — the archive re-calibrates).
func (s *Store) loadFidelity() {
	blob, err := os.ReadFile(filepath.Join(s.dir, fidelityName))
	if err != nil {
		return
	}
	var entries []FidelityEntry
	if err := json.Unmarshal(blob, &entries); err != nil {
		s.counters.Add("fidelity_corrupt", 1)
		s.warnings = append(s.warnings, fmt.Sprintf(
			"store: %s: fidelity manifest unreadable (%v); starting empty", s.dir, err))
		return
	}
	s.fidelity = entries
}

// PutFidelity upserts one fidelity entry (keyed by Source+Key) and
// rewrites the manifest file. A write fault degrades the manifest to
// memory-only for the rest of the process — the entry still serves
// this session's planner, only cross-process reuse is lost.
func (s *Store) PutFidelity(e FidelityEntry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: fidelity put on closed store")
	}
	replaced := false
	for i := range s.fidelity {
		if s.fidelity[i].Source == e.Source && s.fidelity[i].Key == e.Key {
			s.fidelity[i] = e
			replaced = true
			break
		}
	}
	if !replaced {
		s.fidelity = append(s.fidelity, e)
	}
	s.counters.Add("fidelity_puts", 1)
	if s.fidelityMemOnly {
		s.counters.Add("fidelity_puts_mem_only", 1)
		return nil
	}
	var err error
	if s.writeFault != nil {
		err = s.writeFault("fidelity")
	}
	if err == nil {
		var blob []byte
		if blob, err = json.MarshalIndent(s.fidelity, "", "  "); err == nil {
			err = reclog.WriteFile(filepath.Join(s.dir, fidelityName), append(blob, '\n'))
		}
	}
	if err != nil {
		s.counters.Add("fidelity_write_failures", 1)
		s.fidelityMemOnly = true
		s.counters.Add("tier_degraded_mem_only", 1)
		s.warnings = append(s.warnings, fmt.Sprintf(
			"store: fidelity: write failed (%v); manifest degraded to memory-only", err))
	}
	return nil
}

// Fidelities returns the manifest entries for one source, sorted by
// fidelity key for deterministic iteration. The slice is a copy.
func (s *Store) Fidelities(source string) []FidelityEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []FidelityEntry
	for _, e := range s.fidelity {
		if e.Source == source {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}
