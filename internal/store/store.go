// Package store is the tiered, persistent result store of the archival
// analytics layer: per-frame detector outputs, shared-tracker id
// assignments and evaluated VObj property values, keyed by (source,
// frame, scan-group signature) and surviving the process. A bounded
// in-memory LRU tier serves the hot set; an append-only internal/reclog
// log (CRC-framed gob records) is the archival tier (see DESIGN.md §7
// for the layout and the bit-identity rules).
//
// The store is what turns the engine's within-pass sharing (MuxStream)
// into cross-pass and cross-process reuse: a second scan over the same
// source replays persisted detections and track ids at zero model cost,
// and a query attaching mid-stream can backfill the frames it missed
// (exec.MuxStream.AttachBackfill) with results bit-identical to having
// been present from frame zero.
//
// Correctness rests on the same determinism contract as every other
// reuse layer (DESIGN.md §2): model outputs are pure functions of
// (seed, model, frame, object), so a persisted value equals what the
// live model would produce — provided the seed matches. The reclog
// manifest records the seed; opening a store written under a different
// seed (or format version) invalidates it rather than serving wrong
// values, and a plan whose chosen model differs from what was persisted
// misses by key construction (the scan signature and label keys embed
// the model).
//
// How one frame of one scan group is laid out across the tiers, and
// what makes it unusable, is decided in scan.go and nowhere else:
// ScanReader is the only way out of the scans tier, and every consumer
// reads through it and gets a typed Miss when the archive cannot serve.
//
// The store is safe for concurrent use; all operations serialize behind
// one mutex (records are small and reads are index lookups, so the lock
// is never held across model work).
package store

import (
	"fmt"
	"os"
	"sync"

	"vqpy/internal/geom"
	"vqpy/internal/metrics"
	"vqpy/internal/reclog"
)

// FormatVersion identifies the on-disk layout; stores written by other
// versions are invalidated at open.
const FormatVersion = 1

// DefaultMemRecords is the default hot-tier capacity per record kind.
const DefaultMemRecords = 4096

// Meta is the store manifest: the identity a persisted result is only
// valid under.
type Meta struct {
	// Version is the on-disk format version.
	Version int `json:"version"`
	// Seed is the session seed the records were computed under. Model
	// outputs are functions of the seed, so records from another seed
	// are not merely stale — they are wrong — and force invalidation.
	Seed uint64 `json:"seed"`
}

// Options tunes a store.
type Options struct {
	// MemRecords caps the in-memory tier, per record kind (scan / det /
	// label). 0 uses DefaultMemRecords.
	MemRecords int

	// WriteFault, when set, is consulted before every disk append (the
	// chaos layer's injectable store write hook; kind is the tier name).
	// An error fails the append: the record is installed memory-only and
	// the tier degrades to memory-only mode — correct by the cache
	// contract (recomputing is always right), losing only cross-process
	// reuse. Counters: <kind>_write_failures, tier_degraded_mem_only,
	// <kind>_puts_mem_only.
	WriteFault func(kind string) error
	// ReadFault, when set, is consulted before every disk-tier read; an
	// error is served as a miss (counter <kind>_faulted_reads) and the
	// engine recomputes. Hot-tier (memory) hits are unaffected.
	ReadFault func(kind string) error
}

// Store is a tiered persistent result store over one directory.
type Store struct {
	mu   sync.Mutex
	dir  string
	meta Meta

	scans  *tier[scanKey, ScanRecord]
	dets   *tier[detKey, DetRecord]
	labels *tier[labelKey, LabelRecord]
	logs   []*reclog.Log // the opened tiers' logs, for Close

	counters   *metrics.Counters
	warnings   []string
	closed     bool
	writeFault func(kind string) error

	// fidelity is the per-source fidelity manifest (fidelity.go): which
	// scan configs each source has been archived at, with calibrated
	// accuracy and cost. fidelityMemOnly is the manifest's write-fault
	// degradation flag, mirroring the log tiers'.
	fidelity        []FidelityEntry
	fidelityMemOnly bool
}

// Open opens (creating if needed) the store rooted at dir for sessions
// seeded with meta.Seed. A directory written under a different seed or
// format version is invalidated: its logs are removed and the store
// starts empty (counter "invalidated"). Corrupt log records are skipped
// with a warning (counter "corrupt_records", Warnings) instead of
// poisoning reads.
func Open(dir string, meta Meta, opts Options) (*Store, error) {
	if meta.Version == 0 {
		meta.Version = FormatVersion
	}
	if opts.MemRecords <= 0 {
		opts.MemRecords = DefaultMemRecords
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, meta: meta, counters: metrics.NewCounters()}

	// Wrong seed / version / garbage manifest: everything in the
	// directory was computed under a different identity and must not be
	// served (reclog.CheckManifest removes it, or fails the open).
	warning, err := reclog.CheckManifest(dir, "store", meta, "scans.log", "dets.log", "labels.log", fidelityName)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if warning != "" {
		s.counters.Add("invalidated", 1)
		s.warnings = append(s.warnings, warning)
	}

	s.scans, err = openTier(s, "scans", "scan", opts, (*ScanRecord).key)
	if err == nil {
		s.dets, err = openTier(s, "dets", "det", opts, (*DetRecord).key)
	}
	if err == nil {
		s.labels, err = openTier(s, "labels", "label", opts, (*LabelRecord).key)
	}
	if err != nil {
		s.closeTiers()
		return nil, err
	}
	s.writeFault = opts.WriteFault
	s.loadFidelity()
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Seed returns the seed the store's records are valid under.
func (s *Store) Seed() uint64 { return s.meta.Seed }

// Close syncs and closes the log files. Further operations fail.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.closeTiers()
}

// closeTiers closes every tier log that was opened, returning the first
// error.
func (s *Store) closeTiers() error {
	var first error
	for _, log := range s.logs {
		if err := log.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Counters exposes the store's hit / miss / eviction / corruption
// counters (internal/metrics), the observability hook the executor's
// "store hit = zero model cost" accounting is read through.
func (s *Store) Counters() *metrics.Counters { return s.counters }

// Warnings returns the messages accumulated while opening the store
// (corrupt records skipped, invalidation) for surfacing in CLIs.
func (s *Store) Warnings() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.warnings...)
}

// scanKey, detKey and labelKey are the tiers' index keys: comparable
// structs, so a lookup allocates nothing and compound keys are
// unambiguous for any source / model / signature strings.
type scanKey struct {
	source, sig string
	frame       int
}

type detKey struct {
	source, model string
	frame         int
}

type labelKey struct {
	source, model  string
	frame          int
	x1, y1, x2, y2 int
	truthID        int
}

func (r *ScanRecord) key() scanKey { return scanKey{r.Source, r.ScanKey, r.Frame} }

func (r *DetRecord) key() detKey { return detKey{r.Source, r.Model, r.Frame} }

func (r *LabelRecord) key() labelKey {
	return labelKey{r.Source, r.Model, r.Frame, r.X1, r.Y1, r.X2, r.Y2, r.TruthID}
}

// PutScan persists one scan group's outcome for a frame. Reading it
// back is ScanReader's job (scan.go).
func (s *Store) PutScan(rec *ScanRecord) error {
	return put(s, s.scans, rec)
}

// PutDets persists one detector invocation's raw output.
func (s *Store) PutDets(source, model string, frame int, dets []Detection) error {
	rec := &DetRecord{Source: source, Model: model, Frame: frame, Dets: dets}
	return put(s, s.dets, rec)
}

// GetDets returns a frame's persisted raw detector output. The returned
// slice is shared and must not be mutated.
func (s *Store) GetDets(source, model string, frame int) ([]Detection, bool) {
	rec, miss := get(s, s.dets, detKey{source, model, frame})
	if miss != MissNone {
		return nil, false
	}
	return rec.Dets, true
}

// PutLabel persists one per-crop model output. Values of types the
// store cannot round-trip exactly are silently not persisted (the store
// is a cache; recomputing is always correct).
func (s *Store) PutLabel(source, model string, frame int, box geom.BBox, truthID int, value any) error {
	if !gobSafe(value) {
		s.counters.Add("label_skipped_type", 1)
		return nil
	}
	rec := &LabelRecord{
		Source: source, Model: model, Frame: frame,
		X1: int(box.X1), Y1: int(box.Y1), X2: int(box.X2), Y2: int(box.Y2),
		TruthID: truthID, Value: value,
	}
	return put(s, s.labels, rec)
}

// GetLabel returns a persisted per-crop model output.
func (s *Store) GetLabel(source, model string, frame int, box geom.BBox, truthID int) (any, bool) {
	rec, miss := get(s, s.labels, labelKey{
		source, model, frame, int(box.X1), int(box.Y1), int(box.X2), int(box.Y2), truthID,
	})
	if miss != MissNone {
		return nil, false
	}
	return rec.Value, true
}

// Stats is a point-in-time summary of the store's tiers.
type Stats struct {
	// ScanRecords / DetRecords / LabelRecords count durable (disk-tier)
	// records per kind.
	ScanRecords, DetRecords, LabelRecords int
	// MemRecords counts hot-tier residents across kinds.
	MemRecords int
	// Evicted counts hot-tier evictions (records remain on disk).
	Evicted int
	// CorruptRecords counts records skipped at open.
	CorruptRecords int
	// MemOnlyTiers counts tiers degraded to memory-only by write
	// failures (0–3); FaultedReads counts disk reads served as misses
	// by the injected read hook.
	MemOnlyTiers int
	FaultedReads int
	// FidelityEntries counts fidelity-manifest entries across sources.
	FidelityEntries int
}

// TierStats summarizes the store for dashboards (/streamz) and CLIs.
func (s *Store) TierStats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		ScanRecords:    len(s.scans.idx),
		DetRecords:     len(s.dets.idx),
		LabelRecords:   len(s.labels.idx),
		MemRecords:     len(s.scans.mem) + len(s.dets.mem) + len(s.labels.mem),
		Evicted:        s.scans.evicted + s.dets.evicted + s.labels.evicted,
		CorruptRecords: s.scans.corrupt + s.dets.corrupt + s.labels.corrupt,
		FaultedReads: int(s.counters.Get(s.scans.ctr.faultedReads) + s.counters.Get(s.dets.ctr.faultedReads) +
			s.counters.Get(s.labels.ctr.faultedReads)),
		FidelityEntries: len(s.fidelity),
	}
	for _, memOnly := range []bool{s.scans.memOnly, s.dets.memOnly, s.labels.memOnly} {
		if memOnly {
			st.MemOnlyTiers++
		}
	}
	return st
}
