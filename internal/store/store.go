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
// The store is safe for concurrent use; all operations serialize behind
// one mutex (records are small and reads are index lookups, so the lock
// is never held across model work).
package store

import (
	"fmt"
	"os"
	"path/filepath"
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

	scans  *tier // ScanRecord:  source ⨯ scan signature ⨯ frame
	dets   *tier // DetRecord:   source ⨯ detector model ⨯ frame
	labels *tier // LabelRecord: source ⨯ model ⨯ frame ⨯ box ⨯ object

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

	for _, k := range []struct {
		dst    **tier
		name   string
		decode func(frame []byte) (string, any, error)
	}{
		{&s.scans, "scans", decodeAs(func(r *ScanRecord) string { return scanKey(r.Source, r.ScanKey, r.Frame) })},
		{&s.dets, "dets", decodeAs(func(r *DetRecord) string { return detKey(r.Source, r.Model, r.Frame) })},
		{&s.labels, "labels", decodeAs(func(r *LabelRecord) string {
			return labelKey(r.Source, r.Model, r.Frame, r.X1, r.Y1, r.X2, r.Y2, r.TruthID)
		})},
	} {
		t, warns, err := openTier(filepath.Join(dir, k.name+".log"), k.name, opts.MemRecords, k.decode)
		if err != nil {
			s.closeTiers()
			return nil, fmt.Errorf("store: %s: %w", k.name, err)
		}
		t.readFault = opts.ReadFault
		s.warnings = append(s.warnings, warns...)
		s.counters.Add("corrupt_records", int64(t.corrupt))
		*k.dst = t
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
	for _, t := range []*tier{s.scans, s.dets, s.labels} {
		if t == nil {
			continue
		}
		if err := t.log.Close(); err != nil && first == nil {
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

// scanKey / detKey / labelKey build the index keys. \x00 separators keep
// compound keys unambiguous for any source / model / signature strings.
func scanKey(source, sig string, frame int) string {
	return fmt.Sprintf("%s\x00%s\x00%d", source, sig, frame)
}

func detKey(source, model string, frame int) string {
	return fmt.Sprintf("%s\x00%s\x00%d", source, model, frame)
}

func labelKey(source, model string, frame int, x1, y1, x2, y2, truthID int) string {
	return fmt.Sprintf("%s\x00%s\x00%d\x00%d,%d,%d,%d\x00%d", source, model, frame, x1, y1, x2, y2, truthID)
}

// decodeAs builds a tier's decoder for record type R: gob-decode the
// frame and derive the index key from the record's own fields.
func decodeAs[R any](key func(*R) string) func(frame []byte) (string, any, error) {
	return func(frame []byte) (string, any, error) {
		r := new(R)
		if err := reclog.Decode(frame, r); err != nil {
			return "", nil, err
		}
		return key(r), r, nil
	}
}

// put frames and appends one record under the store lock.
func (s *Store) put(t *tier, kind, key string, val any) error {
	framed, err := reclog.Encode(val)
	if err != nil {
		return fmt.Errorf("store: encode %s: %w", kind, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: %s put on closed store", kind)
	}
	if t.memOnly {
		t.install(key, val)
		s.counters.Add(kind+"_puts_mem_only", 1)
		return nil
	}
	if s.writeFault != nil {
		err = s.writeFault(t.name)
	}
	if err == nil {
		err = t.put(key, val, framed)
	}
	if err != nil {
		// A failed append downgrades the whole tier to memory-only
		// rather than failing the query: the store is a cache, so
		// serving from memory (and recomputing what falls out) is always
		// correct — only cross-process reuse is lost. Appending past a
		// failed write is not attempted again: the log tail state is
		// unknown, and a gap would corrupt the framing.
		s.degradeTierLocked(t, kind, err)
		t.install(key, val)
		s.counters.Add(kind+"_puts_mem_only", 1)
		return nil
	}
	s.counters.Add(kind+"_puts", 1)
	return nil
}

// degradeTierLocked flips one tier into memory-only mode after a write
// failure. Callers hold s.mu.
func (s *Store) degradeTierLocked(t *tier, kind string, err error) {
	s.counters.Add(kind+"_write_failures", 1)
	if !t.memOnly {
		t.memOnly = true
		s.counters.Add("tier_degraded_mem_only", 1)
		s.warnings = append(s.warnings, fmt.Sprintf(
			"store: %s: append failed (%v); tier degraded to memory-only", t.name, err))
	}
}

// get reads one record under the store lock, counting tier hits.
func (s *Store) get(t *tier, kind, key string) (any, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false
	}
	faultedBefore := t.faultedReads
	v, memHit, ok := t.get(key)
	if t.faultedReads > faultedBefore {
		s.counters.Add(kind+"_faulted_reads", 1)
	}
	switch {
	case !ok:
		s.counters.Add(kind+"_misses", 1)
	case memHit:
		s.counters.Add(kind+"_mem_hits", 1)
	default:
		s.counters.Add(kind+"_disk_hits", 1)
	}
	return v, ok
}

// PutScan persists one scan group's outcome for a frame.
func (s *Store) PutScan(rec *ScanRecord) error {
	return s.put(s.scans, "scan", scanKey(rec.Source, rec.ScanKey, rec.Frame), rec)
}

// GetScan returns a frame's persisted scan outcome for one scan-group
// signature. The returned record is shared and must not be mutated.
func (s *Store) GetScan(source, sig string, frame int) (*ScanRecord, bool) {
	v, ok := s.get(s.scans, "scan", scanKey(source, sig, frame))
	if !ok {
		return nil, false
	}
	return v.(*ScanRecord), true
}

// GetScanRef is GetScan plus a pin: the record's hot-tier entry is
// protected from LRU eviction until release is called. Long replays
// (backfill over thousands of frames) pin each record only while
// reading it, so churn from concurrent queries cannot thrash an entry
// out from under the replay mid-read.
func (s *Store) GetScanRef(source, sig string, frame int) (rec *ScanRecord, release func(), ok bool) {
	key := scanKey(source, sig, frame)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, nil, false
	}
	v, memHit, found := s.scans.get(key)
	if !found {
		s.counters.Add("scan_misses", 1)
		return nil, nil, false
	}
	if memHit {
		s.counters.Add("scan_mem_hits", 1)
	} else {
		s.counters.Add("scan_disk_hits", 1)
	}
	s.scans.pin(key)
	release = func() {
		s.mu.Lock()
		s.scans.unpin(key)
		s.mu.Unlock()
	}
	return v.(*ScanRecord), release, true
}

// PutDets persists one detector invocation's raw output.
func (s *Store) PutDets(source, model string, frame int, dets []Detection) error {
	rec := &DetRecord{Source: source, Model: model, Frame: frame, Dets: dets}
	return s.put(s.dets, "det", detKey(source, model, frame), rec)
}

// GetDets returns a frame's persisted raw detector output. The returned
// slice is shared and must not be mutated.
func (s *Store) GetDets(source, model string, frame int) ([]Detection, bool) {
	v, ok := s.get(s.dets, "det", detKey(source, model, frame))
	if !ok {
		return nil, false
	}
	return v.(*DetRecord).Dets, true
}

// PutLabel persists one per-crop model output. Values of types the
// store cannot round-trip exactly are silently not persisted (the store
// is a cache; recomputing is always correct).
func (s *Store) PutLabel(source, model string, frame int, box geom.BBox, truthID int, value any) error {
	if !gobSafe(value) {
		s.counters.Add("label_skipped_type", 1)
		return nil
	}
	x1, y1, x2, y2 := int(box.X1), int(box.Y1), int(box.X2), int(box.Y2)
	rec := &LabelRecord{
		Source: source, Model: model, Frame: frame,
		X1: x1, Y1: y1, X2: x2, Y2: y2, TruthID: truthID, Value: value,
	}
	return s.put(s.labels, "label", labelKey(source, model, frame, x1, y1, x2, y2, truthID), rec)
}

// GetLabel returns a persisted per-crop model output.
func (s *Store) GetLabel(source, model string, frame int, box geom.BBox, truthID int) (any, bool) {
	x1, y1, x2, y2 := int(box.X1), int(box.Y1), int(box.X2), int(box.Y2)
	v, ok := s.get(s.labels, "label", labelKey(source, model, frame, x1, y1, x2, y2, truthID))
	if !ok {
		return nil, false
	}
	return v.(*LabelRecord).Value, true
}

// CoversScans reports whether the store holds a scan record for every
// frame in [0, frames) of (source, sig) — the precondition for a
// backfill replay.
func (s *Store) CoversScans(source, sig string, frames int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	for f := 0; f < frames; f++ {
		if _, ok := s.scans.idx[scanKey(source, sig, f)]; !ok {
			return false
		}
	}
	return true
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
		ScanRecords:     len(s.scans.idx),
		DetRecords:      len(s.dets.idx),
		LabelRecords:    len(s.labels.idx),
		MemRecords:      len(s.scans.mem) + len(s.dets.mem) + len(s.labels.mem),
		Evicted:         s.scans.evicted + s.dets.evicted + s.labels.evicted,
		CorruptRecords:  s.scans.corrupt + s.dets.corrupt + s.labels.corrupt,
		FaultedReads:    s.scans.faultedReads + s.dets.faultedReads + s.labels.faultedReads,
		FidelityEntries: len(s.fidelity),
	}
	for _, t := range []*tier{s.scans, s.dets, s.labels} {
		if t.memOnly {
			st.MemOnlyTiers++
		}
	}
	return st
}
