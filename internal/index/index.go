// Package index is the appearance-embedding index over the archival
// result store: the subsystem that turns "find this object anywhere in
// the archive" from an O(archive) rescan into an index probe plus
// verification of a handful of candidate frames (DESIGN.md §10).
//
// An offline extraction pass (Extract) walks the store's archived
// ScanRecord/DetRecord coverage for one (source, scan signature, class),
// computes one appearance embedding per distinct track — memoized per
// (source, track), charged on sim.Clock like any model work — and
// persists entries keyed by (source, global/track id, first/last frame)
// into a small centroid-partitioned flat index. Probes answer "which
// tracks could match this feature above this threshold" with exact
// recall: partitions whose centroid bound proves every member is below
// the threshold are pruned (the spherical triangle inequality), the rest
// are scanned exactly, so a probe can skip work but never a qualifying
// track. The query layer verifies only the frames those candidate
// tracks span (exec.RunIndexVerify) and falls back to full rescan for
// frames beyond the extracted coverage prefix.
//
// Durability is the store's, literally: the segment log is an
// internal/reclog log (CRC-framed records, corrupt records skipped and
// torn tails truncated at open), behind a reclog manifest that
// invalidates the whole index when the seed, zoo version or embedder
// model do not match — embeddings are model outputs, so under a
// different identity they are wrong, not stale.
package index

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"

	"vqpy/internal/metrics"
	"vqpy/internal/models"
	"vqpy/internal/reclog"
)

// FormatVersion identifies the on-disk layout; indexes written by other
// versions are invalidated at open.
const FormatVersion = 1

// attachCos is the minimum cosine similarity between a new entry's
// embedding and a partition centroid for the entry to join that
// partition; below it a new partition is opened with the entry's vector
// as its frozen center. Frozen centers keep partition assignment a pure
// function of insertion order, so a rebuilt index (log replay) produces
// the identical structure.
const attachCos = 0.6

// defaultThreshold is the cosine match bar Exemplar evaluates
// localization against — the same default the search layer applies.
const defaultThreshold = 0.7

// Probe cost model, charged to the clock (no real-work mirror — probes
// are metadata scans, not model inference): a fixed per-probe base plus
// a per-scanned-entry and per-scanned-partition term. Centroid bound
// checks on pruned partitions are free; the charge reflects work that
// scales with what the probe actually touched.
const (
	probeBaseMS      = 1.0
	probePartitionMS = 0.05
	probeEntryMS     = 0.02
)

// Meta is the index manifest: the identity its embeddings are only
// valid under. Embeddings are model outputs — pure functions of (seed,
// model, frame, object) — so a mismatch on any component means the
// persisted vectors differ from what the live embedder would return,
// and the index must be rebuilt, the same rule the store applies to its
// records.
type Meta struct {
	// Version is the on-disk format version.
	Version int `json:"version"`
	// Seed is the session seed the embeddings were computed under.
	Seed uint64 `json:"seed"`
	// ZooVersion is models.ZooVersion at extraction time.
	ZooVersion int `json:"zoo_version"`
	// Embedder is the embedding model name (the zoo's fleet_reid).
	Embedder string `json:"embedder"`
}

// Entry is one indexed object: a track's appearance embedding plus the
// frame span it was sighted over within the extracted coverage.
type Entry struct {
	// Source / Sig / Class locate the scan the track belongs to: the
	// video source, the scan-group signature (exec.ScanSig.Key) and the
	// tracked class.
	Source string
	Sig    string
	Class  int
	// Track is the shared tracker's from-zero track id; GlobalID the
	// fleet registry's cross-camera id (-1 when extraction ran without a
	// fleet registry or the embedder declined the crop).
	Track    int
	GlobalID int
	// First / Last bound the archived frames the track was sighted on
	// within the extracted coverage prefix; Frames counts them. Within
	// coverage the bounds are exact: extraction walks every frame.
	First, Last int
	Frames      int
	// Vec is the appearance embedding at the track's first archived
	// sighting — the memoized one-per-object embedding. Nil when the
	// embedder returned nothing (e.g. an untracked crop); such entries
	// are remembered (so the embedding is not retried every pass) but
	// never probe candidates.
	Vec []float64
}

// partition is one centroid cell of the flat index: a frozen center and
// the entries assigned to it, with the widest member angle as the
// pruning bound.
type partition struct {
	center []float64
	// maxAngle is max over members of angle(center, member.Vec) —
	// monotone under appends, which keeps the pruning bound sound as the
	// index grows.
	maxAngle float64
	members  []*Entry
}

// Index is the appearance index over one directory. Safe for concurrent
// use: probes take a read lock, extraction appends under the write
// lock, so probes interleave with incremental appends.
type Index struct {
	mu   sync.RWMutex
	dir  string
	meta Meta

	log     *reclog.Log
	memOnly bool

	entries map[entryKey]*Entry
	parts   map[partKey][]*partition
	covered map[coverKey]int // contiguous extracted prefix

	// extractMu serializes extraction passes so two concurrent Extract
	// calls cannot interleave their coverage walks; probes are not
	// blocked by it.
	extractMu sync.Mutex

	counters *metrics.Counters
	warnings []string
	closed   bool
}

// segmentsName is the segment log file inside the index directory.
const segmentsName = "segments.log"

// entryKey, partKey and coverKey are the map keys of the in-memory
// structure: comparable structs, unambiguous for any source / signature
// strings.
type entryKey struct {
	source, sig  string
	class, track int
}

type partKey struct {
	source, sig string
	class       int
}

type coverKey struct{ source, sig string }

// Open opens (creating if needed) the index rooted at dir for the given
// identity. A directory written under a different seed, format version,
// zoo version or embedder is invalidated: its segment log is removed
// and the index starts empty (counter "invalidated"). Corrupt log
// records are skipped with a warning (counter "corrupt_records") and a
// torn tail is truncated — reclog's recovery contract, shared with the
// store's tiers.
func Open(dir string, meta Meta) (*Index, error) {
	if meta.Version == 0 {
		meta.Version = FormatVersion
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("index: %w", err)
	}
	x := &Index{
		dir: dir, meta: meta,
		entries:  make(map[entryKey]*Entry),
		parts:    make(map[partKey][]*partition),
		covered:  make(map[coverKey]int),
		counters: metrics.NewCounters(),
	}

	// Wrong identity: every persisted embedding was computed by a
	// different model world and must not be served.
	warning, err := reclog.CheckManifest(dir, "index", meta, segmentsName)
	if err != nil {
		return nil, fmt.Errorf("index: %w", err)
	}
	if warning != "" {
		x.counters.Add("invalidated", 1)
		x.warnings = append(x.warnings, warning)
	}

	// Replay the segment log: entries are inserted (and partitioned) in
	// append order, coverage watermarks applied monotonically.
	log, rec, err := reclog.Open(filepath.Join(dir, segmentsName), "index", maxSegRecordBytes,
		func(_ int64, frame []byte) error {
			var r segRecord
			if err := reclog.Decode(frame, &r); err != nil {
				return err
			}
			x.applyRecord(&r)
			return nil
		})
	if err != nil {
		return nil, fmt.Errorf("index: %w", err)
	}
	x.log = log
	x.warnings = append(x.warnings, rec.Warnings...)
	x.counters.Add("torn_tail_truncated", int64(rec.Torn))
	x.counters.Add("corrupt_records", int64(rec.Corrupt))
	// A mid-log corrupt record may have been an entry whose later
	// coverage record survived — coverage claiming a track the index
	// lost would make the probe path silently miss its frames. Entries
	// are reusable memoized facts either way, but coverage is a
	// soundness claim: void it and let the next extraction pass re-walk
	// the archive (cheap — every known track's embedding is memoized)
	// to re-establish it. A torn tail needs none of this: the log is
	// append-ordered with each pass's coverage record written after its
	// entries, so a lost suffix always loses the coverage claim before
	// the entries it covered.
	if rec.Corrupt > 0 && len(x.covered) > 0 {
		x.covered = make(map[coverKey]int)
		x.warnings = append(x.warnings,
			"index: corrupt record voided coverage; re-extract to re-establish the probe path")
	}
	return x, nil
}

// applyRecord folds one replayed (or freshly appended) record into the
// in-memory structure. Entry records are latest-wins on the span fields
// but first-wins on partition placement: the embedding never changes
// for a given key, so re-partitioning is never needed.
func (x *Index) applyRecord(rec *segRecord) {
	switch rec.Kind {
	case recEntry:
		e := rec.Entry
		x.insertEntry(&e)
	case recCoverage:
		ck := coverKey{rec.Coverage.Source, rec.Coverage.Sig}
		if rec.Coverage.Upto > x.covered[ck] {
			x.covered[ck] = rec.Coverage.Upto
		}
	}
}

// insertEntry installs or updates one entry under x.mu (or during
// single-threaded open).
func (x *Index) insertEntry(e *Entry) {
	k := entryKey{e.Source, e.Sig, e.Class, e.Track}
	if have, ok := x.entries[k]; ok {
		have.Last = e.Last
		have.Frames = e.Frames
		have.GlobalID = e.GlobalID
		return
	}
	x.entries[k] = e
	if len(e.Vec) == 0 {
		return
	}
	pk := partKey{e.Source, e.Sig, e.Class}
	parts := x.parts[pk]
	best, bestCos := -1, attachCos
	for i, p := range parts {
		if c := models.Cosine(p.center, e.Vec); c >= bestCos {
			best, bestCos = i, c
		}
	}
	if best < 0 {
		x.parts[pk] = append(parts, &partition{
			center: append([]float64(nil), e.Vec...), members: []*Entry{e},
		})
		return
	}
	p := parts[best]
	p.members = append(p.members, e)
	if a := angleOf(models.Cosine(p.center, e.Vec)); a > p.maxAngle {
		p.maxAngle = a
	}
}

// appendLocked frames and appends one record to the segment log. A
// write failure degrades the index to memory-only (the index is a
// derived structure — re-extraction is always correct — so losing
// durability, not correctness, is the right failure mode). Callers hold
// x.mu.
func (x *Index) appendLocked(rec *segRecord) {
	if x.memOnly {
		x.counters.Add("puts_mem_only", 1)
		return
	}
	framed, err := reclog.Encode(rec)
	if err == nil {
		_, err = x.log.Append(framed)
	}
	if err != nil {
		x.memOnly = true
		x.counters.Add("degraded_mem_only", 1)
		x.warnings = append(x.warnings, fmt.Sprintf(
			"index: append failed (%v); index degraded to memory-only", err))
		return
	}
	x.counters.Add("records_appended", 1)
}

// Close syncs and closes the segment log. Further appends degrade to
// memory-only; probes keep working off the in-memory structure.
func (x *Index) Close() error {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.closed {
		return nil
	}
	x.closed = true
	x.memOnly = true
	return x.log.Close()
}

// Dir returns the index's root directory.
func (x *Index) Dir() string { return x.dir }

// Meta returns the identity the index's embeddings are valid under.
func (x *Index) Meta() Meta { return x.meta }

// Counters exposes the index's probe / extraction / durability counters
// (probes, probe_candidates, probe_scanned, probe_pruned,
// index_faulted_reads, corrupt_records, invalidated, ...).
func (x *Index) Counters() *metrics.Counters { return x.counters }

// Warnings returns the messages accumulated while opening or appending
// (corrupt records skipped, invalidation, durability degradation).
func (x *Index) Warnings() []string {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return append([]string(nil), x.warnings...)
}

// Covered returns the extracted contiguous frame prefix [0, n) of one
// (source, scan signature): every archived frame below it has been
// walked into the index. Frames at or past it need the full-rescan
// fallback.
func (x *Index) Covered(source, sig string) int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return x.covered[coverKey{source, sig}]
}

// FeatureOf returns the indexed appearance embedding of one track — the
// exemplar lookup behind "find objects like track T". The returned
// slice is shared and must not be mutated.
func (x *Index) FeatureOf(source, sig string, class, track int) ([]float64, bool) {
	x.mu.RLock()
	defer x.mu.RUnlock()
	e, ok := x.entries[entryKey{source, sig, class, track}]
	if !ok || len(e.Vec) == 0 {
		return nil, false
	}
	return e.Vec, true
}

// Entries returns copies of every entry of one (source, sig, class),
// sorted by (First, Track) — deterministic iteration for exemplar
// selection and tests.
func (x *Index) Entries(source, sig string, class int) []Entry {
	x.mu.RLock()
	defer x.mu.RUnlock()
	var out []Entry
	for _, e := range x.entries {
		if e.Source == source && e.Sig == sig && e.Class == class {
			out = append(out, *e)
		}
	}
	sortEntries(out)
	return out
}

// Exemplar returns a deterministic indexed entry with a usable
// embedding, chosen to localize well: among embeddable entries it
// minimizes the summed frame span of the entries its appearance
// matches at the default 0.7 threshold (ties broken by first frame,
// source, signature, class, then track). The greedy IOU tracker can
// chain one track id across many entities at a busy intersection —
// such a track spans most of the archive and prunes nothing — so
// demos and benchmarks exemplify a single-transit entity instead, the
// "find this car in the archive" shape the index exists for. ok is
// false when nothing embeddable is indexed. No probe cost is charged;
// this is offline bookkeeping, not a query.
func (x *Index) Exemplar() (Entry, bool) {
	x.mu.RLock()
	defer x.mu.RUnlock()
	var all []*Entry
	for _, e := range x.entries {
		if len(e.Vec) > 0 {
			all = append(all, e)
		}
	}
	var best *Entry
	bestSpan := 0
	for _, e := range all {
		span := 0
		for _, o := range all {
			if o.Source == e.Source && o.Sig == e.Sig && o.Class == e.Class &&
				models.Cosine(o.Vec, e.Vec) >= defaultThreshold {
				span += o.Last - o.First + 1
			}
		}
		if best == nil || span < bestSpan || (span == bestSpan && exemplarBefore(e, best)) {
			best, bestSpan = e, span
		}
	}
	if best == nil {
		return Entry{}, false
	}
	return *best, true
}

// exemplarBefore is Exemplar's tie-break order over embeddable entries.
func exemplarBefore(a, b *Entry) bool {
	if a.First != b.First {
		return a.First < b.First
	}
	if a.Source != b.Source {
		return a.Source < b.Source
	}
	if a.Sig != b.Sig {
		return a.Sig < b.Sig
	}
	if a.Class != b.Class {
		return a.Class < b.Class
	}
	return a.Track < b.Track
}

// sortEntries orders entries by (First, Track) ascending.
func sortEntries(es []Entry) {
	for i := 1; i < len(es); i++ {
		for j := i; j > 0 && (es[j].First < es[j-1].First ||
			(es[j].First == es[j-1].First && es[j].Track < es[j-1].Track)); j-- {
			es[j], es[j-1] = es[j-1], es[j]
		}
	}
}

// angleOf converts a cosine similarity to an angle, clamped into the
// valid domain (float noise can push a cosine epsilon past ±1).
func angleOf(cos float64) float64 {
	if cos > 1 {
		cos = 1
	}
	if cos < -1 {
		cos = -1
	}
	return math.Acos(cos)
}

// pruneEps absorbs float rounding in the triangle-inequality bound so a
// borderline partition is scanned rather than wrongly pruned.
const pruneEps = 1e-9

// Probe returns every indexed track of (source, sig, class) whose
// appearance embedding has cosine similarity >= threshold with feature,
// as entry copies sorted by (First, Track). Recall is exact: a
// partition is skipped only when the spherical triangle inequality
// proves every member is below the threshold —
//
//	angle(q, member) >= angle(q, center) − maxAngle(partition)
//
// so if angle(q, center) − maxAngle > acos(threshold), no member can
// qualify. Entries in surviving partitions are compared exactly with
// the same models.Cosine the verification path uses, so probe and
// full-scan threshold decisions are bitwise identical.
//
// The probe charges env's clock (account "index_probe") a base cost
// plus per-partition and per-entry terms for what it scanned; pruned
// partitions cost nothing, which is what makes archive search sub-linear
// when the index separates identities well.
func (x *Index) Probe(env *models.Env, source, sig string, class int, feature []float64, threshold float64) []Entry {
	x.mu.RLock()
	defer x.mu.RUnlock()
	x.counters.Add("probes", 1)
	var out []Entry
	scanned, prunedEntries, scannedParts := 0, 0, 0
	bound := angleOf(threshold)
	for _, p := range x.parts[partKey{source, sig, class}] {
		if len(feature) > 0 {
			qAngle := angleOf(models.Cosine(p.center, feature))
			if qAngle-p.maxAngle > bound+pruneEps {
				prunedEntries += len(p.members)
				continue
			}
		}
		scannedParts++
		for _, e := range p.members {
			scanned++
			if models.Cosine(e.Vec, feature) >= threshold {
				out = append(out, *e)
			}
		}
	}
	if env != nil {
		env.ChargeClockOnly("index_probe",
			probeBaseMS+probePartitionMS*float64(scannedParts)+probeEntryMS*float64(scanned))
	}
	x.counters.Add("probe_scanned", int64(scanned))
	x.counters.Add("probe_pruned", int64(prunedEntries))
	x.counters.Add("probe_candidates", int64(len(out)))
	sortEntries(out)
	return out
}

// Stats is a point-in-time summary of the index for dashboards
// (/streamz) and CLIs.
type Stats struct {
	// Entries counts indexed tracks; Partitions the centroid cells.
	Entries    int
	Partitions int
	// CoveredRanges counts (source, sig) pairs with a non-zero extracted
	// prefix.
	CoveredRanges int
	// Probes / Candidates / Scanned / Pruned accumulate probe activity:
	// probes served, candidate tracks returned, entries compared exactly
	// and entries skipped by partition pruning.
	Probes     int64
	Candidates int64
	Scanned    int64
	Pruned     int64
	// FaultedReads counts store reads that faulted during extraction
	// (each one stops coverage, leaving the range to the full-rescan
	// fallback); CorruptRecords the segment records skipped at open.
	FaultedReads   int64
	CorruptRecords int64
	// MemOnly reports the index degraded to memory-only after an append
	// failure.
	MemOnly bool
}

// TierStats summarizes the index.
func (x *Index) TierStats() Stats {
	x.mu.RLock()
	defer x.mu.RUnlock()
	st := Stats{
		Entries:        len(x.entries),
		Probes:         x.counters.Get("probes"),
		Candidates:     x.counters.Get("probe_candidates"),
		Scanned:        x.counters.Get("probe_scanned"),
		Pruned:         x.counters.Get("probe_pruned"),
		FaultedReads:   x.counters.Get("index_faulted_reads"),
		CorruptRecords: x.counters.Get("corrupt_records"),
		MemOnly:        x.memOnly,
	}
	for _, ps := range x.parts {
		st.Partitions += len(ps)
	}
	for _, upto := range x.covered {
		if upto > 0 {
			st.CoveredRanges++
		}
	}
	return st
}
