package index

// Extraction: the offline pass that walks archived store coverage and
// turns it into index entries. Extraction is incremental — each call
// resumes from the current coverage watermark and advances it as far as
// the archive allows — and fault-aware: an injected (or genuine) store
// read failure stops the watermark at the failing frame, leaving that
// range to the query layer's full-rescan fallback. The index can be
// wrong about nothing: it only ever claims coverage for frames whose
// records it actually read.
//
// Embedding cost accounting: each distinct (source, track) pays for
// exactly one embedder invocation — at the track's first archived
// sighting — no matter how many frames the track spans, and never
// again on later passes (the entry memoizes the vector). The charge
// lands on the session clock through the ordinary models path, so
// extraction cost is visible in the ledger like any other model work.

import (
	"fmt"

	"vqpy/internal/fleet"
	"vqpy/internal/geom"
	"vqpy/internal/models"
	"vqpy/internal/store"
	"vqpy/internal/video"
)

// ExtractConfig describes one extraction pass.
type ExtractConfig struct {
	// Store is the archive to walk; Src the frame source backing it
	// (frames are needed to embed crops). Both required.
	Store *store.Store
	Src   video.FrameSource
	// Source names the stream; empty defaults to Src.SourceName().
	Source string
	// Sig is the scan-group signature key (exec.ScanSig.Key) whose
	// archived records to walk; Detect the detector the signature chose
	// (records persisted under a different detector stop coverage — the
	// store's own invalidation rule).
	Sig    string
	Detect string
	// Class is the tracked class whose ids and detections to index.
	Class int
	// Env and Embedder compute the appearance embeddings (the zoo's
	// fleet_reid), charged on Env's clock.
	Env      *models.Env
	Embedder models.Embedder
	// Fleet, when set, resolves each embedded track to its cross-camera
	// global id (Entry.GlobalID); nil leaves global ids at -1.
	Fleet *fleet.Registry
}

// ExtractStats reports what one extraction pass did.
type ExtractStats struct {
	// From / To bound the walked range: coverage advanced from From to
	// To (To == From when the first frame already stopped the walk).
	From, To int
	// NewTracks counts tracks embedded and inserted this pass; Updated
	// counts existing entries whose span grew.
	NewTracks int
	Updated   int
	// FaultStopped reports the walk ended on a faulted store read
	// (counter "index_faulted_reads") rather than on missing records.
	FaultStopped bool
}

// Extract walks archived frames [Covered(source, sig), upto) and folds
// every sighting of cfg.Class into the index: new tracks are embedded
// (once) and inserted, known tracks extend their frame span. The walk
// stops early — without error — at the first frame whose scan record is
// missing, was written by a different detector, lacks from-zero ids for
// the class, or whose store read faulted; coverage advances exactly to
// the stop point, so the index never claims frames it did not read.
// Touched entries and the new watermark are appended to the segment log
// before returning.
func (x *Index) Extract(cfg ExtractConfig, upto int) (ExtractStats, error) {
	if cfg.Store == nil || cfg.Src == nil || cfg.Env == nil || cfg.Embedder == nil {
		return ExtractStats{}, fmt.Errorf("index: Extract requires Store, Src, Env and Embedder")
	}
	if cfg.Source == "" {
		cfg.Source = cfg.Src.SourceName()
	}
	x.extractMu.Lock()
	defer x.extractMu.Unlock()

	from := x.Covered(cfg.Source, cfg.Sig)
	st := ExtractStats{From: from, To: from}
	if upto <= from {
		return st, nil
	}
	touched := make(map[entryKey]bool)
	scans := cfg.Store.Scans(cfg.Source, cfg.Sig, cfg.Detect)
	var buf []store.Detection

	f := from
	for ; f < upto; f++ {
		fr, miss := scans.Frame(f, true)
		if miss != store.MissNone {
			if miss == store.MissFaulted {
				// Chaos, not absence, left the range uncovered: say so.
				st.FaultStopped = true
				x.counters.Add("index_faulted_reads", 1)
				x.mu.Lock()
				x.warnings = append(x.warnings, fmt.Sprintf(
					"index: store read fault at %s frame %d; coverage stops there (full-rescan fallback)", cfg.Source, f))
				x.mu.Unlock()
			}
			break
		}
		if fr.Rec.Dropped {
			continue
		}
		dets, ids, have := fr.Class(cfg.Class, buf)
		buf = dets
		if !have {
			// The archive has no from-zero track ids for this class under
			// this signature at f (e.g. a cold mid-stream attach archived
			// the frame id-less): nothing trustworthy to index past here.
			break
		}
		for i, d := range dets {
			if ids[i] >= 0 {
				x.sight(cfg, ids[i], f, d, touched, &st)
			}
		}
	}
	st.To = f

	x.mu.Lock()
	defer x.mu.Unlock()
	for k := range touched {
		if e := x.entries[k]; e != nil {
			x.appendLocked(&segRecord{Kind: recEntry, Entry: *e})
		}
	}
	ck := coverKey{cfg.Source, cfg.Sig}
	if f > x.covered[ck] {
		x.covered[ck] = f
		x.appendLocked(&segRecord{Kind: recCoverage,
			Coverage: coverageRec{Source: cfg.Source, Sig: cfg.Sig, Upto: f}})
	}
	return st, nil
}

// sight folds one archived detection of a live track into the index:
// span extension for a known track, embed-and-insert for a new one.
func (x *Index) sight(cfg ExtractConfig, track, frame int, d store.Detection, touched map[entryKey]bool, st *ExtractStats) {
	k := entryKey{cfg.Source, cfg.Sig, cfg.Class, track}
	x.mu.Lock()
	if e, ok := x.entries[k]; ok {
		if frame > e.Last {
			e.Last = frame
			e.Frames++
			touched[k] = true
			st.Updated++
		}
		x.mu.Unlock()
		return
	}
	x.mu.Unlock()

	// First sighting: pay the one memoized embedding, outside the index
	// lock so concurrent probes are not blocked behind model work.
	vec := cfg.Embedder.Embed(cfg.Env, cfg.Src.FrameAt(frame), d.Box, d.TruthID)
	gid := -1
	if cfg.Fleet != nil && len(vec) > 0 {
		gid = cfg.Fleet.Resolve(cfg.Source, track, vec)
	}
	e := &Entry{
		Source: cfg.Source, Sig: cfg.Sig, Class: cfg.Class,
		Track: track, GlobalID: gid,
		First: frame, Last: frame, Frames: 1, Vec: vec,
	}
	x.mu.Lock()
	if _, ok := x.entries[k]; !ok {
		x.insertEntry(e)
		touched[k] = true
		st.NewTracks++
	}
	x.mu.Unlock()
}

// Appearance is one track's first archived sighting within a walked
// frame range — the crop the appearance predicate embeds.
type Appearance struct {
	Track   int
	Frame   int
	Box     geom.BBox
	TruthID int
}

// StoreAppearances walks archived frames [from, to) of (source, sig)
// and returns each distinct track's first sighting, in first-frame
// order. Frames the archive cannot serve, dropped frames and frames
// without from-zero ids contribute nothing. The walk reads through the
// same store.ScanReader as Extract and differs only in policy — it
// skips an unusable frame where extraction stops — so for any range
// extraction fully covered the two see identical first sightings; that
// is what makes probe-then-verify bit-identical to the full scan.
func StoreAppearances(st *store.Store, source, sig, detect string, class, from, to int) []Appearance {
	var out []Appearance
	seen := make(map[int]bool)
	scans := st.Scans(source, sig, detect)
	var buf []store.Detection
	for f := from; f < to; f++ {
		fr, miss := scans.Frame(f, true)
		if miss != store.MissNone || fr.Rec.Dropped {
			continue
		}
		dets, ids, have := fr.Class(class, buf)
		buf = dets
		if !have {
			continue
		}
		for i, d := range dets {
			id := ids[i]
			if id < 0 || seen[id] {
				continue
			}
			seen[id] = true
			out = append(out, Appearance{Track: id, Frame: f, Box: d.Box, TruthID: d.TruthID})
		}
	}
	return out
}
