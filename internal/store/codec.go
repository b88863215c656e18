package store

// The record kinds the tiers persist. Framing, checksums and recovery
// belong to internal/reclog; every record is one gob-encoded frame of
// its tier's log.
//
// Values stored through the `any`-typed label channel are restricted to
// the concrete types the simulated model zoo emits (strings, numbers,
// float slices); see gobSafe. Unknown types are silently not persisted —
// the store is a cache, and a value it cannot carry is simply recomputed.

import (
	"encoding/gob"

	"vqpy/internal/geom"
)

// Detection is the store's detector-output row: track.Detection with the
// caller-opaque Ref pinned down to the ground-truth id the simulated
// models thread through it. Persisting the concrete field (instead of an
// `any`) keeps gob round trips type-exact, which the bit-identity
// contract depends on.
type Detection struct {
	// Box is the detected bounding box.
	Box geom.BBox
	// Class is the tracker-level integer class label.
	Class int
	// Score is the detection confidence.
	Score float64
	// TruthID is the ground-truth object id carried through Ref on the
	// live path (the simulated models' noise key).
	TruthID int
}

// DetRecord persists one detector invocation: the raw output of running
// a detect model over one frame of one source. Keyed by (source, model,
// frame) — detector output does not depend on which frame filters or
// queries surround it, so one record serves every scan group and every
// per-query stream that needs this (model, frame).
type DetRecord struct {
	// Source names the video / camera stream.
	Source string
	// Model is the detector model name.
	Model string
	// Frame is the frame index within the source.
	Frame int
	// Dets is the raw detector output, all classes.
	Dets []Detection
}

// ScanRecord persists one scan group's per-frame outcome: whether the
// frame survived the group's frame-filter chain and, per tracked class,
// the track ids the shared tracker assigned. Keyed by (source, scan-group
// signature, frame) — the signature (exec.ScanSig.Key: ordered filter
// chain + detector) participates because tracker state depends on
// exactly which frames reach it.
//
// IDs[class] is parallel to the class-filtered subsequence of the
// frame's DetRecord detections, the same shape the live shared tracker
// produces. Detections themselves live in DetRecord; a ScanRecord
// without its DetRecord is unusable and treated as a miss.
type ScanRecord struct {
	// Source names the video / camera stream.
	Source string
	// ScanKey is the scan-group signature (filter chain + detector).
	ScanKey string
	// Detect echoes the detector model, the invalidation check: a plan
	// whose chosen model differs from what was persisted must not reuse
	// the record (the key already separates them; the field makes the
	// rule checkable and survives key-scheme changes).
	Detect string
	// Frame is the frame index within the source.
	Frame int
	// Dropped reports that the frame-filter chain dropped the frame (no
	// detector ran; IDs is empty).
	Dropped bool
	// IDs maps class → per-detection track ids, parallel to the
	// class-filtered detections of the frame's DetRecord. -1 marks a
	// detection the tracker did not match on this frame.
	IDs map[int][]int
}

// LabelRecord persists one per-crop model invocation (classifier,
// embedder, OCR): the evaluated VObj property value. Keyed exactly like
// the in-process SharedCache label key — (source, model, frame,
// quantized box, ground-truth id) — so a store hit observes the same
// value the live model would have produced.
type LabelRecord struct {
	// Source names the video / camera stream.
	Source string
	// Model is the property model name.
	Model string
	// Frame is the frame index within the source.
	Frame int
	// X1, Y1, X2, Y2 are the quantized crop-box coordinates.
	X1, Y1, X2, Y2 int
	// TruthID is the ground-truth object id (the models' noise key).
	TruthID int
	// Value is the model output; see gobSafe for the carried types.
	Value any
}

func init() {
	// Concrete types that may travel through LabelRecord.Value. The
	// simulated zoo emits strings (classifiers, OCR) and float slices
	// (embedders); numbers and bools cover cheap user-registered models.
	gob.Register("")
	gob.Register(float64(0))
	gob.Register(int(0))
	gob.Register(false)
	gob.Register([]float64(nil))
	gob.Register(geom.BBox{})
}

// gobSafe reports whether a label value is of a type the store knows how
// to persist and round-trip exactly.
func gobSafe(v any) bool {
	switch v.(type) {
	case string, float64, int, bool, []float64, geom.BBox, nil:
		return true
	}
	return false
}

// maxRecordBytes bounds a single record payload. Anything larger in the
// length header is treated as corruption (frames carry at most a few
// dozen detections; real records are well under a kilobyte).
const maxRecordBytes = 32 << 20
