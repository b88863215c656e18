package index

// The records of the index's segment log. Framing, checksums and the
// recovery scan belong to internal/reclog — the same log the store's
// tiers sit on; every record is one gob-encoded segRecord frame.

// maxSegRecordBytes bounds a single segment record. An entry is one
// 16-dim embedding plus keys — far under a kilobyte — so anything larger
// in the length header is corruption.
const maxSegRecordBytes = 1 << 20

// Segment record kinds: an indexed object entry, or a coverage
// watermark advancing one (source, signature)'s contiguous prefix.
const (
	recEntry = iota + 1
	recCoverage
)

// segRecord is the tagged union the segment log persists. Exactly one
// of Entry / Coverage is meaningful, selected by Kind.
type segRecord struct {
	Kind     int
	Entry    Entry
	Coverage coverageRec
}

// coverageRec records that frames [0, Upto) of (Source, Sig) have been
// extracted into the index.
type coverageRec struct {
	Source string
	Sig    string
	Upto   int
}
