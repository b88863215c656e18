package store

// The archived-frame reader: the one place that knows how a scan
// prefix's output on one frame is laid out in the archive and what
// makes it unusable. Consumers keep their policies (the engine
// recomputes or fails the replay, extraction stops, the appearance walk
// skips) but none of the layout — so changing it (one frame-group
// record per (source, frame), read-ahead for sequential replays:
// ROADMAP item 3(b)) is a change to ScanReader.Frame's body.

// Miss says why the archive cannot serve a frame. It is an error so a
// consumer that fails on a miss can wrap it.
type Miss uint8

// The miss reasons, in the order ScanReader.Frame checks them.
const (
	// MissNone: the frame was served.
	MissNone Miss = iota
	// MissAbsent: never written, lost with a memory-only tier's
	// eviction, or its log frame no longer reads back.
	MissAbsent
	// MissFaulted: the injected disk-read hook (Options.ReadFault) failed
	// the read; counted once under <kind>_faulted_reads.
	MissFaulted
	// MissDetector: the scan record was written by another detector —
	// the invalidation rule: its ids belong to that detector's boxes.
	MissDetector
	// MissNoDets: the frame was kept but its detection record is absent.
	MissNoDets
)

// Error names the reason.
func (m Miss) Error() string {
	return [...]string{
		"served", "no archived scan record", "the archived read faulted",
		"the archived scan used a different detector", "no archived detections",
	}[m]
}

// ScanReader reads one scan group's archive on one source: the records
// under scan-group signature sig, valid for detector detect.
type ScanReader struct {
	s                   *Store
	source, sig, detect string
}

// Scans returns the reader of (source, sig)'s archive for a plan whose
// scan prefix runs detector detect.
func (s *Store) Scans(source, sig, detect string) ScanReader {
	return ScanReader{s: s, source: source, sig: sig, detect: detect}
}

// ScanFrame is what a scan prefix produced on one frame, as archived:
// the scan record (filter verdict, per-class from-zero track ids) and
// the detector's raw output for every class. Both are the store's
// shared values and must not be mutated.
type ScanFrame struct {
	Rec  *ScanRecord
	Dets []Detection // nil when Rec.Dropped or not asked for
}

// Frame resolves frame f: the scan record under (source, sig, f), which
// must be detect's, and — for a kept frame, when wantDets — the
// detections under (source, detect, f); a dropped frame carries nothing
// else. (A caller that only probes readability leaves the dets tier
// untouched.) On any miss the frame must not be used.
func (r ScanReader) Frame(f int, wantDets bool) (ScanFrame, Miss) {
	rec, miss := get(r.s, r.s.scans, scanKey{r.source, r.sig, f})
	if miss != MissNone {
		return ScanFrame{}, miss
	}
	if rec.Detect != r.detect {
		return ScanFrame{}, MissDetector
	}
	fr := ScanFrame{Rec: rec}
	if wantDets && !rec.Dropped {
		switch dr, miss := get(r.s, r.s.dets, detKey{r.source, r.detect, f}); miss {
		case MissNone:
			fr.Dets = dr.Dets
		case MissFaulted:
			return fr, MissFaulted
		default:
			return fr, MissNoDets
		}
	}
	return fr, MissNone
}

// Covers reports whether the archival tier holds a scan record for
// every frame in [0, frames) — the fail-fast precondition of a backfill
// replay, which still verifies each frame through Frame. It reads and
// counts nothing.
func (r ScanReader) Covers(frames int) bool {
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	if r.s.closed {
		return false
	}
	for f := 0; f < frames; f++ {
		if _, ok := r.s.scans.idx[scanKey{r.source, r.sig, f}]; !ok {
			return false
		}
	}
	return true
}

// ClassDets appends the detections of one class to buf[:0], preserving
// order — the subsequence the shared tracker consumed, which is what
// ScanRecord.IDs[class] is parallel to.
func ClassDets(dets []Detection, class int, buf []Detection) []Detection {
	buf = buf[:0]
	for i := range dets {
		if dets[i].Class == class {
			buf = append(buf, dets[i])
		}
	}
	return buf
}

// Class slices one class out of a kept frame: its detections (appended
// to buf[:0]) and their archived from-zero track ids. have is false
// when the archive holds no ids for the class or not one per detection
// — a class never tracked under this signature, or tracked from a cold
// mid-stream start (archived id-less) — and ids must then not be used.
func (fr ScanFrame) Class(class int, buf []Detection) (dets []Detection, ids []int, have bool) {
	dets = ClassDets(fr.Dets, class, buf)
	ids, have = fr.Rec.IDs[class]
	return dets, ids, have && len(ids) == len(dets)
}

// WithIDs returns a private copy of a kept frame's record with one
// class's reconstructed from-zero ids merged in, ready to be
// re-persisted (r itself is the store's shared value).
func (r *ScanRecord) WithIDs(class int, ids []int) *ScanRecord {
	updated := &ScanRecord{
		Source: r.Source, ScanKey: r.ScanKey, Detect: r.Detect,
		Frame: r.Frame, IDs: make(map[int][]int, len(r.IDs)+1),
	}
	for k, v := range r.IDs {
		updated.IDs[k] = v
	}
	updated.IDs[class] = append([]int(nil), ids...)
	return updated
}
