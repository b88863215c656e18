package reclog_test

// Crash-point enumeration (ROADMAP item 4): instead of a few chosen torn
// tails, every byte offset a crash could cut the tail of a log at, and
// every single byte a disk could flip in it, is tried — once, in
// crashPoints — against the log itself and against both of its owners,
// store.Open and index.Open, each checked with its own recovery rule.

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"vqpy/internal/index"
	"vqpy/internal/models"
	"vqpy/internal/reclog"
	"vqpy/internal/store"
	"vqpy/internal/video"
)

// frameBounds parses the framing of a healthy log: bounds[i] is the
// offset frame i starts at, bounds[len-1] the end of the file.
func frameBounds(t *testing.T, blob []byte) []int64 {
	t.Helper()
	bounds := []int64{0}
	for off := int64(0); off < int64(len(blob)); {
		if off+8 > int64(len(blob)) {
			t.Fatalf("healthy log ends inside a header at %d", off)
		}
		off += 8 + int64(binary.BigEndian.Uint32(blob[off:]))
		bounds = append(bounds, off)
	}
	if last := bounds[len(bounds)-1]; last != int64(len(blob)) {
		t.Fatalf("healthy log ends at %d, framing says %d", len(blob), last)
	}
	return bounds
}

// crashPoints damages the healthy log at path in every way the
// enumeration covers and calls check after each, with the file left
// damaged in place:
//
//   - every truncation point inside the last three frames (their first
//     byte through one short of the end of the file);
//   - every single-byte flip inside the last `flipped` frames.
//
// intact is the number of leading frames the damage did not touch: they
// must all survive recovery. A frame at or after intact may be lost,
// but must never surface altered. torn tells a truncation from a flip.
func crashPoints(t *testing.T, path string, flipped int, check func(desc string, intact int, torn bool)) {
	t.Helper()
	healthy, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bounds := frameBounds(t, healthy)
	frames := len(bounds) - 1
	if frames < 4 {
		t.Fatalf("log has %d frames; the enumeration wants at least 4", frames)
	}
	intactAt := func(cut int64) int {
		n := 0
		for n < frames && bounds[n+1] <= cut {
			n++
		}
		return n
	}
	damage := func(blob []byte) {
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for cut := bounds[frames-3]; cut < int64(len(healthy)); cut++ {
		damage(healthy[:cut])
		check(fmt.Sprintf("truncated at %d of %d", cut, len(healthy)), intactAt(cut), true)
	}
	for at := bounds[frames-flipped]; at < int64(len(healthy)); at++ {
		blob := append([]byte(nil), healthy...)
		blob[at] ^= 0xFF
		damage(blob)
		check(fmt.Sprintf("byte %d of %d flipped", at, len(healthy)), intactAt(at), false)
	}
	damage(healthy)
}

// TestCrashPointsLog: Open visits exactly the records wholly before a
// cut and truncates the file to that boundary, after which an Append
// and a reopen see one more; a flipped byte never gets an altered
// payload visited, and every earlier record still is.
func TestCrashPointsLog(t *testing.T) {
	const records = 6
	path := filepath.Join(t.TempDir(), "records.log")
	visitAll := func() (*reclog.Log, reclog.Recovery, []payload) {
		var seen []payload
		l, rec, err := reclog.Open(path, "t", 1<<10, func(_ int64, frame []byte) error {
			var p payload
			if err := reclog.Decode(frame, &p); err != nil {
				return err
			}
			seen = append(seen, p)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return l, rec, seen
	}
	written := func(i int) payload { return payload{N: i, Text: fmt.Sprintf("record %d", i)} }
	l, _, _ := visitAll()
	for i := 0; i < records; i++ {
		frame, err := reclog.Encode(written(i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.Append(frame); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	healthy, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bounds := frameBounds(t, healthy)

	size := func() int64 {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return st.Size()
	}
	crashPoints(t, path, 1, func(desc string, intact int, torn bool) {
		damaged := size()
		l, rec, seen := visitAll()
		if len(seen) != intact {
			t.Fatalf("%s: visited %d records, want exactly the %d undamaged ones", desc, len(seen), intact)
		}
		for i, p := range seen {
			if p != written(i) {
				t.Fatalf("%s: visit %d is %+v, want %+v", desc, i, p, written(i))
			}
		}
		if !torn {
			l.Close()
			if rec.Corrupt+rec.Torn == 0 {
				t.Fatalf("%s: damage went unreported: %+v", desc, rec)
			}
			return
		}
		// A torn tail: the file is cut back to the last whole record
		// (a cut on a boundary is just a shorter healthy log) and the
		// log is appendable from there.
		wantTorn := 0
		if damaged != bounds[intact] {
			wantTorn = 1
		}
		if rec.Torn != wantTorn || rec.Corrupt != 0 || len(rec.Warnings) != wantTorn {
			t.Fatalf("%s: recovery reported %+v, want %d torn tail(s) only", desc, rec, wantTorn)
		}
		if got := size(); got != bounds[intact] {
			t.Fatalf("%s: file is %d bytes after recovery, want %d", desc, got, bounds[intact])
		}
		frame, err := reclog.Encode(written(intact))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.Append(frame); err != nil {
			t.Fatalf("%s: append after recovery: %v", desc, err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l2, rec2, seen2 := visitAll()
		l2.Close()
		if len(seen2) != intact+1 || seen2[intact] != written(intact) || rec2.Corrupt+rec2.Torn != 0 {
			t.Fatalf("%s: after append+reopen saw %d records (%+v), want %d and a clean scan", desc, len(seen2), rec2, intact+1)
		}
	})
}

// TestCrashPointsStore drives the same enumeration through store.Open
// on the scans tier: a Get never returns a record that was not written,
// every record before the damage is served, and a store recovered from
// a torn tail takes a Put that survives the next reopen.
func TestCrashPointsStore(t *testing.T) {
	const frames = 6
	dir := t.TempDir()
	open := func() *store.Store {
		s, err := store.Open(dir, store.Meta{Seed: 5}, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	written := func(f int) *store.ScanRecord {
		return &store.ScanRecord{
			Source: "cam", ScanKey: "sig", Detect: "yolox", Frame: f,
			IDs: map[int][]int{2: {f, f + 1, -1}},
		}
	}
	s := open()
	for f := 0; f < frames; f++ {
		if err := s.PutScan(written(f)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	crashPoints(t, filepath.Join(dir, "scans.log"), 1, func(desc string, intact int, torn bool) {
		s := open()
		served := 0
		for f := 0; f < frames+1; f++ {
			fr, miss := s.Scans("cam", "sig", "yolox").Frame(f, false)
			got := fr.Rec
			if miss != store.MissNone {
				if f < intact {
					t.Fatalf("%s: undamaged frame %d is a miss", desc, f)
				}
				continue
			}
			served++
			if f >= frames || !reflect.DeepEqual(got, written(f)) {
				t.Fatalf("%s: frame %d served as %+v, which was never written", desc, f, got)
			}
		}
		if served != intact {
			t.Fatalf("%s: %d records served, want the %d undamaged ones", desc, served, intact)
		}
		if st := s.TierStats(); st.ScanRecords != intact || (!torn && st.CorruptRecords == 0) {
			t.Fatalf("%s: tier stats %+v, want %d scan records and the damage counted", desc, st, intact)
		}
		if torn {
			if err := s.PutScan(written(intact)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if !torn {
			return
		}
		s2 := open()
		defer s2.Close()
		if st := s2.TierStats(); st.ScanRecords != intact+1 || st.CorruptRecords != 0 || len(s2.Warnings()) != 0 {
			t.Fatalf("%s: after put+reopen %+v, warnings %v; want %d records and a clean scan", desc, st, s2.Warnings(), intact+1)
		}
		if got, miss := s2.Scans("cam", "sig", "yolox").Frame(intact, false); miss != store.MissNone || !reflect.DeepEqual(got.Rec, written(intact)) {
			t.Fatalf("%s: record put after recovery reads back as %+v, %v", desc, got.Rec, miss)
		}
	})
}

// TestCrashPointsIndex drives the enumeration through index.Open, whose
// recovery adds a rule of its own: coverage is a soundness claim, so it
// is rolled back by a torn tail, voided by a corrupt record, and never
// ahead of the entries — every track sighted below the watermark is
// indexed with a span reaching at least that far.
func TestCrashPointsIndex(t *testing.T) {
	const (
		seed   = 31
		source = "cam0"
		sig    = "scan:test"
		detect = "yolo"
	)
	car := int(video.ClassCar)
	clip := video.CityFlow(seed, 6).Generate()
	n := len(clip.Frames)

	// The archive: every frame written under a perfect tracker (track id
	// = ground-truth id), so the clip itself is the oracle for spans.
	st, err := store.Open(t.TempDir(), store.Meta{Seed: seed}, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	type span struct{ first, last int }
	truth := func(upto int) map[int]span {
		out := map[int]span{}
		for i := 0; i < upto; i++ {
			for _, o := range clip.Frames[i].Objects {
				if o.Class != video.ClassCar {
					continue
				}
				sp, ok := out[o.TrackID]
				if !ok {
					sp.first = i
				}
				sp.last = i
				out[o.TrackID] = sp
			}
		}
		return out
	}
	for i := range clip.Frames {
		var dets []store.Detection
		ids := []int{}
		for _, o := range clip.Frames[i].Objects {
			if o.Class == video.ClassCar {
				dets = append(dets, store.Detection{Box: o.Box, Class: car, Score: 0.9, TruthID: o.TrackID})
				ids = append(ids, o.TrackID)
			}
		}
		if err := st.PutDets(source, detect, i, dets); err != nil {
			t.Fatal(err)
		}
		rec := &store.ScanRecord{Source: source, ScanKey: sig, Detect: detect, Frame: i, IDs: map[int][]int{car: ids}}
		if err := st.PutScan(rec); err != nil {
			t.Fatal(err)
		}
	}

	m, ok := models.BuiltinRegistry().Get("fleet_reid")
	if !ok {
		t.Fatal("zoo has no fleet_reid model")
	}
	dir := t.TempDir()
	open := func() *index.Index {
		x, err := index.Open(dir, index.Meta{Seed: seed, ZooVersion: models.ZooVersion, Embedder: "fleet_reid"})
		if err != nil {
			t.Fatal(err)
		}
		return x
	}
	extract := func(x *index.Index, upto int) {
		t.Helper()
		_, err := x.Extract(index.ExtractConfig{
			Store: st, Src: clip, Source: source, Sig: sig, Detect: detect, Class: car,
			Env: models.NewEnv(seed), Embedder: m.(models.Embedder),
		}, upto)
		if err != nil {
			t.Fatal(err)
		}
	}
	// Three passes, so the tail of the log is the third pass's entries
	// followed by its coverage record, with two earlier watermarks behind.
	x := open()
	for _, upto := range []int{n / 3, 2 * n / 3, n} {
		extract(x, upto)
	}
	if got := x.Covered(source, sig); got != n {
		t.Fatalf("fixture covered %d of %d frames", got, n)
	}
	if err := x.Close(); err != nil {
		t.Fatal(err)
	}

	full := truth(n)
	checkSound := func(desc string, x *index.Index) int {
		covered := x.Covered(source, sig)
		indexed := map[int]index.Entry{}
		for _, e := range x.Entries(source, sig, car) {
			indexed[e.Track] = e
			if want, ok := full[e.Track]; !ok || e.First != want.first || e.Last > want.last || len(e.Vec) == 0 {
				t.Fatalf("%s: entry %+v was never written (truth %+v)", desc, e, want)
			}
		}
		for track, want := range truth(covered) {
			if e, ok := indexed[track]; !ok || e.Last < want.last {
				t.Fatalf("%s: coverage %d is ahead of track %d: entry %+v, sighted through %d", desc, covered, track, e, want.last)
			}
		}
		return covered
	}

	crashPoints(t, filepath.Join(dir, "segments.log"), 3, func(desc string, _ int, torn bool) {
		x := open()
		covered := checkSound(desc, x)
		if torn {
			// Every cut loses the final coverage record and nothing
			// before the third pass: the second watermark stands.
			if covered != 2*n/3 {
				t.Fatalf("%s: Covered = %d, want the last intact watermark %d", desc, covered, 2*n/3)
			}
			if c := x.Counters(); c.Get("corrupt_records") != 0 || c.Get("torn_tail_truncated") > 1 {
				t.Fatalf("%s: counters %v", desc, c.Snapshot())
			}
		} else if covered != 0 && covered != 2*n/3 {
			t.Fatalf("%s: Covered = %d, want voided (0) or rolled back (%d)", desc, covered, 2*n/3)
		}
		// Whatever was lost, re-extraction re-establishes it.
		extract(x, n)
		if got := checkSound(desc+", re-extracted", x); got != n {
			t.Fatalf("%s: Covered = %d after re-extraction, want %d", desc, got, n)
		}
		if err := x.Close(); err != nil {
			t.Fatal(err)
		}
		if !torn {
			// A skipped record stays in the file, so every later open
			// voids coverage again: sound, but not durable until the log
			// is rewritten. Known limitation, unchanged by this test.
			return
		}
		x2 := open()
		defer x2.Close()
		if got := checkSound(desc+", reopened", x2); got != n {
			t.Fatalf("%s: Covered = %d after re-extraction and reopen, want %d", desc, got, n)
		}
	})
}
