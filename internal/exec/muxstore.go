package exec

// Store integration of the shared-scan engine: serving scan groups from
// the persistent result store (zero model cost on hit), keeping live
// operator state consistent when frames are served without running the
// operators (catch-up replays), and the backfill flavour of Attach that
// replays a joining query over already-scanned frames.
//
// The bit-identity argument mirrors DESIGN.md §5.3, extended one level:
// archived detections and labels are the pure-function model outputs
// themselves, and archived track ids were assigned by a tracker that
// consumed exactly the class-filtered detection sequence from frame
// zero — so applying them is indistinguishable from recomputing them,
// and a tracker (or stateful filter) that later has to run live first
// replays the frames it skipped, restoring the state a continuous run
// would have had. DESIGN.md §7 states the rules; the crosscheck tests
// (TestRescanBitIdentical*, TestBackfillAttachIdenticalToFreshOpen) pin
// them.

import (
	"errors"
	"fmt"

	"vqpy/internal/store"
	"vqpy/internal/track"
	"vqpy/internal/video"
)

// errNoTrackIDs is the engine's own reason an archived frame cannot be
// replayed, beside the store's (store.Miss): the frame is there, but
// without from-zero ids for the lane's class and no tracker to
// reconstruct them on.
var errNoTrackIDs = errors.New("no archived from-zero track ids")

// archivedScan answers "what did the scan prefix produce on frame f
// under (scanKey, detect)" — the engine's one call into the store's
// archived-frame reader, which owns the record layout. A non-nil miss
// is the reader's typed reason (store.Miss) the archive cannot serve
// the frame.
func (m *MuxStream) archivedScan(scanKey, detect string, f int, wantDets bool) (store.ScanFrame, error) {
	a, miss := m.store.Scans(m.source, scanKey, detect).Frame(f, wantDets)
	if miss != store.MissNone {
		return a, miss
	}
	return a, nil
}

// archivedClass slices one class out of a kept archived frame
// (store.ScanFrame.Class) and converts its detections to live form,
// appended to buf[:0].
func (m *MuxStream) archivedClass(a store.ScanFrame, cls video.Class, buf []track.Detection) (dets []track.Detection, ids []int, have bool) {
	m.classBuf, ids, have = a.Class(int(cls), m.classBuf)
	return appendTrackDets(buf[:0], m.classBuf), ids, have
}

// scanGroupFromStore tries to serve one group's frame entirely from the
// store: the archived dropped verdict, detections and per-class track
// ids, at zero model cost. It returns served=false — leaving all state
// untouched — when the archive cannot serve the frame (archivedScan).
// Classes the archive does not cover are tracked live, after catching
// the tracker up, and the merged ids are persisted for the next pass.
func (m *MuxStream) scanGroupFromStore(g *muxGroup, f *video.Frame) (bool, error) {
	if m.source == "" {
		return false, nil
	}
	a, miss := m.archivedScan(g.key, g.detect, f.Index, true)
	if miss != nil {
		return false, nil
	}
	g.dropped = a.Rec.Dropped
	if g.dropped {
		return true, nil
	}
	updated := a.Rec
	for _, cls := range g.classes {
		st := g.tracks[cls]
		var ids []int
		var have bool
		st.dets, ids, have = m.archivedClass(a, cls, st.dets)
		if have && st.bornAt == 0 {
			// Archived ids are from-zero by the persist rule below; they
			// may only be applied to a tracker with the same semantics —
			// a class cold-started mid-stream keeps its live numbering.
			st.ids = append(st.ids[:0], ids...)
			st.pending = append(st.pending, f.Index)
			continue
		}
		// The archive cannot serve this class (never tracked under this
		// signature, or this tracker is not from-zero): run the live
		// tracker after catching it up. From-zero ids are merged back so
		// the next pass serves this class too.
		if err := m.replayPending(g, cls, st); err != nil {
			return false, err
		}
		m.liveTrackUpdate(st)
		if st.bornAt == 0 {
			updated = updated.WithIDs(int(cls), st.ids)
		}
	}
	if updated != a.Rec {
		if err := m.store.PutScan(updated); err != nil {
			return false, err
		}
	}
	return true, nil
}

// persistScan records the group's just-computed frame outcome (dropped
// verdict and per-class track ids; the raw detections were persisted by
// detectFrame). Only from-zero trackers' ids are archived: a class
// cold-started mid-stream numbers its tracks relative to its attach
// frame, which no other pass could reproduce — its frames are archived
// id-less and re-tracked (then merged) by the next from-zero pass.
// No-op without a bound store, and once the archive is off limits (a
// cross-wrap tracker's state has no from-zero meaning either).
func (m *MuxStream) persistScan(g *muxGroup, f *video.Frame) error {
	if m.store == nil || m.source == "" || m.archiveOff {
		return nil
	}
	rec := &store.ScanRecord{
		Source: m.source, ScanKey: g.key, Detect: g.detect,
		Frame: f.Index, Dropped: g.dropped,
	}
	if !g.dropped {
		rec.IDs = make(map[int][]int, len(g.classes))
		for _, cls := range g.classes {
			if st := g.tracks[cls]; st.bornAt == 0 {
				rec.IDs[int(cls)] = append([]int(nil), st.ids...)
			}
		}
	}
	return m.store.PutScan(rec)
}

// catchUpFilters replays the group's frame-filter chain over frames the
// store served (which the live filters therefore never saw), so a
// stateful filter's next live decision matches a continuous run's. The
// replay recomputes each frame's keep/drop decisions itself — they are
// deterministic, so intermediate short-circuiting matches the archived
// pass. Stateless chains skip the replay: they carry no state to sync.
func (m *MuxStream) catchUpFilters(g *muxGroup, frameIdx int) error {
	if g.filterPos < 0 || g.filterPos >= frameIdx || len(g.filters) == 0 {
		// Chain not born yet, in sync, or the stream wrapped its source
		// (a looping clip re-feeds smaller indices; no gap to replay).
		return nil
	}
	if !g.statefulFilters {
		g.filterPos = frameIdx
		return nil
	}
	if m.src == nil {
		return fmt.Errorf("exec: scan group %q: stateful frame filters skipped store-served frames and no frame source is bound for catch-up", g.key)
	}
	for fi := g.filterPos; fi < frameIdx; fi++ {
		fr := m.src.FrameAt(fi)
		for _, fm := range g.filters {
			bf, err := m.e.filterInstance(g.filterInsts, fm)
			if err != nil {
				return err
			}
			if !bf.Keep(m.e.opts.Env, fr) {
				break
			}
		}
	}
	g.filterPos = frameIdx
	return nil
}

// replayPending flushes a shared tracker's catch-up backlog (frames the
// store served while the tracker sat idle) before it runs live again:
// for each pending frame, the class-filtered archived detections are fed
// through one charged tracker update — real tracker work, paid once,
// exactly as a continuous run would have paid it.
func (m *MuxStream) replayPending(g *muxGroup, cls video.Class, st *sharedTrack) error {
	var cdets, upBuf []track.Detection
	var ids []int
	for _, frame := range st.pending {
		sdets, ok := m.store.GetDets(m.source, g.detect, frame)
		if !ok {
			return fmt.Errorf("exec: store lacks archived detections for %s@%d needed by tracker catch-up", g.detect, frame)
		}
		m.classBuf = store.ClassDets(sdets, int(cls), m.classBuf)
		cdets = appendTrackDets(cdets[:0], m.classBuf)
		ids, upBuf = m.trackerUpdate(st.tracker, cdets, ids, upBuf)
	}
	st.pending = st.pending[:0]
	return nil
}

// replay describes one archived pass of a lane. Backfill, index-candidate
// verification and fidelity replay are this one loop (replayLane); the
// fields are everything that genuinely differs between them (DESIGN.md
// §5.4 tabulates the three beside the live and store-served rows).
type replay struct {
	// Which frames: every stride-th frame of [0, n), or — stride 0 — the
	// candidates (strictly ascending, all below n).
	n, stride  int
	candidates []int
	// Which archive: the lane's own scan group's for backfill and index
	// verification, a fidelity tier's — another detector's records under
	// a fidelity-decorated key — for fidelity replay.
	scanKey, detect string
	// tracker, when set, is brought to from-zero state over the replayed
	// frames (backfill: the stream goes on live afterwards): frames with
	// archived ids queue for its catch-up, frames without are re-tracked
	// on it and the ids merged back into the archive. When nil, a frame
	// archived without ids for the lane's class counts as a miss.
	tracker *sharedTrack
	// liveOnMiss answers a frame the archive cannot serve with one live
	// invocation of the lane's own detector (fidelity replay: a faulted
	// tier degrades to money, not accuracy). Otherwise a miss fails the
	// replay.
	liveOnMiss bool
	// account / chargeMS is the per-archived-frame bookkeeping charge
	// that keeps zero-model-cost work visible on the ledger; "" for none.
	account  string
	chargeMS float64
}

// replayLane runs one archived pass: each frame's scan output is read
// back (replayScan) and pushed through the lane's ordinary per-frame
// step, in frame order, so only the lane's residual operators run —
// historical filter, detector and tracker outputs are applied, not
// recomputed. A private lane has no scan prefix to read back: its
// replay is from-zero execution of the whole plan, detector and label
// lookups landing in the store. Reports how many frames the archive
// served and how many fell back to a live detector call. Callers hold
// m.mu.
func (m *MuxStream) replayLane(l *lane, r replay) (served, live int, err error) {
	clock := m.e.opts.Env.Clock
	var buf []track.Detection
	last := -1
	for i := 0; ; i++ {
		f := i * r.stride
		if r.stride == 0 {
			if i == len(r.candidates) {
				break
			}
			if f = r.candidates[i]; f <= last {
				return served, live, fmt.Errorf("exec: candidate frames must be strictly ascending (%d after %d)", f, last)
			}
			if last = f; f >= r.n {
				return served, live, fmt.Errorf("exec: candidate frame %d is outside index coverage [0, %d)", f, r.n)
			}
		} else if f >= r.n {
			break
		}
		before := clock.TotalMS()
		fr := m.src.FrameAt(f)
		var scan *scanOut
		archived := false
		if l.group != nil {
			var out scanOut
			if out, archived, err = m.replayScan(l, r, fr, buf); err != nil {
				return served, live, err
			}
			scan, buf = &out, out.dets
		}
		if _, err := m.e.step(l, fr, nil, scan); err != nil {
			return served, live, err
		}
		switch {
		case archived:
			served++
			if r.account != "" {
				m.e.opts.Env.ChargeClockOnly(r.account, r.chargeMS)
			}
		case scan != nil:
			live++
		}
		l.virtualMS += clock.TotalMS() - before
	}
	return served, live, nil
}

// replayScan resolves what lane l's scan prefix produced on one
// replayed frame: from the archive r names when it can serve the frame
// (archived true), from one live detector call when it cannot and r
// allows that. buf is the caller's reusable detection buffer, handed
// back as scan.dets.
func (m *MuxStream) replayScan(l *lane, r replay, fr *video.Frame, buf []track.Detection) (scan scanOut, archived bool, err error) {
	g, cls := l.group, l.sig.Class
	a, miss := m.archivedScan(r.scanKey, r.detect, fr.Index, true)
	if miss == nil && a.Rec.Dropped {
		return scanOut{dropped: true, dets: buf[:0]}, true, nil
	}
	if miss == nil {
		dets, ids, have := m.archivedClass(a, cls, buf)
		rt := r.tracker
		switch {
		case have && rt != nil:
			rt.pending = append(rt.pending, fr.Index)
		case have:
		case rt != nil:
			// Reconstruct from-zero ids on the replay's tracker and
			// persist them for the next pass.
			if err := m.replayPending(g, cls, rt); err != nil {
				return scan, false, err
			}
			rt.dets = append(rt.dets[:0], dets...)
			m.liveTrackUpdate(rt)
			ids = rt.ids
			if err := m.store.PutScan(a.Rec.WithIDs(int(cls), ids)); err != nil {
				return scan, false, err
			}
		default:
			miss = errNoTrackIDs
		}
		if miss == nil {
			return scanOut{dets: dets, ids: ids}, true, nil
		}
		buf = dets
	}
	if !r.liveOnMiss {
		return scan, false, fmt.Errorf("exec: cannot replay %q: frame %d of scan group %q (detector %s): %w",
			l.plan.Label, fr.Index, r.scanKey, r.detect, miss)
	}
	// The archive cannot serve the frame (never written, evicted, or
	// failed by an injected read fault): the query's own detector runs
	// at full cost — a faulted tier degrades to money, not accuracy —
	// and its output binds with replay-local ids (no tracker state
	// exists to consult mid-replay).
	det, err := m.e.opts.Registry.Detector(g.detect)
	if err != nil {
		return scan, false, err
	}
	buf = buf[:0]
	for _, d := range det.Detect(m.e.opts.Env, fr) {
		if d.Class == cls {
			buf = append(buf, track.Detection{Box: d.Box, Class: int(d.Class), Score: d.Score, Ref: d.TruthID})
		}
	}
	ids := make([]int, len(buf))
	for i := range ids {
		ids[i] = -1
	}
	return scanOut{dets: buf, ids: ids}, false, nil
}

// backfill replays one freshly attached lane over frames [0, n) from
// its own scan group's archive, leaving the group's live operators in
// the from-zero state the frames ahead need.
func (m *MuxStream) backfill(l *lane, n int) error {
	r := replay{n: n, stride: 1}
	g := l.group
	var st *sharedTrack
	if g != nil {
		r.scanKey, r.detect = g.key, g.detect
		st = g.tracks[l.sig.Class]
		// A tracker created by this attach (attachLocked just made the
		// lane its first user) is caught up in place, giving it from-zero
		// state for the live frames ahead. A pre-existing tracker's state
		// must not be perturbed, so id reconstruction for frames the
		// archive did not cover uses a throwaway replay tracker.
		r.tracker = st
		if st.refs > 1 {
			if st.bornAt != 0 {
				return fmt.Errorf("exec: cannot backfill: class %s tracker in scan group %q was cold-started at frame %d; its live ids cannot match a from-zero history",
					l.sig.Class, g.key, st.bornAt)
			}
			r.tracker = &sharedTrack{tracker: track.NewTracker(track.DefaultConfig())}
		}
	}
	if _, _, err := m.replayLane(l, r); err != nil {
		return err
	}
	if g != nil {
		if r.tracker == st {
			st.bornAt = 0
		}
		if g.members == 1 && g.filterPos == -1 {
			// The group was created by this attach: its (cold) filter chain
			// is allowed to catch up from frame zero if it ever runs live.
			g.filterPos = 0
		}
	}
	l.backfilled = true
	return nil
}
