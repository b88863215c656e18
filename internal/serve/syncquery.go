package serve

// The shared body of the synchronous query modes (search, fidelity,
// text): each answers over the source's fed prefix [0, fed) without
// attaching a lane. None of them holds a lock a tick needs: the
// watermark is read under the source lock and released, the query runs
// on a fork of the source's session — same registry and fault wiring, a
// fresh clock — and the fork's ledger is merged back when it is done.
// Ticks on every source, this one included, keep flowing meanwhile; the
// reply's virtual_ms is exact because nothing else charges the fork;
// and the source ledger ends up exactly as if the query had run on it.

import (
	"errors"
	"fmt"

	"vqpy"
)

// syncMode is what differs between the synchronous modes before they
// run: what they need from the daemon and how they word a refusal.
type syncMode struct {
	// fleetErr refuses the mode on a fleet daemon.
	fleetErr string
	// needIndex asks for -index on top of -store; needsErr is the
	// refusal when the daemon runs without what the mode needs ("" needs
	// neither).
	needIndex bool
	needsErr  string
	// verb completes "has no fed frames to ... yet".
	verb string
}

var (
	searchMode = syncMode{
		fleetErr:  "serve: archive search is per-source; fleet mode does not support it",
		needIndex: true,
		needsErr:  "serve: archive search requires the daemon to run with -store and -index",
		verb:      "search",
	}
	fidelityMode = syncMode{
		fleetErr: "serve: fidelity queries are per-source; fleet mode does not support them",
		needsErr: "serve: fidelity queries require the daemon to run with -store",
		verb:     "answer",
	}
	textMode = syncMode{
		fleetErr: "serve: text queries are per-source; fleet mode does not support them",
		verb:     "answer",
	}
)

// runSync runs one synchronous query for tenant on the named source:
// run gets the forked session, the source's clip and the fed-frame
// watermark (clamped to the clip: loop mode wraps, and archives are
// keyed by clip frame index). Synchronous queries on one source run one
// at a time; the tenant is billed the fork's whole ledger — the query's
// exact cost, warm and extract steps included — whether run succeeds or
// not, since the work was done either way.
func (s *Server) runSync(mode *syncMode, tenant, sourceName string, run func(sess *vqpy.Session, v *vqpy.Video, fed int) error) error {
	if err := s.enter(); err != nil {
		return err
	}
	defer s.inflight.Done()
	if s.fleet != nil {
		return fmt.Errorf("%s: %w", mode.fleetErr, ErrUnsupported)
	}
	if mode.needsErr != "" && (s.store == nil || (mode.needIndex && s.index == nil)) {
		return errors.New(mode.needsErr)
	}
	src, err := s.lookupSource(sourceName)
	if err != nil {
		return err
	}
	s.mu.Lock()
	st, err := s.resolveTenantLocked(tenant)
	s.mu.Unlock()
	if err != nil {
		return err
	}

	src.mu.Lock()
	src.syncInflight++
	src.mu.Unlock()
	src.syncMu.Lock()
	defer src.syncMu.Unlock()

	src.mu.Lock()
	fed := min(src.fed, len(src.video.Frames))
	src.mu.Unlock()
	fork := src.session.Fork()
	if fed == 0 {
		err = fmt.Errorf("serve: source %q has no fed frames to %s yet", sourceName, mode.verb)
	} else {
		s.observe(sourceName, evSyncRunning)
		err = run(fork, src.video, fed)
	}

	// Under the source lock the merge lands between two ticks, never
	// inside one: a lane's per-frame cost is a delta of this clock.
	src.mu.Lock()
	src.session.Clock().Merge(fork.Clock())
	src.syncInflight--
	s.observe(sourceName, evMerge)
	src.mu.Unlock()
	if st != nil && fed > 0 {
		owner := st.cfg.Name
		s.counters.Add("tenant_sync_queries:"+owner, 1)
		s.mu.Lock()
		s.tenantSyncMS[owner] += fork.Clock().TotalMS()
		s.mu.Unlock()
	}
	return err
}
