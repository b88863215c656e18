package store

// A tier pairs the two storage levels behind one record kind: a bounded
// in-memory LRU of decoded records (the hot tier) over an append-only
// on-disk log with a full offset index (the archival tier). Reads check
// memory first, then the disk index; disk hits are promoted back into
// memory. Writes always append to disk and insert into memory, so the
// archival tier is a superset of the hot tier and eviction never loses
// data — which is why eviction is purely size-driven: a reader keeps the
// decoded record it was handed (shared, immutable), so dropping the hot
// tier's reference cannot invalidate a read in progress.
//
// A tier is typed: K is the kind's comparable key struct (scanKey,
// detKey or labelKey — no formatted strings), R its record type, so a
// lookup neither allocates a key nor asserts a type.
//
// The tier's methods assume the owning Store's mutex is held; put and
// get below are the locked entry points the Store's accessors call.

import (
	"container/list"
	"fmt"
	"path/filepath"

	"vqpy/internal/reclog"
)

// span locates one record's frame in the log file.
type span struct {
	off int64
	n   int32
}

// memEnt is one resident record of the hot tier.
type memEnt[R any] struct {
	val  *R
	elem *list.Element
}

// tierCounters are one record kind's counter names, spelled once at
// open so the data path never builds a string.
type tierCounters struct {
	puts, putsMemOnly, writeFailures        string
	memHits, diskHits, misses, faultedReads string
}

// tier is one record kind's two-level storage.
type tier[K comparable, R any] struct {
	name string // log name ("scans"): fault-hook kind and warning text
	ctr  tierCounters
	log  *reclog.Log

	idx map[K]span       // every durable record, latest version wins
	mem map[K]*memEnt[R] // decoded hot set
	lru *list.List       // of *memEnt[R]; front = most recently used
	cap int              // hot-set capacity (records)
	key func(rec *R) K   // a record's index key, from its own fields

	corrupt int // records skipped or tails truncated at open
	evicted int // hot-tier evictions (records remain on disk)

	// memOnly marks a tier degraded by a write failure: appends stop
	// (the log tail state is unknown) and records live only in the hot
	// tier — a pure cache, evictions now lose the record. Set by
	// put's write-failure path, never cleared within a process.
	memOnly bool
	// readFault is the chaos layer's injectable disk-read hook; an
	// error from it serves the read as a MissFaulted.
	readFault func(kind string) error
}

// openTier opens (creating if needed) one record kind's log under
// s.dir and rebuilds its offset index from the frames reclog's recovery
// scan hands it, folding what the scan found into the store's warnings
// and counters.
func openTier[K comparable, R any](s *Store, name, kind string, opts Options, key func(*R) K) (*tier[K, R], error) {
	t := &tier[K, R]{
		name: name,
		ctr: tierCounters{
			puts: kind + "_puts", putsMemOnly: kind + "_puts_mem_only", writeFailures: kind + "_write_failures",
			memHits: kind + "_mem_hits", diskHits: kind + "_disk_hits", misses: kind + "_misses",
			faultedReads: kind + "_faulted_reads",
		},
		idx: make(map[K]span), mem: make(map[K]*memEnt[R]),
		lru: list.New(), cap: opts.MemRecords, key: key, readFault: opts.ReadFault,
	}
	log, rec, err := reclog.Open(filepath.Join(s.dir, name+".log"), "store: "+name, maxRecordBytes,
		func(off int64, frame []byte) error {
			r, err := t.decode(frame)
			if err == nil {
				t.idx[t.key(r)] = span{off: off, n: int32(len(frame))}
			}
			return err
		})
	if err != nil {
		return nil, fmt.Errorf("store: %s: %w", name, err)
	}
	t.log, t.corrupt = log, rec.Corrupt+rec.Torn
	s.logs = append(s.logs, log)
	s.warnings = append(s.warnings, rec.Warnings...)
	s.counters.Add("corrupt_records", int64(t.corrupt))
	return t, nil
}

// decode turns one verified frame back into its typed record.
func (t *tier[K, R]) decode(frame []byte) (*R, error) {
	r := new(R)
	if err := reclog.Decode(frame, r); err != nil {
		return nil, err
	}
	return r, nil
}

// put frames and appends one record under the store lock.
func put[K comparable, R any](s *Store, t *tier[K, R], val *R) error {
	framed, err := reclog.Encode(val)
	if err != nil {
		return fmt.Errorf("store: %s: encode: %w", t.name, err)
	}
	key := t.key(val)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: %s: put on closed store", t.name)
	}
	if !t.memOnly {
		if s.writeFault != nil {
			err = s.writeFault(t.name)
		}
		var off int64
		if err == nil {
			off, err = t.log.Append(framed)
		}
		if err == nil {
			t.idx[key] = span{off: off, n: int32(len(framed))}
			t.install(key, val)
			s.counters.Add(t.ctr.puts, 1)
			return nil
		}
		// A failed append downgrades the whole tier to memory-only
		// rather than failing the query: the store is a cache, so
		// serving from memory (and recomputing what falls out) is always
		// correct — only cross-process reuse is lost. Appending past a
		// failed write is not attempted again: the log tail state is
		// unknown, and a gap would corrupt the framing.
		t.memOnly = true
		s.counters.Add(t.ctr.writeFailures, 1)
		s.counters.Add("tier_degraded_mem_only", 1)
		s.warnings = append(s.warnings, fmt.Sprintf(
			"store: %s: append failed (%v); tier degraded to memory-only", t.name, err))
	}
	t.install(key, val)
	s.counters.Add(t.ctr.putsMemOnly, 1)
	return nil
}

// get reads one record under the store lock, counting the tier that
// served it or the miss — a faulted disk read under both its own
// counter and the misses.
func get[K comparable, R any](s *Store, t *tier[K, R], key K) (*R, Miss) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, MissAbsent
	}
	v, memHit, miss := t.get(key)
	switch {
	case miss != MissNone:
		if miss == MissFaulted {
			s.counters.Add(t.ctr.faultedReads, 1)
		}
		s.counters.Add(t.ctr.misses, 1)
	case memHit:
		s.counters.Add(t.ctr.memHits, 1)
	default:
		s.counters.Add(t.ctr.diskHits, 1)
	}
	return v, miss
}

// get returns the record for key, promoting disk hits into memory.
// memHit distinguishes the tier that served it; miss is MissNone,
// MissAbsent (no such record, or its frame no longer reads back) or
// MissFaulted (the injected read hook failed the disk read).
func (t *tier[K, R]) get(key K) (val *R, memHit bool, miss Miss) {
	if e, hit := t.mem[key]; hit {
		t.lru.MoveToFront(e.elem)
		return e.val, true, MissNone
	}
	rec, hit := t.idx[key]
	if !hit {
		return nil, false, MissAbsent
	}
	if t.readFault != nil {
		if err := t.readFault(t.name); err != nil {
			// Injected disk-read failure: served as a miss. The engine
			// recomputes, which is always correct.
			return nil, false, MissFaulted
		}
	}
	frame, err := t.log.Read(rec.off, int(rec.n))
	if err != nil {
		return nil, false, MissAbsent
	}
	v, err := t.decode(frame)
	if err != nil {
		return nil, false, MissAbsent
	}
	t.install(key, v)
	return v, false, MissNone
}

// install inserts (or refreshes) a hot-tier entry and evicts the least
// recently used entries beyond capacity.
func (t *tier[K, R]) install(key K, val *R) {
	if e, ok := t.mem[key]; ok {
		e.val = val
		t.lru.MoveToFront(e.elem)
		return
	}
	e := &memEnt[R]{val: val}
	e.elem = t.lru.PushFront(e)
	t.mem[key] = e
	for len(t.mem) > t.cap {
		victim := t.lru.Remove(t.lru.Back()).(*memEnt[R])
		delete(t.mem, t.key(victim.val))
		t.evicted++
	}
}
