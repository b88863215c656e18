package store

// A tier pairs the two storage levels behind one record kind: a bounded
// in-memory LRU of decoded records (the hot tier) over an append-only
// on-disk log with a full offset index (the archival tier). Reads check
// memory first, then the disk index; disk hits are promoted back into
// memory. Writes always append to disk and insert into memory, so the
// archival tier is a superset of the hot tier and eviction never loses
// data — which is why eviction can be purely size-driven, refined only
// by refcounts: a record pinned by an in-progress reader (a backfill
// replay walking thousands of frames) is skipped by the evictor until
// released.
//
// All methods assume the owning Store's mutex is held.

import (
	"container/list"
	"fmt"

	"vqpy/internal/reclog"
)

// span locates one record's frame in the log file.
type span struct {
	off int64
	n   int32
}

// memEnt is one resident record of the hot tier.
type memEnt struct {
	key  string
	val  any
	refs int
	elem *list.Element
}

// tier is one record kind's two-level storage.
type tier struct {
	name string
	log  *reclog.Log

	idx map[string]span    // every durable record, latest version wins
	mem map[string]*memEnt // decoded hot set
	lru *list.List         // front = most recently used
	cap int                // hot-set capacity (records)

	// decode turns one verified frame into (key, typed record).
	decode func(frame []byte) (string, any, error)

	corrupt int // records skipped or tails truncated at open
	evicted int // hot-tier evictions (records remain on disk)

	// memOnly marks a tier degraded by a write failure: appends stop
	// (the log tail state is unknown) and records live only in the hot
	// tier — a pure cache, evictions now lose the record. Set by
	// Store.degradeTierLocked, never cleared within a process.
	memOnly bool
	// readFault is the chaos layer's injectable disk-read hook; an
	// error from it serves the read as a miss (faultedReads counts).
	readFault    func(kind string) error
	faultedReads int
}

// openTier opens (creating if needed) one log file and rebuilds its
// offset index from the frames reclog's recovery scan hands it.
func openTier(path, name string, capacity int,
	decode func(frame []byte) (string, any, error)) (*tier, []string, error) {
	t := &tier{
		name: name,
		idx:  make(map[string]span), mem: make(map[string]*memEnt),
		lru: list.New(), cap: capacity, decode: decode,
	}
	log, rec, err := reclog.Open(path, "store: "+name, maxRecordBytes, func(off int64, frame []byte) error {
		key, _, err := t.decode(frame)
		if err == nil {
			t.idx[key] = span{off: off, n: int32(len(frame))}
		}
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	t.log, t.corrupt = log, rec.Corrupt+rec.Torn
	return t, rec.Warnings, nil
}

// put appends one record and installs it in the hot tier.
func (t *tier) put(key string, val any, framed []byte) error {
	off, err := t.log.Append(framed)
	if err != nil {
		return fmt.Errorf("store: %s: append: %w", t.name, err)
	}
	t.idx[key] = span{off: off, n: int32(len(framed))}
	t.install(key, val)
	return nil
}

// get returns the record for key, promoting disk hits into memory.
// memHit distinguishes the tier that served it.
func (t *tier) get(key string) (val any, memHit, ok bool) {
	if e, hit := t.mem[key]; hit {
		t.lru.MoveToFront(e.elem)
		return e.val, true, true
	}
	rec, hit := t.idx[key]
	if !hit {
		return nil, false, false
	}
	if t.readFault != nil {
		if err := t.readFault(t.name); err != nil {
			// Injected disk-read failure: served as a miss. The engine
			// recomputes, which is always correct.
			t.faultedReads++
			return nil, false, false
		}
	}
	frame, err := t.log.Read(rec.off, int(rec.n))
	if err != nil {
		return nil, false, false
	}
	_, v, err := t.decode(frame)
	if err != nil {
		return nil, false, false
	}
	t.install(key, v)
	return v, false, true
}

// pin increments the refcount of a resident record; the evictor skips
// pinned entries. The record must currently be in the hot tier (pin is
// called immediately after a successful get).
func (t *tier) pin(key string) {
	if e, ok := t.mem[key]; ok {
		e.refs++
	}
}

// unpin releases one pin.
func (t *tier) unpin(key string) {
	if e, ok := t.mem[key]; ok && e.refs > 0 {
		e.refs--
	}
}

// install inserts (or refreshes) a hot-tier entry and evicts beyond
// capacity, skipping pinned entries. When every entry is pinned the hot
// tier grows past capacity rather than dropping in-use records.
func (t *tier) install(key string, val any) {
	if e, ok := t.mem[key]; ok {
		e.val = val
		t.lru.MoveToFront(e.elem)
		return
	}
	e := &memEnt{key: key, val: val}
	e.elem = t.lru.PushFront(e)
	t.mem[key] = e
	for len(t.mem) > t.cap {
		victim := t.oldestUnpinned()
		if victim == nil {
			break
		}
		t.lru.Remove(victim.elem)
		delete(t.mem, victim.key)
		t.evicted++
	}
}

// oldestUnpinned walks the LRU list from the cold end past pinned
// entries.
func (t *tier) oldestUnpinned() *memEnt {
	for el := t.lru.Back(); el != nil; el = el.Prev() {
		if e := el.Value.(*memEnt); e.refs == 0 {
			return e
		}
	}
	return nil
}
