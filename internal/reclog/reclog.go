// Package reclog is the one durable record log under the result store's
// tiers (internal/store) and the appearance index's segment log
// (internal/index): the frame format, the recovery scan run at open, and
// the manifest identity check that decides whether a directory's logs
// may be served at all (DESIGN.md §7.1).
//
// A log file is a sequence of independently decodable frames:
//
//	[4-byte big-endian payload length][4-byte CRC32 (IEEE) of payload][gob payload]
//
// Every payload is produced by a fresh gob.Encoder, so a frame can be
// decoded knowing only its offset — no stream state is shared between
// records, which is what allows random reads and lets the opener skip a
// corrupt record instead of abandoning the file.
//
// A Log is not safe for concurrent use; its owner serializes access
// behind its own lock.
package reclog

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
)

// headerBytes is the fixed framing prefix: length + CRC.
const headerBytes = 8

// manifestName is the manifest file inside a log directory.
const manifestName = "manifest.json"

// Encode frames one gob-encoded value for Append.
func Encode(v any) ([]byte, error) {
	var body bytes.Buffer
	var hdr [headerBytes]byte
	body.Write(hdr[:]) // filled in below, once the payload is known
	if err := gob.NewEncoder(&body).Encode(v); err != nil {
		return nil, err
	}
	frame := body.Bytes()
	payload := frame[headerBytes:]
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	return frame, nil
}

// Decode decodes the payload of a frame into v. The frame must be one
// that Open visited or Read returned: both verify the checksum, Decode
// does not verify it again.
func Decode(frame []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(frame[headerBytes:])).Decode(v)
}

// checkFrame verifies a whole frame: the length header must account for
// exactly the bytes present and the payload must match its CRC.
func checkFrame(frame []byte) error {
	if len(frame) < headerBytes {
		return fmt.Errorf("record shorter than its header")
	}
	payload := frame[headerBytes:]
	if int(binary.BigEndian.Uint32(frame[0:4])) != len(payload) {
		return fmt.Errorf("record length mismatch")
	}
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(frame[4:8]) {
		return fmt.Errorf("record checksum mismatch")
	}
	return nil
}

// Log is one append-only frame log file.
type Log struct {
	f    *os.File
	size int64 // logical end of log: next append offset
}

// Recovery reports what the scan at Open found: frames skipped alone
// (framing intact, checksum or visitor failed), tail truncations, and
// one human-readable warning per event.
type Recovery struct {
	Corrupt  int
	Torn     int
	Warnings []string
}

// Open opens (creating if needed) the log at path and replays it: visit
// is called in append order with the offset and bytes of every frame
// whose checksum verifies (the slice is reused — decode it before
// returning). Torn or garbage framing — a short header, a length above
// maxPayload or running past the end of the file — means nothing beyond
// that point can be trusted: the logical log ends there and the file is
// truncated to it. A frame whose framing is intact but whose checksum
// or visitor fails is skipped alone and the scan continues. label
// prefixes the warnings.
func Open(path, label string, maxPayload int, visit func(off int64, frame []byte) error) (*Log, Recovery, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, Recovery{}, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, Recovery{}, err
	}
	var rec Recovery
	warn := func(format string, args ...any) {
		rec.Warnings = append(rec.Warnings, label+": "+fmt.Sprintf(format, args...))
	}
	fileSize := st.Size()
	var buf []byte
	off := int64(0)
	for off < fileSize {
		var hdr [headerBytes]byte
		_, err := f.ReadAt(hdr[:], off)
		length := int64(binary.BigEndian.Uint32(hdr[0:4]))
		if err != nil || length > int64(maxPayload) || off+headerBytes+length > fileSize {
			warn("truncating torn tail at offset %d (file size %d)", off, fileSize)
			rec.Torn++
			break
		}
		n := headerBytes + int(length)
		if cap(buf) < n {
			buf = make([]byte, n)
		}
		frame := buf[:n]
		if _, err := f.ReadAt(frame, off); err != nil {
			warn("unreadable record at offset %d: %v", off, err)
			rec.Torn++
			break
		}
		err = checkFrame(frame)
		if err == nil {
			err = visit(off, frame)
		}
		if err != nil {
			warn("skipping corrupt record at offset %d: %v", off, err)
			rec.Corrupt++
		}
		off += int64(n)
	}
	if off < fileSize {
		if err := f.Truncate(off); err != nil {
			warn("truncate failed: %v", err)
		}
	}
	return &Log{f: f, size: off}, rec, nil
}

// Append writes one frame (from Encode) at the end of the log and
// returns the offset it landed on. After an error the tail state is
// unknown and the owner must stop appending.
func (l *Log) Append(frame []byte) (off int64, err error) {
	if _, err := l.f.WriteAt(frame, l.size); err != nil {
		return 0, err
	}
	off = l.size
	l.size += int64(len(frame))
	return off, nil
}

// Read returns the n-byte frame at off — header and payload in one
// read — verified against its length header and checksum.
func (l *Log) Read(off int64, n int) ([]byte, error) {
	frame := make([]byte, n)
	if _, err := l.f.ReadAt(frame, off); err != nil {
		return nil, err
	}
	if err := checkFrame(frame); err != nil {
		return nil, err
	}
	return frame, nil
}

// Close syncs and closes the log file.
func (l *Log) Close() error {
	if err := l.f.Sync(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}

// Mismatch explains why an existing manifest blob does not match the
// expected identity (a flat struct of comparable fields), naming every
// offending field by its JSON name with its found and expected values —
// so an invalidation warning says exactly which identity moved. It
// returns "" when the manifest matches.
func Mismatch[M comparable](blob []byte, want M) string {
	var have M
	if err := json.Unmarshal(blob, &have); err != nil {
		return fmt.Sprintf("manifest unreadable (%v)", err)
	}
	if have == want {
		return ""
	}
	h, w := reflect.ValueOf(have), reflect.ValueOf(want)
	var fields []string
	for i := 0; i < w.NumField(); i++ {
		if hv, wv := h.Field(i).Interface(), w.Field(i).Interface(); hv != wv {
			name, _, _ := strings.Cut(w.Type().Field(i).Tag.Get("json"), ",")
			fields = append(fields, fmt.Sprintf("%s found %v, expected %v", name, hv, wv))
		}
	}
	return "manifest mismatch: " + strings.Join(fields, "; ")
}

// CheckManifest is the identity gate run before a directory's logs are
// opened. Records are model outputs — pure functions of the identity in
// the manifest — so under another identity they are wrong, not stale:
// when dir's manifest does not match want (or cannot be parsed), every
// file named in stale is removed and the returned warning says why. A
// failed removal fails the open: were the manifest rewritten anyway,
// the surviving records would be served as valid on every later open.
//
// A matching manifest is left untouched, and a new one is written
// through WriteFile — a crash mid-write must never leave a half-written
// manifest, which the next open would read as a mismatch and answer by
// deleting the archive.
func CheckManifest[M comparable](dir, label string, want M, stale ...string) (warning string, err error) {
	path := filepath.Join(dir, manifestName)
	switch blob, err := os.ReadFile(path); {
	case err == nil:
		reason := Mismatch(blob, want)
		if reason == "" {
			return "", nil
		}
		for _, name := range stale {
			if err := os.Remove(filepath.Join(dir, name)); err != nil && !errors.Is(err, fs.ErrNotExist) {
				return "", fmt.Errorf("invalidating %s: %w", name, err)
			}
		}
		warning = fmt.Sprintf("%s: %s: %s; invalidating", label, dir, reason)
	case !errors.Is(err, fs.ErrNotExist):
		return "", err
	}
	blob, err := json.Marshal(want)
	if err != nil {
		return "", err
	}
	return warning, WriteFile(path, append(blob, '\n'))
}

// WriteFile replaces path with data atomically: the bytes go to a
// temporary file in the same directory, are synced, and the file is
// renamed over path, so a reader (or a crash) sees the old content or
// the new, never a prefix.
func WriteFile(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Chmod(0o644)
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}
