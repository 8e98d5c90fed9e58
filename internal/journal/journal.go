// Package journal is the repository's one durable log. A Log[T] is an
// append-only journal of JSON records beside a JSON snapshot, and it owns
// the whole file lifecycle: open, replay, torn-tail repair, append, sync,
// compaction and close. It has two users, which differ only in when they
// call Sync:
//
//   - internal/cluster.JournalStore, the replica job journal behind
//     /v1/sim, calls Sync after every Append, so a job transition is on
//     disk before it is observable over HTTP ("202 implies durable");
//   - internal/online.SampleLog, the DAgger sample reservoir, calls Sync
//     at retraining-cycle boundaries, since a per-sample fsync would
//     throttle the simulator.
//
// Compact and Close fsync the journal for both.
//
// The journal line format is "<crc32 hex> <payload>\n" — one payload per
// line, checksummed so a torn or bit-flipped tail is detected on replay.
// The snapshot install is write-temp + fsync + rename + fsync-dir, so a
// crash mid-install leaves either the old or the new file, never a torn
// one.
package journal

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// EncodeLine appends one "<crc32 hex> <payload>\n" journal line to buf and
// returns the extended buffer. The payload must not contain a newline
// (JSON-marshalled records never do).
func EncodeLine(buf, payload []byte) []byte {
	buf = append(buf, fmt.Sprintf("%08x ", crc32.ChecksumIEEE(payload))...)
	buf = append(buf, payload...)
	buf = append(buf, '\n')
	return buf
}

// DecodeLine validates one journal line (without its trailing newline) and
// returns its payload. ok is false for a malformed prefix or a CRC
// mismatch.
func DecodeLine(line []byte) (payload []byte, ok bool) {
	sp := bytes.IndexByte(line, ' ')
	if sp != 8 { // crc32 is always 8 hex digits
		return nil, false
	}
	var want uint32
	if _, err := fmt.Sscanf(string(line[:sp]), "%08x", &want); err != nil {
		return nil, false
	}
	payload = line[sp+1:]
	if crc32.ChecksumIEEE(payload) != want {
		return nil, false
	}
	return payload, true
}

// Scan walks journal bytes line by line, calling fn with each intact
// payload. The first malformed line — torn (no newline), bad CRC, or one
// fn rejects by returning false — ends the scan: everything after it is
// untrusted, since ordering is the journal's whole point. It returns the
// number of leading bytes consumed by accepted lines; Open truncates the
// file to that length to clear a torn tail.
func Scan(data []byte, fn func(payload []byte) bool) (good int) {
	off := 0
	for off < len(data) {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			break // torn final line
		}
		payload, ok := DecodeLine(data[off : off+nl])
		if !ok || !fn(payload) {
			break
		}
		off += nl + 1
		good = off
	}
	return good
}

// WriteFileAtomic installs data at path atomically: write to a sibling
// temp file, fsync, rename over the target, fsync the directory. A crash
// at any point leaves either the previous file or the new one.
func WriteFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: temp file: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("journal: writing %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("journal: syncing %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("journal: closing %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("journal: installing %s: %w", path, err)
	}
	if err := SyncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("journal: syncing dir of %s: %w", path, err)
	}
	return nil
}

// SyncDir fsyncs a directory so a rename inside it is durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
