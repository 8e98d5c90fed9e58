package journal

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// ErrClosed is returned by Append and Compact after Close.
var ErrClosed = errors.New("journal: log is closed")

// Log is a durable append-only log of T records, each journaled as one
// JSON line, beside a JSON snapshot that Compact replaces. The caller
// owns what the records mean: it folds the replayed records into its own
// state and hands Compact the encoded snapshot of that state.
//
// A Log is not safe for concurrent use; its users serialise calls under
// the mutex that already guards their own state.
type Log[T any] struct {
	f        *os.File
	snapPath string
	buf      []byte // reused line buffer
	closed   bool
}

// Open opens the log in dir, creating dir if needed. name is the journal
// file and snapName the snapshot file. When the snapshot exists it is
// JSON-decoded into snap; a snapshot that does not decode is an error,
// never silently dropped state. The journal is then replayed (see Replay),
// truncated to its last intact line, and opened for appending. Open
// returns the replayed records in append order.
func Open[T any](dir, name, snapName string, snap any, valid func(T) bool) (*Log[T], []T, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("journal: log dir: %w", err)
	}
	snapPath := filepath.Join(dir, snapName)
	if data, err := os.ReadFile(snapPath); err == nil {
		if err := json.Unmarshal(data, snap); err != nil {
			return nil, nil, fmt.Errorf("journal: corrupt snapshot %s: %w", snapPath, err)
		}
	} else if !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("journal: reading snapshot: %w", err)
	}

	path := filepath.Join(dir, name)
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("journal: reading %s: %w", path, err)
	}
	recs, good := Replay(data, valid)
	if good < len(data) {
		// Torn or corrupt tail: cut it so the next append starts a clean
		// line.
		if err := os.Truncate(path, int64(good)); err != nil {
			return nil, nil, fmt.Errorf("journal: truncating torn tail: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: opening %s: %w", path, err)
	}
	return &Log[T]{f: f, snapPath: snapPath}, recs, nil
}

// Replay decodes journal bytes into the records of every intact line and
// returns how many leading bytes those lines span. A line that is torn,
// fails its CRC, does not decode into a T, or that valid rejects ends the
// replay: everything after it is untrusted.
func Replay[T any](data []byte, valid func(T) bool) (recs []T, good int) {
	good = Scan(data, func(payload []byte) bool {
		var rec T
		if err := json.Unmarshal(payload, &rec); err != nil || !valid(rec) {
			return false
		}
		recs = append(recs, rec)
		return true
	})
	return recs, good
}

// Append journals rec as one line with a single write. The record is
// encoded before anything is written, so one that cannot be encoded
// leaves the journal untouched. Append does not fsync; see Sync.
func (l *Log[T]) Append(rec T) error {
	if l.closed {
		return ErrClosed
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("journal: encoding record: %w", err)
	}
	l.buf = EncodeLine(l.buf[:0], payload)
	if _, err := l.f.Write(l.buf); err != nil {
		return fmt.Errorf("journal: appending: %w", err)
	}
	return nil
}

// Sync flushes appended lines to stable storage. It is a no-op after
// Close, which syncs.
func (l *Log[T]) Sync() error {
	if l.closed {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("journal: syncing: %w", err)
	}
	return nil
}

// Compact installs snapshot atomically, then truncates and fsyncs the
// journal. The snapshot must already hold every appended record. A crash
// between the install and the truncate leaves both on disk, so the
// caller's replay must treat journal lines the snapshot already holds as
// no-ops.
func (l *Log[T]) Compact(snapshot []byte) error {
	if l.closed {
		return ErrClosed
	}
	if err := WriteFileAtomic(l.snapPath, snapshot); err != nil {
		return err
	}
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("journal: truncating: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("journal: syncing truncated journal: %w", err)
	}
	return nil
}

// Close syncs and releases the journal file; Appends fail from here on.
// Closing twice is fine.
func (l *Log[T]) Close() error {
	if l.closed {
		return nil
	}
	l.closed = true
	if err := l.f.Sync(); err != nil {
		l.f.Close()
		return fmt.Errorf("journal: syncing: %w", err)
	}
	return l.f.Close()
}
