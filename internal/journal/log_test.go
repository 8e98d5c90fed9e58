package journal

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

type testRec struct {
	N int     `json:"n"`
	V float64 `json:"v"`
}

func validTestRec(r testRec) bool { return r.N > 0 }

func openTestLog(t *testing.T, dir string, snap any) (*Log[testRec], []testRec) {
	t.Helper()
	l, recs, err := Open(dir, "test.log", "test.json", snap, validTestRec)
	if err != nil {
		t.Fatal(err)
	}
	return l, recs
}

func TestLogLifecycle(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sub") // Open creates it
	var snap []testRec
	l, recs := openTestLog(t, dir, &snap)
	if len(recs) != 0 || snap != nil {
		t.Fatalf("fresh log replayed %v, snapshot %v", recs, snap)
	}
	want := []testRec{{N: 1, V: 0.5}, {N: 2}, {N: 3, V: -1}}
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if err := l.Append(testRec{N: 4}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}
	if err := l.Compact([]byte("[]")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Compact after Close = %v, want ErrClosed", err)
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync after Close = %v, want nil", err)
	}

	// Tear the journal mid-line: reopen replays the intact prefix and cuts
	// the tail off disk.
	path := filepath.Join(dir, "test.log")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	l, recs = openTestLog(t, dir, &snap)
	if !reflect.DeepEqual(recs, want[:2]) {
		t.Fatalf("replayed %v after torn tail, want %v", recs, want[:2])
	}
	intact := data[:bytes.LastIndexByte(data[:len(data)-1], '\n')+1]
	if onDisk, err := os.ReadFile(path); err != nil || !bytes.Equal(onDisk, intact) {
		t.Fatalf("torn tail not truncated: %q, %v", onDisk, err)
	}

	if err := l.Compact([]byte(`[{"n":1,"v":0.5},{"n":2,"v":0}]`)); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != 0 {
		t.Fatalf("journal not truncated by Compact: %v, %v", fi.Size(), err)
	}
	if err := l.Append(testRec{N: 9}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	snap = nil
	l, recs = openTestLog(t, dir, &snap)
	defer l.Close()
	if !reflect.DeepEqual(snap, want[:2]) || !reflect.DeepEqual(recs, []testRec{{N: 9}}) {
		t.Fatalf("after compaction: snapshot %v, replay %v", snap, recs)
	}
}

func TestReplayStopsAtInvalidRecord(t *testing.T) {
	var data []byte
	data = EncodeLine(data, []byte(`{"n":1}`))
	intact := len(data)
	data = EncodeLine(data, []byte(`{"n":0}`))  // validTestRec rejects it
	data = EncodeLine(data, []byte(`{"n":2}`))  // after it: untrusted
	data = EncodeLine(data, []byte(`not json`)) // never reached
	recs, good := Replay(data, validTestRec)
	if good != intact || !reflect.DeepEqual(recs, []testRec{{N: 1}}) {
		t.Fatalf("Replay = %v, %d; want [{1 0}], %d", recs, good, intact)
	}
	recs, good = Replay(EncodeLine(nil, []byte(`not json`)), validTestRec)
	if good != 0 || recs != nil {
		t.Fatalf("Replay of bad JSON = %v, %d; want nil, 0", recs, good)
	}
}

// TestAppendEncodeFailureWritesNothing: a record JSON cannot encode (NaN)
// fails Append before any byte reaches the journal, so the journal stays
// a sequence of whole lines.
func TestAppendEncodeFailureWritesNothing(t *testing.T) {
	dir := t.TempDir()
	var snap []testRec
	l, _ := openTestLog(t, dir, &snap)
	defer l.Close()
	if err := l.Append(testRec{N: 1}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "test.log")
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(testRec{N: 2, V: math.NaN()}); err == nil {
		t.Fatal("Append of a NaN record succeeded")
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != before.Size() {
		t.Fatalf("journal grew %d -> %d bytes on a failed encode", before.Size(), after.Size())
	}
}

func TestOpenCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "test.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	var snap []testRec
	if _, _, err := Open(dir, "test.log", "test.json", &snap, validTestRec); err == nil {
		t.Fatal("corrupt snapshot silently accepted")
	}
}
