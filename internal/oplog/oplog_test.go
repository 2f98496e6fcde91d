package oplog

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/treedoc/treedoc/internal/ident"
	"github.com/treedoc/treedoc/internal/vclock"
)

type rec struct {
	site ident.SiteID
	seq  uint64
	body []byte
}

func collect(t *testing.T, l *Log) []rec {
	t.Helper()
	var out []rec
	err := l.Replay(func(site ident.SiteID, seq uint64, body []byte) error {
		out = append(out, rec{site, seq, append([]byte(nil), body...)})
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return out
}

func TestAppendReplayRoundTrip(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []rec{
		{1, 1, []byte("alpha")},
		{2, 1, []byte("beta")},
		{1, 2, []byte{}},
		{3, 7, bytes.Repeat([]byte{0xAB}, 1000)},
	}
	for _, r := range want {
		if err := l.Append(r.site, r.seq, r.body); err != nil {
			t.Fatal(err)
		}
	}
	got := collect(t, l)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].site != want[i].site || got[i].seq != want[i].seq || !bytes.Equal(got[i].body, want[i].body) {
			t.Errorf("record %d: got %v want %v", i, got[i], want[i])
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestReopenResumesAppend(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(1, 1, []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if err := l2.Append(1, 2, []byte("second")); err != nil {
		t.Fatal(err)
	}
	got := collect(t, l2)
	if len(got) != 2 || got[0].seq != 1 || got[1].seq != 2 {
		t.Fatalf("after reopen: %v", got)
	}
}

func TestTornTailTruncatedOnReopen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if err := l.Append(1, uint64(i), []byte(fmt.Sprintf("op-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: chop bytes off the tail record.
	segs, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
	if len(segs) != 1 {
		t.Fatalf("segments: %v", segs)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segs[0], data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after torn tail: %v", err)
	}
	defer l2.Close()
	got := collect(t, l2)
	if len(got) != 4 {
		t.Fatalf("replayed %d records after truncation, want 4", len(got))
	}
	// The log must accept fresh appends after recovery.
	if err := l2.Append(1, 5, []byte("op-5-again")); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, l2); len(got) != 5 {
		t.Fatalf("after re-append: %d records", len(got))
	}
}

func TestCorruptMiddleRecordIsAnError(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := l.Append(1, uint64(i), bytes.Repeat([]byte("x"), 64)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the first record's payload: acknowledged bytes
	// were damaged, which reopen must report, not repair.
	data[len(segMagic)+recHdrSize+4] ^= 0xFF
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		return // expected: corruption reported
	}
	// Reopen succeeded only if truncation removed the corrupt record AND
	// everything after it — that would silently drop acknowledged data.
	defer l2.Close()
	if got := collect(t, l2); len(got) >= 3 {
		t.Fatalf("corrupt middle record not detected: %d records", len(got))
	}
	t.Fatalf("reopen of corrupt (non-tail) segment succeeded")
}

// TestOldFormatSegmentFailsClosed: a TDLOG001 segment holds operations in
// the retired one-byte-per-level layout. Opening its directory must fail
// with an error that names the format, and must not repair, truncate or
// re-head the file — whether it is the active segment (where torn tails are
// otherwise truncated) or a sealed one, whole or cut short mid-record.
func TestOldFormatSegmentFailsClosed(t *testing.T) {
	src := t.TempDir()
	l, err := Open(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(1, 1, []byte("an operation in some layout")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(src, "*.seg"))
	current, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	old := append([]byte("TDLOG001"), current[len(segMagic):]...)
	for name, files := range map[string]map[string][]byte{
		"active":       {"000000000000000001.seg": old},
		"active, torn": {"000000000000000001.seg": old[:len(old)-3]},
		"sealed":       {"000000000000000001.seg": old, "000000000000000002.seg": current},
	} {
		dir := t.TempDir()
		for file, data := range files {
			if err := os.WriteFile(filepath.Join(dir, file), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		l, err := Open(dir, Options{})
		if err == nil {
			l.Close()
			t.Fatalf("%s: a TDLOG001 segment was opened", name)
		}
		if !strings.Contains(err.Error(), "TDLOG001") || !strings.Contains(err.Error(), segMagic) {
			t.Errorf("%s: error does not name the formats: %v", name, err)
		}
		for file, data := range files {
			if got, err := os.ReadFile(filepath.Join(dir, file)); err != nil || !bytes.Equal(got, data) {
				t.Errorf("%s: %s was modified by the refused open (%v)", name, file, err)
			}
		}
		if left, _ := filepath.Glob(filepath.Join(dir, "*")); len(left) != len(files) {
			t.Errorf("%s: refused open left %v behind", name, left)
		}
	}
}

func TestSegmentRollAndCompaction(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	body := bytes.Repeat([]byte("y"), 48)
	for i := 1; i <= 40; i++ {
		if err := l.Append(2, uint64(i), body); err != nil {
			t.Fatal(err)
		}
	}
	if l.Segments() < 3 {
		t.Fatalf("expected several segments, got %d", l.Segments())
	}
	before := l.SizeBytes()

	// Snapshot at seq 30, then compact: every segment whose records are
	// all ≤ 30 must go.
	cutoff := vclock.VC{2: 30}
	if err := l.WriteSnapshot([]byte("snapshot-state"), cutoff); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Compact(cutoff); err != nil {
		t.Fatal(err)
	}
	if l.SizeBytes() >= before {
		t.Fatalf("compaction did not shrink the log: %d -> %d", before, l.SizeBytes())
	}
	// Records above the barrier must survive.
	maxSeq := uint64(0)
	for _, r := range collect(t, l) {
		if r.seq > maxSeq {
			maxSeq = r.seq
		}
	}
	if maxSeq != 40 {
		t.Fatalf("post-compaction max seq = %d, want 40", maxSeq)
	}
	// The stored snapshot must round-trip.
	data, clock, err := l.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "snapshot-state" || clock.Get(2) != 30 {
		t.Fatalf("snapshot round-trip: %q %v", data, clock)
	}
}

func TestSnapshotSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(1, 1, []byte("op")); err != nil {
		t.Fatal(err)
	}
	if err := l.WriteSnapshot([]byte("state"), vclock.VC{1: 1}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	data, clock, err := l2.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "state" || clock.Get(1) != 1 {
		t.Fatalf("snapshot after reopen: %q %v", data, clock)
	}
	if l2.SnapClock().Get(1) != 1 {
		t.Fatalf("snap clock not restored: %v", l2.SnapClock())
	}
}

func TestCorruptSnapshotRejected(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WriteSnapshot([]byte("state"), vclock.VC{1: 1}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, snapName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("corrupt snapshot accepted")
	}
}

func TestAppendRejectsInvalidStamp(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(0, 1, nil); err == nil {
		t.Error("zero site accepted")
	}
	if err := l.Append(1, 0, nil); err == nil {
		t.Error("zero seq accepted")
	}
}
