// Package oplog is the durable replication log behind the transport
// engine: an append-only store of causally-stamped operations that
// survives process crashes, plus the snapshot that bounds it.
//
// The paper's anti-entropy story assumes a retained operation history;
// retaining it only in memory is the scalability trap Letia, Preguiça &
// Shapiro (2009) warn garbage-collection-free CRDT deployments fall into.
// The log fixes both halves: records are persisted in length-prefixed
// segment files so a restarted replica resumes exactly where it crashed
// (re-stamping nothing), and a compaction barrier — a document snapshot
// tagged with its vector clock — lets segments wholly below the barrier be
// deleted, so disk and memory stay proportional to the post-snapshot
// suffix rather than the whole edit history.
//
// On-disk layout, one directory per replica:
//
//	000000000000000001.seg   sealed segment
//	000000000000000002.seg   active segment (appends go here)
//	snapshot.snp             latest compaction snapshot (atomic rename)
//
// Segment format: an 8-byte header ("TDLOG002"), then records. Each
// record is
//
//	uint32  payload length (little endian)
//	uint32  CRC-32 (IEEE) of the payload
//	payload: uvarint site | uvarint seq | body bytes
//
// A torn tail — a crash mid-write — is detected by the length/CRC check
// and truncated away on reopen; corruption anywhere but the tail of the
// last segment is reported as an error rather than silently dropped,
// because it means bytes the log previously acknowledged were damaged.
package oplog

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"

	"github.com/treedoc/treedoc/internal/ident"
	"github.com/treedoc/treedoc/internal/vclock"
)

// FsyncMode selects when appends reach stable storage.
type FsyncMode int

const (
	// FsyncBatch (the default) leaves fsync to the caller's Sync calls —
	// the transport engine syncs once per flushed batch, before frames fan
	// out to peers.
	FsyncBatch FsyncMode = iota
	// FsyncAlways syncs after every Append: maximum durability, one
	// fsync per record.
	FsyncAlways
)

// Defaults and limits.
const (
	// segMagic names the record body format. TDLOG001 held operations with
	// one byte per identifier level; such a segment is refused by name and
	// left untouched — there is one format, and an old log is not parsed.
	segMagic = "TDLOG002"
	snapName = "snapshot.snp"

	// DefaultSegmentBytes is the roll threshold for the active segment.
	DefaultSegmentBytes = 1 << 20
	// MaxRecordBytes bounds one record's payload so a corrupt length
	// prefix cannot force an arbitrary allocation.
	MaxRecordBytes = 1 << 26

	recHdrSize = 8 // uint32 length + uint32 crc
)

var snapMagic = [8]byte{'T', 'D', 'S', 'N', '0', '0', '1', '\n'}

// Options configures a Log.
type Options struct {
	// Fsync is the append durability policy (default FsyncBatch).
	Fsync FsyncMode
	// SegmentBytes is the size at which the active segment is sealed and a
	// new one started (default DefaultSegmentBytes).
	SegmentBytes int
}

// segment is one on-disk segment file and its in-memory summary.
type segment struct {
	path string
	idx  uint64
	// summary holds the maximum sequence number recorded per site: the
	// segment is wholly covered by a cutoff clock iff the cutoff dominates
	// it, which is the compaction test.
	summary vclock.VC
	bytes   int64
	records int
}

// Log is a durable operation log. Methods are safe for use from one
// goroutine at a time (the transport engine's actor owns it); Open and
// Close are not safe to race Append.
type Log struct {
	dir    string
	opt    Options
	sealed []*segment
	active *segment
	f      *os.File
	dirty  bool

	snapClock vclock.VC
}

// Open opens (or creates) the log in dir, scanning existing segments,
// truncating a torn tail left by a crash, and loading the snapshot
// barrier if one was written.
func Open(dir string, opt Options) (*Log, error) {
	if opt.SegmentBytes <= 0 {
		opt.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("oplog: %w", err)
	}
	names, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil {
		return nil, fmt.Errorf("oplog: %w", err)
	}
	sort.Strings(names)
	l := &Log{dir: dir, opt: opt}
	for i, name := range names {
		var idx uint64
		if _, err := fmt.Sscanf(filepath.Base(name), "%d.seg", &idx); err != nil {
			return nil, fmt.Errorf("oplog: alien segment name %q", name)
		}
		seg := &segment{path: name, idx: idx, summary: vclock.New()}
		last := i == len(names)-1
		if err := scanSegment(seg, last, nil); err != nil {
			return nil, err
		}
		if last {
			l.active = seg
		} else {
			l.sealed = append(l.sealed, seg)
		}
	}
	if l.active == nil {
		if err := l.roll(1); err != nil {
			return nil, err
		}
	} else {
		f, err := os.OpenFile(l.active.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("oplog: %w", err)
		}
		l.f = f
	}
	if _, clock, err := l.Snapshot(); err != nil {
		l.f.Close()
		return nil, err
	} else if clock != nil {
		l.snapClock = clock
	}
	return l, nil
}

// scanSegment validates seg's records, filling its summary. A short or
// CRC-damaged record at the tail is truncated away when truncateTail is
// set (the last segment: a crash mid-append); anywhere else it is an
// error. When fn is non-nil it is called for each valid record.
func scanSegment(seg *segment, truncateTail bool, fn func(site ident.SiteID, seq uint64, body []byte) error) error {
	data, err := os.ReadFile(seg.path)
	if err != nil {
		return fmt.Errorf("oplog: %w", err)
	}
	if len(data) < len(segMagic) || string(data[:len(segMagic)]) != segMagic {
		if truncateTail && len(data) < len(segMagic) && string(data) == segMagic[:len(data)] {
			// A crash between create and header write: rewrite the header.
			if err := os.WriteFile(seg.path, []byte(segMagic), 0o644); err != nil {
				return fmt.Errorf("oplog: %w", err)
			}
			seg.bytes = int64(len(segMagic))
			return nil
		}
		return fmt.Errorf("oplog: segment %s: header %q is not format %s", seg.path, data[:min(len(data), len(segMagic))], segMagic)
	}
	off := len(segMagic)
	good := off
	for off < len(data) {
		site, seq, body, n, err := parseRecord(data[off:])
		if err != nil {
			if truncateTail && tailArtifact(data[off:]) {
				return truncateAt(seg, int64(good))
			}
			return fmt.Errorf("oplog: segment %s: record at %d: %w", seg.path, off, err)
		}
		if fn != nil {
			if err := fn(site, seq, body); err != nil {
				return err
			}
		}
		if seq > seg.summary.Get(site) {
			seg.summary[site] = seq
		}
		seg.records++
		off += n
		good = off
	}
	seg.bytes = int64(good)
	return nil
}

// parseRecord decodes one record from the front of buf, returning the
// bytes consumed.
func parseRecord(buf []byte) (site ident.SiteID, seq uint64, body []byte, n int, err error) {
	if len(buf) < recHdrSize {
		return 0, 0, nil, 0, fmt.Errorf("torn header")
	}
	plen := binary.LittleEndian.Uint32(buf)
	sum := binary.LittleEndian.Uint32(buf[4:])
	if plen == 0 || plen > MaxRecordBytes {
		return 0, 0, nil, 0, fmt.Errorf("payload length %d out of range", plen)
	}
	if uint64(plen) > uint64(len(buf)-recHdrSize) {
		return 0, 0, nil, 0, fmt.Errorf("torn payload")
	}
	payload := buf[recHdrSize : recHdrSize+int(plen)]
	if crc32.ChecksumIEEE(payload) != sum {
		return 0, 0, nil, 0, fmt.Errorf("checksum mismatch")
	}
	s, k := binary.Uvarint(payload)
	if k <= 0 {
		return 0, 0, nil, 0, fmt.Errorf("truncated site")
	}
	if s == 0 || ident.SiteID(s) > ident.MaxSiteID {
		return 0, 0, nil, 0, fmt.Errorf("site %d out of range", s)
	}
	q, k2 := binary.Uvarint(payload[k:])
	if k2 <= 0 {
		return 0, 0, nil, 0, fmt.Errorf("truncated seq")
	}
	if q == 0 {
		return 0, 0, nil, 0, fmt.Errorf("zero seq")
	}
	return ident.SiteID(s), q, payload[k+k2:], recHdrSize + int(plen), nil
}

// tailArtifact reports whether a failed record parse at the end of the
// last segment looks like a crash mid-append — a record that does not fit
// in the remaining bytes, or one that runs exactly to end-of-file — as
// opposed to damage with acknowledged records after it, which truncation
// would silently drop and so must be reported instead.
func tailArtifact(buf []byte) bool {
	if len(buf) < recHdrSize {
		return true // torn header
	}
	plen := binary.LittleEndian.Uint32(buf)
	if plen == 0 || plen > MaxRecordBytes {
		return true // garbage length: a partially written header
	}
	return recHdrSize+int(plen) >= len(buf)
}

func truncateAt(seg *segment, n int64) error {
	if err := os.Truncate(seg.path, n); err != nil {
		return fmt.Errorf("oplog: %w", err)
	}
	seg.bytes = n
	return nil
}

// segPath names segment idx.
func (l *Log) segPath(idx uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("%018d.seg", idx))
}

// roll seals the active segment (if any) and starts segment idx.
func (l *Log) roll(idx uint64) error {
	if l.f != nil {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("oplog: %w", err)
		}
		if err := l.f.Close(); err != nil {
			return fmt.Errorf("oplog: %w", err)
		}
		l.sealed = append(l.sealed, l.active)
		l.f, l.active = nil, nil
	}
	seg := &segment{path: l.segPath(idx), idx: idx, summary: vclock.New()}
	f, err := os.OpenFile(seg.path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("oplog: %w", err)
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		f.Close()
		return fmt.Errorf("oplog: %w", err)
	}
	seg.bytes = int64(len(segMagic))
	l.active, l.f = seg, f
	return nil
}

// Append writes one record: the stamped operation body for (site, seq).
// Under FsyncAlways the record is on stable storage when Append returns;
// otherwise durability waits for Sync, segment roll, or Close.
func (l *Log) Append(site ident.SiteID, seq uint64, body []byte) error {
	if l.f == nil {
		return fmt.Errorf("oplog: closed")
	}
	if site == 0 || site > ident.MaxSiteID || seq == 0 {
		return fmt.Errorf("oplog: invalid record stamp s%d#%d", site, seq)
	}
	payload := binary.AppendUvarint(nil, uint64(site))
	payload = binary.AppendUvarint(payload, seq)
	payload = append(payload, body...)
	if len(payload) > MaxRecordBytes {
		return fmt.Errorf("oplog: record of %d bytes exceeds limit", len(payload))
	}
	rec := make([]byte, recHdrSize, recHdrSize+len(payload))
	binary.LittleEndian.PutUint32(rec, uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[4:], crc32.ChecksumIEEE(payload))
	rec = append(rec, payload...)
	if _, err := l.f.Write(rec); err != nil {
		return fmt.Errorf("oplog: %w", err)
	}
	l.active.bytes += int64(len(rec))
	l.active.records++
	if seq > l.active.summary.Get(site) {
		l.active.summary[site] = seq
	}
	l.dirty = true
	if l.opt.Fsync == FsyncAlways {
		if err := l.Sync(); err != nil {
			return err
		}
	}
	if l.active.bytes >= int64(l.opt.SegmentBytes) {
		return l.roll(l.active.idx + 1)
	}
	return nil
}

// Sync flushes appended records to stable storage.
func (l *Log) Sync() error {
	if l.f == nil || !l.dirty {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("oplog: %w", err)
	}
	l.dirty = false
	return nil
}

// Replay streams every retained record in append order. Records covered
// by the snapshot barrier may still be present (compaction removes whole
// segments only); callers filter with their clock.
func (l *Log) Replay(fn func(site ident.SiteID, seq uint64, body []byte) error) error {
	segs := append(append([]*segment(nil), l.sealed...), l.active)
	for _, seg := range segs {
		if seg == nil {
			continue
		}
		fresh := &segment{path: seg.path, idx: seg.idx, summary: vclock.New()}
		if err := scanSegment(fresh, false, fn); err != nil {
			return err
		}
	}
	return nil
}

// Snapshot returns the stored compaction snapshot and its clock, or
// (nil, nil, nil) when none has been written.
func (l *Log) Snapshot() ([]byte, vclock.VC, error) {
	data, err := os.ReadFile(filepath.Join(l.dir, snapName))
	if os.IsNotExist(err) {
		return nil, nil, nil
	}
	if err != nil {
		return nil, nil, fmt.Errorf("oplog: %w", err)
	}
	if len(data) < len(snapMagic)+4 || string(data[:len(snapMagic)]) != string(snapMagic[:]) {
		return nil, nil, fmt.Errorf("oplog: snapshot: bad header")
	}
	rest := data[len(snapMagic)+4:]
	if crc32.ChecksumIEEE(rest) != binary.LittleEndian.Uint32(data[len(snapMagic):]) {
		return nil, nil, fmt.Errorf("oplog: snapshot: checksum mismatch")
	}
	clock, off, err := vclock.DecodeBinary(rest, -1)
	if err != nil {
		return nil, nil, fmt.Errorf("oplog: snapshot: %w", err)
	}
	return rest[off:], clock, nil
}

// WriteSnapshot atomically replaces the stored snapshot with (data,
// clock) and seals the active segment so records below the clock become
// eligible for Compact. The snapshot is fsynced before the rename, so a
// crash at any point leaves either the old snapshot or the new one —
// never neither. Truncation is a separate, explicit Compact call: the
// engine keeps one compaction generation of slack so live peers slightly
// behind the newest barrier can still be served operations.
func (l *Log) WriteSnapshot(data []byte, clock vclock.VC) error {
	if l.f == nil {
		return fmt.Errorf("oplog: closed")
	}
	body := append(clock.AppendBinary(nil), data...)
	buf := append([]byte(nil), snapMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(body))
	buf = append(buf, body...)

	tmp := filepath.Join(l.dir, snapName+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("oplog: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return fmt.Errorf("oplog: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("oplog: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("oplog: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(l.dir, snapName)); err != nil {
		return fmt.Errorf("oplog: %w", err)
	}
	if err := syncDir(l.dir); err != nil {
		return err
	}
	l.snapClock = clock.Clone()
	// Seal the active segment so records below the new barrier become
	// eligible for removal rather than pinned by the open file.
	if l.active.records > 0 {
		if err := l.roll(l.active.idx + 1); err != nil {
			return err
		}
	}
	return nil
}

// Compact removes sealed segments whose every record is covered by the
// cutoff clock, returning how many were deleted.
func (l *Log) Compact(cutoff vclock.VC) (int, error) {
	kept := l.sealed[:0]
	removed := 0
	for _, seg := range l.sealed {
		if cutoff.Dominates(seg.summary) {
			if err := os.Remove(seg.path); err != nil {
				return removed, fmt.Errorf("oplog: %w", err)
			}
			removed++
			continue
		}
		kept = append(kept, seg)
	}
	l.sealed = kept
	if removed > 0 {
		if err := syncDir(l.dir); err != nil {
			return removed, err
		}
	}
	return removed, nil
}

// SnapClock returns the stored snapshot barrier clock (nil when no
// snapshot has been written).
func (l *Log) SnapClock() vclock.VC { return l.snapClock.Clone() }

// Segments returns the number of live segment files (sealed + active).
func (l *Log) Segments() int { return len(l.sealed) + 1 }

// SizeBytes returns the total bytes across live segment files.
func (l *Log) SizeBytes() int64 {
	var n int64
	for _, seg := range l.sealed {
		n += seg.bytes
	}
	if l.active != nil {
		n += l.active.bytes
	}
	return n
}

// Records returns the number of records across live segments.
func (l *Log) Records() int {
	n := 0
	for _, seg := range l.sealed {
		n += seg.records
	}
	if l.active != nil {
		n += l.active.records
	}
	return n
}

// Dir returns the log directory.
func (l *Log) Dir() string { return l.dir }

// Close syncs and closes the active segment. The log is unusable after.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	err := l.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}

// syncDir fsyncs a directory so renames and removals are durable. The
// sync itself is best-effort: several filesystems reject fsync on
// directories (EINVAL) without that implying data loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("oplog: %w", err)
	}
	defer d.Close()
	_ = d.Sync()
	return nil
}
