package transport

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/treedoc/treedoc/internal/vclock"
)

// retainedLen reads the actor-owned retained-message count.
func retainedLen(e *Engine) int {
	ch := make(chan int, 1)
	if !e.ctl(func() { ch <- e.retained.Len() }) {
		return -1
	}
	select {
	case n := <-ch:
		return n
	case <-e.done:
		return -1
	}
}

// TestStopFlushesQueuedOps is the regression test for stop-time op loss:
// Broadcast accepts ops, Stop flushes them into the peer queues, and the
// peer writers must drain those queues before the links close — before
// the fix, writers exited on the done signal with the flushed frames
// still queued, silently dropping acknowledged ops.
func TestStopFlushesQueuedOps(t *testing.T) {
	ra := newTestReplica(t, 1)
	rb := newTestReplica(t, 2)
	// A long sync interval ensures delivery can only come from the stop
	// flush itself, not a later anti-entropy round.
	ea, err := NewEngine(1, ra, WithSyncInterval(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	eb, err := NewEngine(2, rb, WithSyncInterval(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer eb.Stop()
	la, lb := ChanPair(1024)
	ea.Connect(la)
	eb.Connect(lb)

	const n = 100
	for i := 0; i < n; i++ {
		op := ra.insertAt(t, i, "a")
		if err := ea.Broadcast(op); err != nil {
			t.Fatal(err)
		}
	}
	// Stop immediately: everything Broadcast accepted must still reach B.
	ea.Stop()

	deadline := time.Now().Add(10 * time.Second)
	for eb.Stats().Applied < n {
		if time.Now().After(deadline) {
			t.Fatalf("peer received %d of %d ops accepted before Stop", eb.Stats().Applied, n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := rb.content(); got != ra.content() {
		t.Fatalf("replica diverged after stop flush:\n a=%q\n b=%q", ra.content(), got)
	}
}

// TestSyncReqSkipsDeadPeer checks the dead-link guard: answering a digest
// from a torn-down peer must not encode and queue reply frames.
func TestSyncReqSkipsDeadPeer(t *testing.T) {
	r := newTestReplica(t, 1)
	e, err := NewEngine(1, r, WithSyncInterval(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	a, b := ChanPair(64)
	e.Connect(a)
	for i := 0; i < 10; i++ {
		if err := e.Broadcast(r.insertAt(t, i, "x")); err != nil {
			t.Fatal(err)
		}
	}
	// Grab the peer, then kill the link and wait for the reader to mark it
	// dead.
	pch := make(chan *peer, 1)
	e.ctl(func() { pch <- e.peers[0] })
	p := <-pch
	b.Close()
	deadline := time.Now().Add(5 * time.Second)
	for !p.dead() {
		if time.Now().After(deadline) {
			t.Fatal("peer never died")
		}
		time.Sleep(time.Millisecond)
	}
	// The dead peer's queue keeps whatever it held when the writer exited;
	// the guard means a digest reply must not add to it.
	base := p.len()
	done := make(chan struct{})
	e.ctl(func() {
		e.handleSyncReq(&SyncReqFrame{From: 9, Clock: vclock.New()}, p)
		close(done)
	})
	<-done
	if n := p.len(); n != base {
		t.Fatalf("handleSyncReq queued %d frames for a dead peer", n-base)
	}
}

// TestEngineRestartResumesFromLog is the restart-resume acceptance test:
// an engine restarted over its log directory rebuilds the replica, keeps
// its clock, re-stamps nothing, and converges with live peers.
func TestEngineRestartResumesFromLog(t *testing.T) {
	dir := t.TempDir()
	ra := newTestReplica(t, 1)
	ea, err := NewEngine(1, ra, WithLogDir(dir), WithSyncInterval(20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	rb := newTestReplica(t, 2)
	eb, err := NewEngine(2, rb, WithSyncInterval(20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer eb.Stop()
	la, lb := ChanPair(256)
	ea.Connect(la)
	eb.Connect(lb)

	for i := 0; i < 40; i++ {
		if err := ea.Broadcast(ra.insertAt(t, i, "a")); err != nil {
			t.Fatal(err)
		}
		if err := eb.Broadcast(rb.insertAt(t, 0, "b")); err != nil {
			t.Fatal(err)
		}
	}
	waitConverged(t, []*Engine{ea, eb}, 15*time.Second)
	wantContent := ra.content()
	wantClock := ea.Clock()
	wantSeq := ra.seq()
	ea.Stop()
	if err := ea.Err(); err != nil {
		t.Fatal(err)
	}

	// Restart: a completely fresh replica over the same directory.
	ra2 := newTestReplica(t, 1)
	ea2, err := NewEngine(1, ra2, WithLogDir(dir), WithSyncInterval(20*time.Millisecond))
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer ea2.Stop()
	if got := ra2.content(); got != wantContent {
		t.Fatalf("restart content:\n got %q\nwant %q", got, wantContent)
	}
	if got := ea2.Clock(); !vcEqual(got, wantClock) {
		t.Fatalf("restart clock: got %v want %v", got, wantClock)
	}
	if got := ra2.seq(); got != wantSeq {
		t.Fatalf("restart seq: got %d want %d (re-stamping would corrupt peers)", got, wantSeq)
	}

	// New local edits must continue the sequence: if the restarted engine
	// re-stamped, B's causal buffer would discard them as duplicates and
	// the clocks would never re-converge.
	la2, lb2 := ChanPair(256)
	ea2.Connect(la2)
	eb.Connect(lb2)
	n := ra2.len()
	for i := 0; i < 10; i++ {
		if err := ea2.Broadcast(ra2.insertAt(t, n+i, "c")); err != nil {
			t.Fatal(err)
		}
	}
	waitConverged(t, []*Engine{ea2, eb}, 15*time.Second)
	if ra2.content() != rb.content() {
		t.Fatalf("restarted replica diverged:\n a=%q\n b=%q", ra2.content(), rb.content())
	}
	if err := ra2.check(); err != nil {
		t.Fatal(err)
	}
	if err := rb.check(); err != nil {
		t.Fatal(err)
	}
}

// TestRestartAfterTornTail kills a replica mid-append — a truncated tail
// record — and checks that reopen recovers the valid prefix and the
// network heals the lost suffix.
func TestRestartAfterTornTail(t *testing.T) {
	dir := t.TempDir()
	ra := newTestReplica(t, 1)
	ea, err := NewEngine(1, ra, WithLogDir(dir), WithSyncInterval(20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	rb := newTestReplica(t, 2)
	eb, err := NewEngine(2, rb, WithSyncInterval(20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer eb.Stop()
	la, lb := ChanPair(256)
	ea.Connect(la)
	eb.Connect(lb)
	for i := 0; i < 50; i++ {
		if err := eb.Broadcast(rb.insertAt(t, i, "b")); err != nil {
			t.Fatal(err)
		}
	}
	waitConverged(t, []*Engine{ea, eb}, 15*time.Second)
	ea.Stop()

	// Crash simulation: tear bytes off the tail segment.
	segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v %v", segs, err)
	}
	tail := segs[len(segs)-1]
	data, err := os.ReadFile(tail)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tail, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	ra2 := newTestReplica(t, 1)
	ea2, err := NewEngine(1, ra2, WithLogDir(dir), WithSyncInterval(20*time.Millisecond))
	if err != nil {
		t.Fatalf("reopen after torn tail: %v", err)
	}
	defer ea2.Stop()
	// The recovered prefix must be a prefix: shorter than or equal to the
	// full history, never corrupt.
	if err := ra2.check(); err != nil {
		t.Fatal(err)
	}
	// Reconnect: anti-entropy retransmits the truncated suffix.
	la2, lb2 := ChanPair(256)
	ea2.Connect(la2)
	eb.Connect(lb2)
	waitConverged(t, []*Engine{ea2, eb}, 15*time.Second)
	if ra2.content() != rb.content() {
		t.Fatalf("torn-tail recovery diverged:\n a=%q\n b=%q", ra2.content(), rb.content())
	}
}

// TestLateJoinerSnapshotCatchup is the snapshot catch-up acceptance test:
// a joiner to a document with >= 10k historical ops converges via a
// SnapReply plus the log suffix, replaying only the post-barrier tail —
// and the compaction policy keeps both the in-memory message log and the
// on-disk segments bounded.
func TestLateJoinerSnapshotCatchup(t *testing.T) {
	const (
		total        = 10000
		compactEvery = 512
		threshold    = 256
	)
	dir := t.TempDir()
	ra := newTestReplica(t, 1)
	ea, err := NewEngine(1, ra,
		WithLogDir(dir),
		WithSyncInterval(25*time.Millisecond),
		WithCompactEvery(compactEvery),
		WithSnapshotThreshold(threshold))
	if err != nil {
		t.Fatal(err)
	}
	defer ea.Stop()

	for i := 0; i < total; i++ {
		if err := ea.Broadcast(ra.insertAt(t, i, "h")); err != nil {
			t.Fatal(err)
		}
	}
	// Let the engine drain and compact: the retained message log must be
	// bounded by the policy, not the 10k history.
	deadline := time.Now().Add(20 * time.Second)
	for {
		if n := retainedLen(ea); n >= 0 && n < 2*compactEvery {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("retained log not compacted: %d retained of %d", retainedLen(ea), total)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The joiner arrives with empty state and must catch up via snapshot,
	// not a 10k-op replay.
	rj := newTestReplica(t, 2)
	ej, err := NewEngine(2, rj,
		WithSyncInterval(25*time.Millisecond),
		WithCompactEvery(compactEvery),
		WithSnapshotThreshold(threshold))
	if err != nil {
		t.Fatal(err)
	}
	defer ej.Stop()
	la, lb := ChanPair(1024)
	ea.Connect(la)
	ej.Connect(lb)

	waitConverged(t, []*Engine{ea, ej}, 30*time.Second)
	if rj.content() != ra.content() {
		t.Fatal("joiner content diverged")
	}
	if got := ej.Stats().SnapshotsInstalled; got < 1 {
		t.Fatalf("joiner installed %d snapshots, want >= 1", got)
	}
	// The replayed tail must be a small fraction of history: snapshot
	// catch-up replaces the bulk replay. Allow generous slack for ops that
	// arrive between barrier creation and convergence.
	if got := ej.Stats().Applied; got > total/4 {
		t.Fatalf("joiner replayed %d of %d ops — snapshot catch-up did not bound the replay", got, total)
	}
	if ea.Stats().SnapshotsSent < 1 {
		t.Fatalf("server sent %d snapshots", ea.Stats().SnapshotsSent)
	}
	// Segment bytes are bounded by the compaction policy too: the live log
	// must end up far smaller than the full history would be. Disk
	// truncation trails the barrier by the floor-promotion delay, so poll.
	// Record size grows with identifier depth (late ops in a 10k append
	// workload carry ~300-byte paths), so the un-compacted history exceeds
	// a megabyte while the retained window (≤ ~2×compactEvery of the
	// deepest records) stays under 300kB.
	logSize := func() int64 {
		ch := make(chan int64, 1)
		if !ea.ctl(func() { ch <- ea.log.SizeBytes() }) {
			return -1
		}
		select {
		case sz := <-ch:
			return sz
		case <-time.After(5 * time.Second):
			return -1
		}
	}
	sizeDeadline := time.Now().Add(15 * time.Second)
	for {
		sz := logSize()
		if sz < 0 {
			t.Fatal("engine did not report log size")
		}
		if sz <= 300*1024 {
			break
		}
		if time.Now().After(sizeDeadline) {
			segs, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
			st := make(chan string, 1)
			ea.ctl(func() {
				st <- fmt.Sprintf("clock=%v snapVC=%v truncVC=%v sinceSnap=%d retained=%d segs=%d",
					e1sum(ea.buf.Clock()), e1sum(ea.snapVC), e1sum(ea.truncVC), ea.sinceSnap, ea.retained.Len(), ea.log.Segments())
			})
			t.Fatalf("log segments hold %d bytes — compaction did not prune\n err=%v\n %s\n files=%v",
				sz, ea.Err(), <-st, segs)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err := ea.Err(); err != nil {
		t.Fatal(err)
	}
	if err := ej.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotCatchupBelowBarrier forces the barrier case: the server has
// compacted away the early history, so a joiner's digest below the
// barrier cannot be served with ops at all.
func TestSnapshotCatchupBelowBarrier(t *testing.T) {
	ra := newTestReplica(t, 1)
	// Threshold 0 disables gap-based snapshots: only the compaction
	// barrier can force one.
	ea, err := NewEngine(1, ra,
		WithSyncInterval(25*time.Millisecond),
		WithCompactEvery(128),
		WithSnapshotThreshold(0))
	if err != nil {
		t.Fatal(err)
	}
	defer ea.Stop()
	for i := 0; i < 1000; i++ {
		if err := ea.Broadcast(ra.insertAt(t, i, "x")); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		if n := retainedLen(ea); n >= 0 && n < 1000 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("barrier never formed: retained=%d", retainedLen(ea))
		}
		time.Sleep(10 * time.Millisecond)
	}

	rj := newTestReplica(t, 2)
	ej, err := NewEngine(2, rj, WithSyncInterval(25*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer ej.Stop()
	la, lb := ChanPair(512)
	ea.Connect(la)
	ej.Connect(lb)
	waitConverged(t, []*Engine{ea, ej}, 30*time.Second)
	if rj.content() != ra.content() {
		t.Fatal("below-barrier joiner diverged")
	}
	if ej.Stats().SnapshotsInstalled < 1 {
		t.Fatal("joiner below the barrier converged without a snapshot — ops below the barrier should not exist")
	}
}

// e1sum compacts a clock for failure messages.
func e1sum(vc vclock.VC) string {
	if vc == nil {
		return "nil"
	}
	return vc.String()
}
