package transport

// End-to-end chunked snapshot catch-up: the chunk payload is shrunk so an
// ordinary test document spans many chunks, and a late joiner must
// reassemble the snapshot from chunk frames before installing it.

import (
	"testing"
	"time"

	"github.com/treedoc/treedoc/internal/vclock"
)

// snapDataLen reads the actor-owned barrier snapshot size.
func snapDataLen(e *Engine) int {
	ch := make(chan int, 1)
	if !e.ctl(func() { ch <- len(e.snapData) }) {
		return -1
	}
	select {
	case n := <-ch:
		return n
	case <-e.done:
		return -1
	}
}

func TestChunkedSnapshotCatchup(t *testing.T) {
	defer func(pay int) { snapChunkPayload = pay }(snapChunkPayload)
	snapChunkPayload = 128

	server := newTestReplica(t, 1)
	serverEng, err := NewEngine(1, server,
		WithSyncInterval(15*time.Millisecond),
		WithCompactEvery(32),
		WithSnapshotThreshold(16))
	if err != nil {
		t.Fatal(err)
	}
	defer serverEng.Stop()
	// Enough history that the snapshot spans several shrunken chunks and
	// the joiner's gap clears the snapshot threshold.
	var ops int
	for i := 0; i < 120; i++ {
		op := server.insertAt(t, i, "chunked snapshot payload")
		if err := serverEng.Broadcast(op); err != nil {
			t.Fatal(err)
		}
		ops++
	}
	// Wait for compaction to truncate the retained history behind the
	// barrier: the chunked snapshot must be the joiner's only way to the
	// truncated prefix, not an optimisation it can skip.
	truncDeadline := time.Now().Add(30 * time.Second)
	for retainedLen(serverEng) >= ops {
		if time.Now().After(truncDeadline) {
			t.Fatalf("server never truncated its message log (%d retained)", retainedLen(serverEng))
		}
		time.Sleep(15 * time.Millisecond)
	}

	joiner := newTestReplica(t, 2)
	joinerEng, err := NewEngine(2, joiner,
		WithSyncInterval(15*time.Millisecond),
		WithSnapshotThreshold(16))
	if err != nil {
		t.Fatal(err)
	}
	defer joinerEng.Stop()

	a, b := ChanPair(256)
	serverEng.Connect(a)
	joinerEng.Connect(b)

	deadline := time.Now().Add(30 * time.Second)
	want := server.content()
	for joiner.content() != want || joinerEng.Clock().Get(1) != uint64(ops) {
		if time.Now().After(deadline) {
			t.Fatalf("joiner did not converge: len %d of %d, %d snapshots installed",
				joiner.len(), server.len(), joinerEng.SnapshotsInstalled())
		}
		time.Sleep(15 * time.Millisecond)
	}
	if got := joinerEng.SnapshotsInstalled(); got == 0 {
		t.Fatal("joiner converged without installing a snapshot")
	}
	if n := snapDataLen(serverEng); n >= 0 && n <= 2*snapChunkPayload {
		t.Fatalf("barrier snapshot is %d bytes; the test did not exercise multi-chunk reassembly (chunk payload %d)",
			n, snapChunkPayload)
	}
	if err := joiner.check(); err != nil {
		t.Fatal(err)
	}
	if err := joinerEng.Err(); err != nil {
		t.Fatal(err)
	}
	if err := serverEng.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestFlattenLockReleasedBySnapshotAbsorption pins the recovery path for
// a Yes-vote lock whose committed OpFlatten never arrives as an
// operation frame: once a commit decision has named the op's stamp, the
// covered-lock sweep must release the lock as soon as the local clock
// covers it — e.g. after an installed snapshot absorbed the flatten —
// instead of freezing the region forever.
func TestFlattenLockReleasedBySnapshotAbsorption(t *testing.T) {
	r := newTestReplica(t, 2)
	e, err := NewEngine(2, r)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()

	done := make(chan struct{})
	e.ctl(func() {
		defer close(done)
		// A committed round at coordinator site 7 whose op frame was lost:
		// this participant holds a commit-known lock for op seq 3.
		tx := txID{coord: 7, n: 41}
		e.fl.locks[tx] = &heldLock{tok: 1, obs: e.buf.Clock(), lastPing: e.now(), commitKnown: true, opSeq: 3}
		e.releaseCoveredLocks()
		if len(e.fl.locks) != 1 {
			t.Error("lock released before the clock covered the flatten")
		}
		// The flatten epoch arrives inside a snapshot: the clock advances
		// past (7, 3) without the op ever being delivered.
		e.buf.Advance(vclock.VC{7: 3})
		e.releaseCoveredLocks()
		if len(e.fl.locks) != 0 {
			t.Error("lock leaked after the clock covered the committed flatten")
		}
	})
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("actor closure never ran")
	}
}

// TestSnapChunkAssemblyResists exercises the reassembly guards directly:
// stale chunks, gaps, and mismatched totals void the assembly instead of
// corrupting it.
func TestSnapChunkAssemblyResists(t *testing.T) {
	r := newTestReplica(t, 9)
	e, err := NewEngine(9, r)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()

	version := vclock.VC{3: 5}
	done := make(chan struct{})
	e.ctl(func() {
		defer close(done)
		// A mid-stream chunk with no assembly in progress is dropped.
		e.handleSnapChunk(&SnapChunkFrame{From: 3, Version: version, Total: 100, Offset: 50, Data: make([]byte, 10)})
		if len(e.snapAsm) != 0 {
			t.Error("mid-stream chunk started an assembly")
		}
		// A proper start is retained…
		e.handleSnapChunk(&SnapChunkFrame{From: 3, Version: version, Total: 100, Offset: 0, Data: make([]byte, 40)})
		if len(e.snapAsm) != 1 {
			t.Error("offset-0 chunk did not start an assembly")
		}
		// …a gap voids it…
		e.handleSnapChunk(&SnapChunkFrame{From: 3, Version: version, Total: 100, Offset: 80, Data: make([]byte, 10)})
		if len(e.snapAsm) != 0 {
			t.Error("gapped chunk did not void the assembly")
		}
		// …and a mismatched total on a restart voids it too.
		e.handleSnapChunk(&SnapChunkFrame{From: 3, Version: version, Total: 100, Offset: 0, Data: make([]byte, 40)})
		e.handleSnapChunk(&SnapChunkFrame{From: 3, Version: version, Total: 90, Offset: 40, Data: make([]byte, 10)})
		if len(e.snapAsm) != 0 {
			t.Error("total mismatch did not void the assembly")
		}
	})
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("actor closure never ran")
	}
}
