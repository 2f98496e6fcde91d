package transport

// End-to-end chunked snapshot catch-up: the chunk payload is shrunk so an
// ordinary test document spans many chunks, and a late joiner must
// reassemble the snapshot from chunk frames before installing it.

import (
	"errors"
	"testing"
	"time"

	"github.com/treedoc/treedoc/internal/causal"
	"github.com/treedoc/treedoc/internal/core"
	"github.com/treedoc/treedoc/internal/ident"
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
				joiner.len(), server.len(), joinerEng.Stats().SnapshotsInstalled)
		}
		time.Sleep(15 * time.Millisecond)
	}
	if got := joinerEng.Stats().SnapshotsInstalled; got == 0 {
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

// TestFlattenLockReleasedBySnapshotAbsorption: a member whose round's
// decision reaches it inside an installed snapshot, not as an operation,
// takes the snapshot's pending rounds — here none — with it, so the lock
// goes with the install instead of freezing the region for good.
func TestFlattenLockReleasedBySnapshotAbsorption(t *testing.T) {
	author := newTestReplica(t, 7)
	var msgs []causal.Message
	stamp := func(op core.Op, err error) {
		if err != nil {
			t.Fatal(err)
		}
		msgs = append(msgs, causal.Message{From: 7, TS: vclock.VC{7: op.Seq}, Payload: op})
	}
	stamp(author.doc.InsertAt(0, "a"))
	stamp(author.doc.FlattenOp(core.OpIntent, ident.Path{}, 1))
	r := newTestReplica(t, 2)
	s, err := NewStepper(2, r, func() time.Time { return time.UnixMilli(0) })
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	recv := s.Connect(&recLink{})
	recv(mustEncode(t, kindOps, &OpsFrame{Msgs: msgs}))
	if _, err := r.doc.InsertAt(0, "x"); !errors.Is(err, core.ErrRegionLocked) || len(r.doc.Intents()) != 1 {
		t.Fatalf("member with the intent applied: edit %v, %d locks", err, len(r.doc.Intents()))
	}
	if _, err := author.doc.FlattenOp(core.OpFlatten, ident.Path{}, 2); err != nil {
		t.Fatal(err)
	}
	data, version, err := author.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	recv(mustEncode(t, kindSnapChunk, &SnapChunkFrame{From: 7, Version: version, Total: uint64(len(data)), Data: data}))
	if got := s.Engine().Clock().Get(7); got != 3 || len(r.doc.Intents()) != 0 || r.content() != "a" {
		t.Fatalf("after the install: clock[7] %d, %d locks, %q; want 3, 0, \"a\"", got, len(r.doc.Intents()), r.content())
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
