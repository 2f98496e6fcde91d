package transport

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/treedoc/treedoc/internal/causal"
	"github.com/treedoc/treedoc/internal/core"
	"github.com/treedoc/treedoc/internal/ident"
	"github.com/treedoc/treedoc/internal/vclock"
)

// recLink is a stepping driver's link reduced to its queue.
type recLink struct{ frames [][]byte }

func (l *recLink) Send(frame []byte) error { l.frames = append(l.frames, frame); return nil }
func (l *recLink) Recv() ([]byte, error)   { panic("a stepped engine never calls Recv") }
func (l *recLink) Close() error            { return nil }

// TestStepperRunsOnlyWhenStepped: a stepped engine has no goroutines and
// no wall clock. Every call runs to completion on the caller, frames come
// out of Link.Send as they are produced, and the sync duties wait for Tick
// — at whatever time the driver's clock says.
func TestStepperRunsOnlyWhenStepped(t *testing.T) {
	before := runtime.NumGoroutine()
	now := time.UnixMilli(0)
	clock := func() time.Time { return now }
	ra, rb := newSnapReplica(t, 1), newSnapReplica(t, 2)
	sa, err := NewStepper(1, ra, clock, WithSyncInterval(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	sb, err := NewStepper(2, rb, clock, WithSyncInterval(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	ab, ba := &recLink{}, &recLink{}
	toA, toB := sa.Connect(ab), sb.Connect(ba)
	if got := runtime.NumGoroutine(); got != before {
		t.Fatalf("%d goroutines after building two stepped engines, %d before", got, before)
	}
	if len(ab.frames) != 1 || !IsDigest(ab.frames[0]) {
		t.Fatalf("Connect sent %d frames, want the opening digest", len(ab.frames))
	}
	ab.frames, ba.frames = nil, nil

	op, err := ra.doc.InsertAt(0, "x")
	if err != nil {
		t.Fatal(err)
	}
	if err := sa.Engine().Broadcast(op); err != nil {
		t.Fatal(err)
	}
	if len(ab.frames) != 1 || !IsLiveOps(ab.frames[0]) {
		t.Fatalf("Broadcast left %d frames on the link, want the op, framed inline", len(ab.frames))
	}
	toB(ab.frames[0])
	if got := sb.Engine().Clock().Get(1); got != 1 || rb.doc.Len() != 1 {
		t.Fatalf("site 2 clock[1]=%d len=%d after the frame was handed over", got, rb.doc.Len())
	}

	// Ten sync intervals of the driver's clock: the keepalive digest goes
	// out on the tick that reaches it, not before.
	ba.frames = nil
	for i := 1; i <= keepaliveTicks; i++ {
		now = now.Add(time.Second)
		sb.Tick()
		if want := i == keepaliveTicks; (len(ba.frames) == 1) != want {
			t.Fatalf("tick %d: %d frames on the link", i, len(ba.frames))
		}
	}
	toA(ba.frames[0]) // covers everything site 1 has: no answer
	if len(ab.frames) != 1 {
		t.Fatalf("a digest with nothing missing drew %d frames", len(ab.frames)-1)
	}

	sa.Stop()
	sb.Stop()
	if err := sa.Engine().Broadcast(op); err != ErrStopped {
		t.Fatalf("Broadcast after Stop: %v", err)
	}
}

// TestFarBehindPullsBySnapshot: a replica never asks for a snapshot. One
// that hears a digest far ahead of it pulls with its ordinary gap digest
// once the gap outlives the grace, and the answering engine, seeing the
// distance in that digest, answers with its barrier snapshot.
func TestFarBehindPullsBySnapshot(t *testing.T) {
	now := time.UnixMilli(0)
	clock := func() time.Time { return now }
	ra, rb := newSnapReplica(t, 1), newSnapReplica(t, 2)
	opts := []Option{WithSyncInterval(time.Second), WithSnapshotThreshold(4)}
	sa, err := NewStepper(1, ra, clock, opts...)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := NewStepper(2, rb, clock, opts...)
	if err != nil {
		t.Fatal(err)
	}
	ab, ba := &recLink{}, &recLink{}
	toA, toB := sa.Connect(ab), sb.Connect(ba)
	for i := 0; i < 10; i++ {
		if err := sa.Engine().Broadcast(ra.insertAt(t, i, "x")); err != nil {
			t.Fatal(err)
		}
	}
	ab.frames, ba.frames = nil, nil // the opening digests, and every op frame lost
	digest, err := EncodeSyncReq(1, sa.Engine().Clock())
	if err != nil {
		t.Fatal(err)
	}
	toB(digest)
	for tick := 1; !vcEqual(sb.Engine().Clock(), sa.Engine().Clock()); tick++ {
		if tick > gapGraceTicks+1 {
			t.Fatalf("site 2 at %v after %d ticks, site 1 at %v", sb.Engine().Clock(), tick-1, sa.Engine().Clock())
		}
		now = now.Add(time.Second)
		sb.Tick()
		for _, f := range ba.frames {
			if !IsDigest(f) {
				t.Fatalf("tick %d: the replica behind sent a frame of kind %#x", tick, f[0])
			}
			toA(f)
		}
		for _, f := range ab.frames {
			toB(f)
		}
		ab.frames, ba.frames = nil, nil
	}
	if n := sb.Engine().SnapshotsInstalled(); n != 1 {
		t.Fatalf("caught up with %d snapshots installed, want 1", n)
	}
}

// barrierServer is a stepped site 1 holding two generations of barrier —
// ops 1–3 below the truncation floor, 4–6 between floor and barrier, 7–8
// above the barrier — all settled past the replay horizon, and a pull
// that hands it one digest and returns the answer's frames, decoded.
func barrierServer(t *testing.T, opts ...Option) (pull func(from ident.SiteID, clock vclock.VC) []any) {
	t.Helper()
	r := newSnapReplica(t, 1)
	s, err := NewStepper(1, r, func() time.Time { return time.UnixMilli(0) }, append([]Option{WithSyncInterval(time.Second)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	e, link := s.Engine(), &recLink{}
	receive := s.Connect(link)
	for i := 0; i < 8; i++ {
		if err := e.Broadcast(r.insertAt(t, i, "x")); err != nil {
			t.Fatal(err)
		}
		if (i == 2 || i == 5) && !e.compactNow() {
			t.Fatal("compaction refused")
		}
	}
	s.Tick()
	s.Tick()
	if !vcEqual(e.truncVC, vclock.VC{1: 3}) || !vcEqual(e.snapVC, vclock.VC{1: 6}) {
		t.Fatalf("floor %v, barrier %v", e.truncVC, e.snapVC)
	}
	return func(from ident.SiteID, clock vclock.VC) []any {
		digest, err := EncodeSyncReq(from, clock)
		if err != nil {
			t.Fatal(err)
		}
		link.frames = nil
		receive(digest)
		var out []any
		for _, f := range link.frames {
			decoded, err := DecodeFrame(f)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, decoded)
		}
		return out
	}
}

// replayed lists the sequence numbers the answer's kindOps frames carry.
func replayed(answer []any) []uint64 {
	var seqs []uint64
	for _, f := range answer {
		if ops, ok := f.(*OpsFrame); ok {
			for _, m := range ops.Msgs {
				seqs = append(seqs, m.TS.Get(m.From))
			}
		}
	}
	return seqs
}

// TestSnapshotAnswerShipsOnlyWhatLiesAbove: a requester below the floor
// installs the barrier snapshot, so the ops after it start above the
// barrier — not at the requester's clock, which would ship everything
// between floor and barrier twice, once inside the snapshot.
func TestSnapshotAnswerShipsOnlyWhatLiesAbove(t *testing.T) {
	answer := barrierServer(t)(2, vclock.New())
	if _, ok := answer[0].(*SnapChunkFrame); !ok {
		t.Fatalf("answer opens with %T, want the barrier snapshot", answer[0])
	}
	if got := replayed(answer); !reflect.DeepEqual(got, []uint64{7, 8}) {
		t.Fatalf("snapshot at {1:6} followed by ops %v, want [7 8]", got)
	}
}

// TestBelowFloorNeverDrawsReplay: the barrier goes to one link at most
// once per snapResendAfter. A second requester below the floor pulling
// through the same link in that window gets nothing — without the ops
// below the floor, none above it could deliver — while one above the
// floor still gets plain op replay.
func TestBelowFloorNeverDrawsReplay(t *testing.T) {
	pull := barrierServer(t, WithSnapshotThreshold(2))
	if answer := pull(2, vclock.New()); len(answer) == 0 {
		t.Fatal("first requester below the floor drew no answer")
	}
	if answer := pull(3, vclock.New()); len(answer) != 0 {
		t.Fatalf("second requester below the floor drew %d frames (ops %v)", len(answer), replayed(answer))
	}
	if got := replayed(pull(4, vclock.VC{1: 4})); !reflect.DeepEqual(got, []uint64{5, 6, 7, 8}) {
		t.Fatalf("requester above the floor drew ops %v, want [5 6 7 8]", got)
	}
}

// batchReplica is a snapReplica that takes runs whole and notes their sizes.
type batchReplica struct {
	*snapReplica
	batches []int
}

func (r *batchReplica) ApplyBatch(ops []core.Op) (int, error) {
	r.batches = append(r.batches, len(ops))
	for i, op := range ops {
		if err := r.Apply(op); err != nil {
			return i, err
		}
	}
	return len(ops), nil
}

// TestFrameIsOneBatch: a frame's messages enter the causal buffer together
// and what they make deliverable is applied as one run — an in-order frame
// of N ops is a single ApplyBatch of N, not N single applies. An op that
// fails mid-frame latches the error and the rest of the frame still applies.
func TestFrameIsOneBatch(t *testing.T) {
	const n, bad = 16, 9
	frame := func(spoil bool) []byte {
		w, stamp := newSnapReplica(t, 1), causal.NewBuffer(1)
		var msgs []causal.Message
		for i := 0; i < n; i++ {
			op := w.insertAt(t, i, "x")
			if spoil && i == bad {
				op.ID = msgs[3].Payload.(core.Op).ID // a live atom holds it: Apply refuses
			}
			msgs = append(msgs, stamp.Stamp(op))
		}
		f, err := EncodeOps(msgs)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	for _, tc := range []struct {
		name    string
		spoil   bool
		batches []int
		length  int
	}{
		{"in order", false, []int{n}, n},
		{"one op fails", true, []int{n, n - bad - 1}, n - 1},
	} {
		r := &batchReplica{snapReplica: newSnapReplica(t, 2)}
		s, err := NewStepper(2, r, func() time.Time { return time.UnixMilli(0) })
		if err != nil {
			t.Fatal(err)
		}
		s.Connect(&recLink{})(frame(tc.spoil))
		if !reflect.DeepEqual(r.batches, tc.batches) || r.length() != tc.length {
			t.Errorf("%s: ApplyBatch runs %v, %d atoms; want %v, %d", tc.name, r.batches, r.length(), tc.batches, tc.length)
		}
		if got := s.Engine().Clock().Get(1); got != n {
			t.Errorf("%s: clock[1] = %d, want %d", tc.name, got, n)
		}
		if err := s.Engine().Err(); (err != nil) != tc.spoil {
			t.Errorf("%s: latched error %v", tc.name, err)
		}
		s.Stop()
	}
}

// TestStoppedEngineIsCollectable: Stop over a link that is still open must
// not leave the engine — and its retained log — reachable from a runtime
// timer for stopDrainTimeout. The far end keeps the link's pipe alive, as
// a hub or a peer engine would.
func TestStoppedEngineIsCollectable(t *testing.T) {
	a, b := ChanPair(8)
	defer b.Close()
	collected := make(chan struct{})
	func() {
		// The finalizer sits on the replica: only the engine points to it,
		// and unlike the engine it is in no reference cycle (a finalizer on
		// a member of a cycle is not guaranteed to run).
		r := newSnapReplica(t, 1)
		runtime.SetFinalizer(r, func(*snapReplica) { close(collected) })
		e, err := NewEngine(1, r)
		if err != nil {
			t.Fatal(err)
		}
		e.Connect(a)
		if err := e.Broadcast(core.Op{Kind: core.OpInsert, Site: 1, Seq: 1, ID: ident.Pack(ident.Path{ident.M(0, ident.Dis{Site: 1})}), Atom: "x"}); err != nil {
			t.Fatal(err)
		}
		e.Stop()
	}()
	a = nil
	deadline := time.After(stopDrainTimeout / 2)
	for {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-deadline:
			t.Fatalf("engine still reachable %v after Stop", stopDrainTimeout/2)
		case <-time.After(10 * time.Millisecond):
		}
	}
}
