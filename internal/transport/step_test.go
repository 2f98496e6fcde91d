package transport

import (
	"runtime"
	"testing"
	"time"

	"github.com/treedoc/treedoc/internal/core"
	"github.com/treedoc/treedoc/internal/ident"
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
