package transport

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
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
	ra, rb := newTestReplica(t, 1), newTestReplica(t, 2)
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
	if len(ab.frames) != 1 || ab.frames[0][0] != kindSyncReq {
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
	ra, rb := newTestReplica(t, 1), newTestReplica(t, 2)
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
			if f[0] != kindSyncReq {
				t.Fatalf("tick %d: the replica behind sent a frame of kind %#x", tick, f[0])
			}
			toA(f)
		}
		for _, f := range ab.frames {
			toB(f)
		}
		ab.frames, ba.frames = nil, nil
	}
	if n := sb.Engine().Stats().SnapshotsInstalled; n != 1 {
		t.Fatalf("caught up with %d snapshots installed, want 1", n)
	}
}

// barrierServer is a stepped site 1 with a barrier at op 6 and a member,
// site 9, that has acknowledged ops 1–3 — so ops 1–3 lie below the
// truncation floor, 4–6 between floor and barrier, and 7–8 above the
// barrier, all settled past the replay horizon — and a pull that hands it
// one digest and returns the answer's frames, decoded.
func barrierServer(t *testing.T, opts ...Option) (pull func(from ident.SiteID, clock vclock.VC) []any) {
	t.Helper()
	r := newTestReplica(t, 1)
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
		if i == 2 {
			ack, err := EncodeSyncReq(9, e.Clock())
			if err != nil {
				t.Fatal(err)
			}
			receive(ack)
		}
		if i == 5 && !e.compactNow() {
			t.Fatal("compaction refused")
		}
	}
	s.Tick()
	s.Tick()
	if !vcEqual(e.truncVC, vclock.VC{1: 3}) || !vcEqual(e.snapVC, vclock.VC{1: 6}) {
		t.Fatalf("floor %v, barrier %v", e.truncVC, e.snapVC)
	}
	return func(from ident.SiteID, clock vclock.VC) []any { return pullAnswer(t, receive, link, from, clock) }
}

// pullAnswer hands a stepped engine one digest on its link and returns the
// answer's frames, decoded.
func pullAnswer(t *testing.T, receive func([]byte), link *recLink, from ident.SiteID, clock vclock.VC) []any {
	t.Helper()
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

// TestBelowFloorNeverDrawsReplay: the barrier goes to each requester at
// most once per snapResendAfter, however many share the link. Pulling
// again below the floor in that window draws nothing — without the ops
// below the floor, none above it could deliver — while a pull from above
// the floor still gets plain op replay.
func TestBelowFloorNeverDrawsReplay(t *testing.T) {
	pull := barrierServer(t, WithSnapshotThreshold(2))
	for _, site := range []ident.SiteID{2, 3} {
		if answer := pull(site, vclock.New()); len(answer) == 0 {
			t.Fatalf("site %d below the floor drew no answer", site)
		} else if _, ok := answer[0].(*SnapChunkFrame); !ok {
			t.Fatalf("site %d below the floor drew %T first, want the snapshot", site, answer[0])
		}
	}
	if answer := pull(2, vclock.New()); len(answer) != 0 {
		t.Fatalf("a repeated pull below the floor drew %d frames (ops %v)", len(answer), replayed(answer))
	}
	if got := replayed(pull(2, vclock.VC{1: 4})); !reflect.DeepEqual(got, []uint64{5, 6, 7, 8}) {
		t.Fatalf("the requester above the floor drew ops %v, want [5 6 7 8]", got)
	}
}

// TestAnswersStopAtTheSettleHorizon: a digest answer carries every
// message delivered two ticks ago or earlier and nothing younger — the
// younger frames are presumed still in flight on the relay path.
func TestAnswersStopAtTheSettleHorizon(t *testing.T) {
	r := newTestReplica(t, 1)
	s, err := NewStepper(1, r, func() time.Time { return time.UnixMilli(0) }, WithSyncInterval(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	link := &recLink{}
	receive := s.Connect(link)
	for i := 1; i <= 5; i++ {
		if err := s.Engine().Broadcast(r.insertAt(t, i-1, "x")); err != nil {
			t.Fatal(err)
		}
		var want []uint64
		for seq := uint64(1); seq+2 <= uint64(i); seq++ {
			want = append(want, seq)
		}
		if got := replayed(pullAnswer(t, receive, link, 2, vclock.New())); !reflect.DeepEqual(got, want) {
			t.Fatalf("op %d stamped: the answer carried %v, want %v", i, got, want)
		}
		s.Tick()
	}
}

// TestTruncationKeepsTheSettleHorizon: a1, b1 and b2 settle, b3…b10
// arrive, and the next tick's compaction moves the floor to {b:10}. a1
// survives the truncation as old as it was, so a digest at {b:10} — above
// the floor, lacking only a1 — draws it. A horizon kept as a log position
// shifted down by the ten messages truncated and counted a1 young again.
func TestTruncationKeepsTheSettleHorizon(t *testing.T) {
	p := newStepPair(t, WithCompactEvery(11))
	a, b := p.s[0], p.s[1].Engine()
	write := func(n int) {
		for i := 0; i < n; i++ {
			if err := b.Broadcast(p.r[1].insertAt(t, p.r[1].len(), "b")); err != nil {
				t.Fatal(err)
			}
		}
		for _, f := range p.out[1].frames {
			p.recv[0](f)
		}
		p.out[1].frames = nil
	}
	if err := a.Engine().Broadcast(p.r[0].insertAt(t, 0, "a")); err != nil {
		t.Fatal(err)
	}
	write(2)
	a.Tick()
	a.Tick()
	write(8)
	a.Tick()
	p.out[0].frames = nil // b never hears a1
	if e := a.Engine(); !vcEqual(e.truncVC, vclock.VC{2: 10}) {
		t.Fatalf("floor %v, want {2:10}", e.truncVC)
	}
	if got := replayed(pullAnswer(t, p.recv[0], p.out[0], 3, vclock.VC{2: 10})); !reflect.DeepEqual(got, []uint64{1}) {
		t.Fatalf("a digest lacking a1 drew ops %v, want [1]", got)
	}
}

// stepPair is two stepped snapshot-capable replicas, sites 1 and 2, on one
// virtual clock; out[i] holds what site i+1 has sent and not yet had
// delivered, and recv[i] hands site i+1 a frame.
type stepPair struct {
	now  time.Time
	r    [2]*testReplica
	s    [2]*Stepper
	out  [2]*recLink
	recv [2]func(frame []byte)
}

func newStepPair(t *testing.T, opts ...Option) *stepPair {
	t.Helper()
	p := &stepPair{now: time.UnixMilli(0)}
	for i := range p.s {
		p.r[i] = newTestReplica(t, ident.SiteID(i+1))
		s, err := NewStepper(ident.SiteID(i+1), p.r[i], func() time.Time { return p.now }, append([]Option{WithSyncInterval(time.Second)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		p.s[i], p.out[i] = s, &recLink{}
		p.recv[i] = s.Connect(p.out[i])
	}
	return p
}

// tick advances the clock one sync interval and ticks both engines.
func (p *stepPair) tick() {
	p.now = p.now.Add(time.Second)
	p.s[0].Tick()
	p.s[1].Tick()
}

// exchange delivers what is in flight both ways until the links are quiet.
func (p *stepPair) exchange() {
	for len(p.out[0].frames)+len(p.out[1].frames) > 0 {
		for i, l := range p.out {
			frames := l.frames
			l.frames = nil
			for _, f := range frames {
				p.recv[1-i](f)
			}
		}
	}
}

func (p *stepPair) converged() bool {
	return vcEqual(p.s[0].Engine().Clock(), p.s[1].Engine().Clock()) && p.r[0].content() == p.r[1].content()
}

// TestLostFramesBothWaysHealAfterCompaction: each replica loses the op
// frame the other sent, then each compacts. Neither may truncate an op the
// other has not acknowledged, so the keepalive digests find both gaps and
// op replay closes them. A floor promoted on a timer dropped both ops
// before any digest asked for them: each replica then held an op the
// other's barrier lacked, so neither barrier installed, and the difference
// existed nowhere.
func TestLostFramesBothWaysHealAfterCompaction(t *testing.T) {
	p := newStepPair(t)
	p.exchange() // the opening digests
	if err := p.s[0].Engine().Broadcast(p.r[0].insertAt(t, 0, "a")); err != nil {
		t.Fatal(err)
	}
	p.exchange()
	for i, atom := range []string{"b", "c"} {
		if err := p.s[i].Engine().Broadcast(p.r[i].insertAt(t, 0, atom)); err != nil {
			t.Fatal(err)
		}
		if !p.s[i].Engine().compactNow() {
			t.Fatalf("site %d refused to compact", i+1)
		}
	}
	p.out[0].frames, p.out[1].frames = nil, nil // both op frames lost
	for tick := 1; !p.converged(); tick++ {
		if tick > 3*keepaliveTicks {
			t.Fatalf("still apart after %d ticks: site 1 at %v, site 2 at %v",
				tick-1, p.s[0].Engine().Clock(), p.s[1].Engine().Clock())
		}
		p.tick()
		p.exchange()
	}
	for i, s := range p.s {
		if n := s.Engine().Stats().SnapshotsInstalled; n != 0 {
			t.Errorf("site %d healed with %d snapshots, want op replay alone", i+1, n)
		}
	}
}

// writeTick has site 1 insert n atoms, then ticks both engines.
func (p *stepPair) writeTick(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := p.s[0].Engine().Broadcast(p.r[0].insertAt(t, 0, "x")); err != nil {
			t.Fatal(err)
		}
	}
	p.tick()
}

// TestSilentMemberIsDroppedAtTheCap: a member that stops acknowledging
// pins the floor for one generation of slack only: once a compaction's
// worth of messages has followed a barrier it has not reached, it is
// dropped from the frontier and counted, the log truncates to that
// barrier, and the member, back again, catches up by snapshot.
func TestSilentMemberIsDroppedAtTheCap(t *testing.T) {
	const capacity, perTick = 4, 5 // a generation a tick: every tick compacts
	p := newStepPair(t, WithCompactEvery(capacity))
	p.exchange() // site 2 acknowledges the empty clock, then falls silent
	e := p.s[0].Engine()
	for tick := 0; tick < 5; tick++ {
		p.writeTick(t, perTick)
		p.out[0].frames, p.out[1].frames = nil, nil
		if below := e.retained.Len() - e.sinceSnap; below > perTick {
			t.Fatalf("tick %d: %d retained messages below the barrier, one generation is %d", tick, below, perTick)
		}
	}
	if n := e.Stats().FrontierDrops; n != 1 {
		t.Fatalf("%d members dropped, want the silent one", n)
	}
	if !vcEqual(e.truncVC, e.snapVC) {
		t.Fatalf("floor %v stays below barrier %v with the silent member dropped", e.truncVC, e.snapVC)
	}
	for tick := 1; !p.converged(); tick++ {
		if tick > 3*keepaliveTicks {
			t.Fatalf("site 2 at %v after %d ticks, site 1 at %v", p.s[1].Engine().Clock(), tick-1, e.Clock())
		}
		p.tick()
		p.exchange()
	}
	if n := p.s[1].Engine().Stats().SnapshotsInstalled; n != 1 {
		t.Errorf("site 2 caught up with %d snapshots installed, want 1", n)
	}
}

// TestAckingMemberIsNeverDroppedUnderLoad: at a write rate that compacts
// every tick, a member that acknowledges every tick keeps its slack. The
// cap measures it against the barrier being replaced, which it has
// reached, never against the new one, which is the writer's own clock;
// the floor follows its acknowledgements, and it needs no snapshot.
func TestAckingMemberIsNeverDroppedUnderLoad(t *testing.T) {
	const capacity, perTick = 4, 5
	p := newStepPair(t, WithCompactEvery(capacity))
	p.exchange()
	e := p.s[0].Engine()
	for tick := 0; tick < 2*keepaliveTicks; tick++ {
		p.writeTick(t, perTick)
		p.exchange()
		// Site 2's own digests, with nothing to pull, wait out the
		// keepalive, which this rate outruns; it acknowledges every tick.
		ack, err := EncodeSyncReq(2, p.s[1].Engine().Clock())
		if err != nil {
			t.Fatal(err)
		}
		p.recv[0](ack)
		p.exchange()
		if below := e.retained.Len() - e.sinceSnap; below > perTick {
			t.Fatalf("tick %d: %d retained messages below the barrier, one generation is %d", tick, below, perTick)
		}
	}
	if n := e.Stats().FrontierDrops; n != 0 {
		t.Errorf("%d acknowledging members dropped, want 0", n)
	}
	if n := e.Stats().SnapshotsSent + p.s[1].Engine().Stats().SnapshotsInstalled; n != 0 {
		t.Errorf("%d snapshots sent or installed, want none", n)
	}
	if e.truncVC.Get(1) == 0 || !p.converged() {
		t.Fatalf("floor %v, site 1 at %v, site 2 at %v: want a risen floor and one state",
			e.truncVC, e.Clock(), p.s[1].Engine().Clock())
	}
}

// TestFrameIsOneBatch: a frame's messages enter the causal buffer together
// and what they make deliverable is applied as one run — an in-order frame
// of N ops is a single ApplyBatch of N, not N single applies. An op that
// fails mid-frame latches the error and the rest of the frame still applies.
func TestFrameIsOneBatch(t *testing.T) {
	const n, bad = 16, 9
	frame := func(spoil bool) []byte {
		w, stamp := newTestReplica(t, 1), causal.NewBuffer(1)
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
		r := newTestReplica(t, 2)
		s, err := NewStepper(2, r, func() time.Time { return time.UnixMilli(0) })
		if err != nil {
			t.Fatal(err)
		}
		s.Connect(&recLink{})(frame(tc.spoil))
		if !reflect.DeepEqual(r.batches, tc.batches) || r.len() != tc.length {
			t.Errorf("%s: ApplyBatch runs %v, %d atoms; want %v, %d", tc.name, r.batches, r.len(), tc.batches, tc.length)
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

// TestRefusedOpIsSkippedLiveAndOnReplay: live delivery and log replay share
// one apply loop. An op the replica refuses latches Err and is skipped, the
// rest of its run still applies, and its message counts as delivered; a
// restart over the same log directory replays to the same clock and content
// instead of aborting on it.
func TestRefusedOpIsSkippedLiveAndOnReplay(t *testing.T) {
	const n, bad = 16, 9 // bad is the refused op's sequence number
	w, stamp := newTestReplica(t, 1), causal.NewBuffer(1)
	var msgs []causal.Message
	var want []string
	for i := 0; i < n; i++ {
		atom := fmt.Sprintf("a%d", i)
		msgs = append(msgs, stamp.Stamp(w.insertAt(t, i, atom)))
		if i+1 != bad {
			want = append(want, atom)
		}
	}
	frame, err := EncodeOps(msgs)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	start := func(phase string) (*testReplica, *Stepper) {
		r := newTestReplica(t, 2)
		r.refuse = func(op core.Op) bool { return op.Site == 1 && op.Seq == bad }
		s, err := NewStepper(2, r, func() time.Time { return time.UnixMilli(0) }, WithLogDir(dir))
		if err != nil {
			t.Fatalf("%s: %v", phase, err)
		}
		return r, s
	}
	check := func(phase string, r *testReplica, s *Stepper) {
		t.Helper()
		if !reflect.DeepEqual(r.batches, []int{n, n - bad}) {
			t.Errorf("%s: ApplyBatch runs %v, want [%d %d]: the run resumes after the refused op", phase, r.batches, n, n-bad)
		}
		if got := r.content(); got != strings.Join(want, "\n") {
			t.Errorf("%s: content %q, want every atom but the refused one", phase, got)
		}
		if got := s.Engine().Clock().Get(1); got != n {
			t.Errorf("%s: clock[1] = %d, want %d", phase, got, n)
		}
		if s.Engine().Err() == nil {
			t.Errorf("%s: the refused op latched no error", phase)
		}
	}
	r, s := start("live")
	s.Connect(&recLink{})(frame)
	check("live", r, s)
	s.Stop()
	r, s = start("restart")
	defer s.Stop()
	check("restart", r, s)
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
		r := newTestReplica(t, 1)
		runtime.SetFinalizer(r, func(*testReplica) { close(collected) })
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

// TestClockPastTheBoundFailsLoudly: a vector clock encodes at most
// maxClockEntries sites. An engine that has delivered ops from one writer
// more than that can no longer encode a digest or stamp an op of its own;
// replication stops there, and it must say so: Err latches the first encode
// failure and EncodeErrs counts every frame that did not go out.
func TestClockPastTheBoundFailsLoudly(t *testing.T) {
	now := time.UnixMilli(0)
	r := newTestReplica(t, 1)
	s, err := NewStepper(1, r, func() time.Time { return now }, WithSyncInterval(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	link := &recLink{}
	receive := s.Connect(link)
	var msgs []causal.Message
	for site := ident.SiteID(2); site < maxClockEntries+3; site++ { // 4,097 writers
		op, err := newTestReplica(t, site).doc.InsertAt(0, "x")
		if err != nil {
			t.Fatal(err)
		}
		if msgs = append(msgs, causal.NewBuffer(site).Stamp(op)); len(msgs) == syncChunk || site == maxClockEntries+2 {
			frame, err := EncodeOps(msgs)
			if err != nil {
				t.Fatal(err)
			}
			receive(frame)
			msgs = msgs[:0]
		}
	}
	e := s.Engine()
	if n := len(e.Clock()); n != maxClockEntries+1 || r.len() != n || e.Err() != nil {
		t.Fatalf("delivered %d writers' ops (%d atoms), Err %v; want %d and nil", n, r.len(), e.Err(), maxClockEntries+1)
	}
	op, err := r.doc.InsertAt(0, "y")
	if err != nil {
		t.Fatal(err)
	}
	link.frames = nil
	if err := e.Broadcast(op); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().EncodeErrs; got != 1 || len(link.frames) != 0 || e.Err() == nil {
		t.Fatalf("an op stamped past the bound: %d encode errors, %d frames sent, Err %v; want 1, 0 and an error", got, len(link.frames), e.Err())
	}
	for range keepaliveTicks {
		now = now.Add(time.Second)
		s.Tick()
	}
	if got := e.Stats().EncodeErrs; got < 2 || len(link.frames) != 0 {
		t.Errorf("after a keepalive: %d encode errors, %d frames sent; want the digest counted and nothing sent", got, len(link.frames))
	}
	if !strings.Contains(e.Err().Error(), "encode") {
		t.Errorf("Err = %v, want the first encode failure", e.Err())
	}
}
