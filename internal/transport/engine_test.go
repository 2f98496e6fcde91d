package transport

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/treedoc/treedoc/internal/causal"
	"github.com/treedoc/treedoc/internal/core"
	"github.com/treedoc/treedoc/internal/ident"
	"github.com/treedoc/treedoc/internal/storage"
	"github.com/treedoc/treedoc/internal/vclock"
)

// testReplica is the transport tests' one replica: a core.Document behind
// the lock the engine contract requires (the actor's calls may race the
// test goroutine's local edits), with the whole Replica contract. Its
// snapshot is the same atomic (state, version) pair the public Doc
// provides, in a minimal test-local encoding (the transport treats
// snapshot bytes as opaque) that carries the pending flatten rounds as the
// Doc's does. It notes the size of every batch it is handed, and refuses
// every op refuse names.
type testReplica struct {
	mu      sync.Mutex
	doc     *core.Document
	batches []int
	refuse  func(core.Op) bool
}

var _ Replica = (*testReplica)(nil)

func newTestReplica(t testing.TB, site ident.SiteID) *testReplica {
	t.Helper()
	doc, err := core.NewDocument(core.Config{Site: site})
	if err != nil {
		t.Fatal(err)
	}
	return &testReplica{doc: doc}
}

func (r *testReplica) ApplyBatch(ops []core.Op) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.batches = append(r.batches, len(ops))
	for i, op := range ops {
		if r.refuse != nil && r.refuse(op) {
			return i, fmt.Errorf("testReplica: refused s%d#%d", op.Site, op.Seq)
		}
		if err := r.doc.Apply(op); err != nil {
			return i, err
		}
	}
	return len(ops), nil
}

func (r *testReplica) Snapshot() ([]byte, vclock.VC, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	buf := binary.AppendUvarint(nil, uint64(r.doc.Site()))
	buf = binary.AppendUvarint(buf, r.doc.Seq())
	buf = binary.AppendUvarint(buf, uint64(r.doc.Counter()))
	version := r.doc.Version()
	buf = binary.AppendUvarint(buf, uint64(len(version)))
	for s, n := range version {
		buf = binary.AppendUvarint(buf, uint64(s))
		buf = binary.AppendUvarint(buf, n)
	}
	intents := r.doc.Intents()
	buf = binary.AppendUvarint(buf, uint64(len(intents)))
	for _, op := range intents {
		buf = op.AppendBinary(buf)
	}
	return append(buf, storage.Encode(r.doc.Tree())...), version, nil
}

func (r *testReplica) InstallSnapshot(data []byte) (vclock.VC, error) {
	var head [3]uint64 // site, seq, counter
	off := 0
	uvarint := func(what string) (uint64, error) {
		v, n := binary.Uvarint(data[off:])
		if n <= 0 {
			return 0, fmt.Errorf("testReplica: bad %s", what)
		}
		off += n
		return v, nil
	}
	for i, what := range []string{"site", "seq", "counter"} {
		v, err := uvarint(what)
		if err != nil {
			return nil, err
		}
		head[i] = v
	}
	cnt, err := uvarint("version count")
	if err != nil {
		return nil, err
	}
	version := vclock.New()
	for i := uint64(0); i < cnt; i++ {
		s, err := uvarint("version site")
		if err != nil {
			return nil, err
		}
		if version[ident.SiteID(s)], err = uvarint("version seq"); err != nil {
			return nil, err
		}
	}
	cnt, err = uvarint("intent count")
	if err != nil {
		return nil, err
	}
	intents := make([]core.Op, cnt)
	for i := range intents {
		var n int
		if intents[i], n, err = core.DecodeOp(data[off:]); err != nil {
			return nil, err
		}
		off += n
	}
	tree, err := storage.Decode(data[off:])
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.doc.InstallSnapshot(tree, version, ident.SiteID(head[0]), head[1], uint32(head[2]), intents); err != nil {
		return nil, err
	}
	return r.doc.Version(), nil
}

func (r *testReplica) Version() vclock.VC {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.doc.Version()
}

func (r *testReplica) FlattenOp(kind core.OpKind, path ident.Path, afterSeq uint64) (core.Op, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.doc.FlattenOp(kind, path, afterSeq)
}

func (r *testReplica) Intents() []core.Op {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.doc.Intents()
}

func (r *testReplica) ColdestSubtree(revisions int64, minNodes int) ident.Path {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.doc.ColdestSubtree(revisions, minNodes)
}

func (r *testReplica) insertAt(t testing.TB, i int, atom string) core.Op {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	op, err := r.doc.InsertAt(i, atom)
	if err != nil {
		t.Fatal(err)
	}
	return op
}

func (r *testReplica) deleteAt(t testing.TB, i int) core.Op {
	r.mu.Lock()
	defer r.mu.Unlock()
	op, err := r.doc.DeleteAt(i)
	if err != nil {
		t.Fatal(err)
	}
	return op
}

func (r *testReplica) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.doc.Len()
}

func (r *testReplica) content() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.doc.ContentString()
}

func (r *testReplica) seq() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.doc.Seq()
}

func (r *testReplica) check() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.doc.Check()
}

// waitConverged polls until every engine reports the same clock, failing
// the test at the deadline. Equal clocks mean every stamped operation has
// been delivered (and therefore applied) everywhere.
func waitConverged(t testing.TB, engines []*Engine, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		same := true
		first := engines[0].Clock()
		for _, e := range engines[1:] {
			c := e.Clock()
			if len(c) != len(first) {
				same = false
				break
			}
			for s, n := range first {
				if c.Get(s) != n {
					same = false
					break
				}
			}
			if !same {
				break
			}
		}
		if same && len(first) > 0 {
			return
		}
		if time.Now().After(deadline) {
			clocks := ""
			for _, e := range engines {
				clocks += fmt.Sprintf(" s%d=%v", e.Site(), e.Clock())
			}
			t.Fatalf("engines did not converge within %v:%s", timeout, clocks)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func stopAll(engines ...*Engine) {
	for _, e := range engines {
		e.Stop()
	}
}

func checkAll(t testing.TB, replicas ...*testReplica) {
	t.Helper()
	want := replicas[0].content()
	for i, r := range replicas[1:] {
		if got := r.content(); got != want {
			t.Fatalf("replica %d diverged:\n got %q\nwant %q", i+1, got, want)
		}
		if err := r.check(); err != nil {
			t.Fatal(err)
		}
	}
	if err := replicas[0].check(); err != nil {
		t.Fatal(err)
	}
}

func TestEnginePairConvergesOverChanLink(t *testing.T) {
	r1, r2 := newTestReplica(t, 1), newTestReplica(t, 2)
	e1, err := NewEngine(1, r1, WithSyncInterval(10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	e2, err := NewEngine(2, r2, WithSyncInterval(10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer stopAll(e1, e2)
	a, b := ChanPair(64)
	e1.Connect(a)
	e2.Connect(b)

	for i := 0; i < 50; i++ {
		if err := e1.Broadcast(r1.insertAt(t, r1.len(), fmt.Sprintf("one-%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := e2.Broadcast(r2.insertAt(t, 0, fmt.Sprintf("two-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := e1.Broadcast(r1.deleteAt(t, 0)); err != nil {
		t.Fatal(err)
	}

	waitConverged(t, []*Engine{e1, e2}, 10*time.Second)
	checkAll(t, r1, r2)
	if err := e1.Err(); err != nil {
		t.Fatal(err)
	}
	if err := e2.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestLateJoinerCatchesUpViaAntiEntropy(t *testing.T) {
	r1 := newTestReplica(t, 1)
	e1, err := NewEngine(1, r1, WithSyncInterval(10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer e1.Stop()
	for i := 0; i < 200; i++ {
		if err := e1.Broadcast(r1.insertAt(t, i, fmt.Sprintf("line-%d", i))); err != nil {
			t.Fatal(err)
		}
	}

	// The second replica connects only after all 200 edits happened: its
	// initial sync request pulls the whole history.
	r2 := newTestReplica(t, 2)
	e2, err := NewEngine(2, r2, WithSyncInterval(10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Stop()
	a, b := ChanPair(64)
	e1.Connect(a)
	e2.Connect(b)

	waitConverged(t, []*Engine{e1, e2}, 10*time.Second)
	checkAll(t, r1, r2)
	if got := r2.len(); got != 200 {
		t.Fatalf("late joiner has %d atoms, want 200", got)
	}
}

func TestEngineRelaysHistoryForThirdParty(t *testing.T) {
	// Chain topology 1—2—3: site 1's edits reach site 3 only through site
	// 2's retained log (sync replies retransmit relayed messages too).
	var replicas []*testReplica
	var engines []*Engine
	for site := ident.SiteID(1); site <= 3; site++ {
		r := newTestReplica(t, site)
		e, err := NewEngine(site, r, WithSyncInterval(10*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		replicas = append(replicas, r)
		engines = append(engines, e)
	}
	defer stopAll(engines...)
	a, b := ChanPair(64)
	engines[0].Connect(a)
	engines[1].Connect(b)
	c, d := ChanPair(64)
	engines[1].Connect(c)
	engines[2].Connect(d)

	for i := 0; i < 30; i++ {
		r, e := replicas[i%3], engines[i%3]
		if err := e.Broadcast(r.insertAt(t, r.len(), fmt.Sprintf("s%d-%d", e.Site(), i))); err != nil {
			t.Fatal(err)
		}
	}
	waitConverged(t, engines, 15*time.Second)
	checkAll(t, replicas...)
}

func TestEnginePairConvergesOverTCP(t *testing.T) {
	hub, err := ListenHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()

	r1, r2 := newTestReplica(t, 1), newTestReplica(t, 2)
	e1, err := NewEngine(1, r1, WithSyncInterval(10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	e2, err := NewEngine(2, r2, WithSyncInterval(10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer stopAll(e1, e2)
	for _, e := range []*Engine{e1, e2} {
		link, err := DialDoc(hub.Addr().String(), "pair")
		if err != nil {
			t.Fatal(err)
		}
		e.Connect(link)
	}

	for i := 0; i < 100; i++ {
		if err := e1.Broadcast(r1.insertAt(t, r1.len(), fmt.Sprintf("a%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := e2.Broadcast(r2.insertAt(t, 0, fmt.Sprintf("b%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	waitConverged(t, []*Engine{e1, e2}, 15*time.Second)
	checkAll(t, r1, r2)
	if hub.Stats().Relays == 0 {
		t.Fatal("hub relayed nothing; traffic bypassed TCP")
	}
}

func TestBroadcastAfterStop(t *testing.T) {
	r := newTestReplica(t, 1)
	e, err := NewEngine(1, r)
	if err != nil {
		t.Fatal(err)
	}
	e.Stop()
	e.Stop() // idempotent
	if err := e.Broadcast(r.insertAt(t, 0, "x")); err != ErrStopped {
		t.Fatalf("Broadcast after Stop = %v, want ErrStopped", err)
	}
	if c := e.Clock(); c != nil {
		t.Fatalf("Clock after Stop = %v, want nil", c)
	}
}

func TestHostileCausalGapIsBounded(t *testing.T) {
	// Wire-valid messages with a permanent causal gap must not pin
	// unbounded memory: the engine prunes the causal backlog at maxPending
	// and counts the evictions, and legitimate traffic keeps flowing.
	r := newTestReplica(t, 1)
	e, err := NewEngine(1, r, WithSyncInterval(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	a, b := ChanPair(256)
	e.Connect(a)

	hostile := newTestReplica(t, 7)
	op := hostile.insertAt(t, 0, "x")
	const extra = 512
	var batch []causal.Message
	for i := 0; i < maxPending+extra; i++ {
		// Own stamp starts at 2: seq 1 never arrives, so nothing delivers.
		batch = append(batch, causal.Message{From: 7, TS: vclock.VC{7: uint64(i) + 2}, Payload: op})
		if len(batch) == syncChunk {
			frame, err := EncodeOps(batch)
			if err != nil {
				t.Fatal(err)
			}
			if err := b.Send(frame); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	if len(batch) > 0 {
		frame, err := EncodeOps(batch)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Send(frame); err != nil {
			t.Fatal(err)
		}
	}

	// Generous deadline: ~17k undeliverable messages are slow to ingest
	// under -race on a single-CPU machine.
	deadline := time.Now().Add(120 * time.Second)
	for e.Stats().Pruned < extra {
		if time.Now().After(deadline) {
			t.Fatalf("backlog not pruned: pruned=%d", e.Stats().Pruned)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Backlog pruning is load shedding, not a wire error: the frames were
	// valid, so the error counter must not conflate them.
	if n := e.Stats().WireErrs; n != 0 {
		t.Errorf("pruning inflated wireErrs to %d", n)
	}

	// A legitimate message from another site still applies immediately.
	legit := newTestReplica(t, 9)
	frame, err := EncodeOps([]causal.Message{{From: 9, TS: vclock.VC{9: 1}, Payload: legit.insertAt(t, 0, "ok")}})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Send(frame); err != nil {
		t.Fatal(err)
	}
	for e.Stats().Applied == 0 {
		if time.Now().After(deadline) {
			t.Fatal("legitimate op not applied after hostile flood")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestConnectStopRace(t *testing.T) {
	// Connect racing Stop must neither panic the WaitGroup nor leak
	// goroutines past Stop; run many interleavings under -race.
	for i := 0; i < 50; i++ {
		r := newTestReplica(t, 1)
		e, err := NewEngine(1, r)
		if err != nil {
			t.Fatal(err)
		}
		a, b := ChanPair(4)
		done := make(chan struct{})
		go func() {
			e.Connect(a)
			close(done)
		}()
		e.Stop()
		<-done
		b.Close()
	}
}

func TestChanLinkBackpressureAndClose(t *testing.T) {
	a, b := ChanPair(1)
	if err := a.Send([]byte{1}); err != nil {
		t.Fatal(err)
	}
	// Queue full: a second Send must block until the peer reads.
	done := make(chan error, 1)
	go func() {
		done <- a.Send([]byte{2})
	}()
	select {
	case err := <-done:
		t.Fatalf("Send on full queue returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	if f, err := b.Recv(); err != nil || f[0] != 1 {
		t.Fatalf("Recv = %v, %v", f, err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	b.Close()
	if err := a.Send([]byte{3}); err == nil {
		t.Fatal("Send after close succeeded")
	}
	if _, err := a.Recv(); err == nil {
		// one buffered frame may drain first
		if _, err := a.Recv(); err == nil {
			t.Fatal("Recv after close and drain succeeded")
		}
	}
}
