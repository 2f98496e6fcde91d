package transport_test

// Live resharding suite: epoch-versioned ring membership, online document
// handoff between live hubs, forward-mode service for clients that do not
// re-point, and bounded redirect chasing under ring disagreement.
// Run under `go test -race`: handoffs race continuously writing clients.

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/treedoc/treedoc"
	"github.com/treedoc/treedoc/internal/serve"
	"github.com/treedoc/treedoc/internal/transport"
	"github.com/treedoc/treedoc/internal/transport/shardmap"
	"github.com/treedoc/treedoc/internal/vclock"
)

// hoWriter is one writer replica attached through a session link.
type hoWriter struct {
	id  treedoc.SiteID
	buf *treedoc.TextBuffer
	eng *treedoc.Engine
}

func newHOWriter(t testing.TB, id treedoc.SiteID, link treedoc.Link, opts ...treedoc.EngineOption) *hoWriter {
	t.Helper()
	buf, err := treedoc.NewTextBuffer(treedoc.WithSite(id))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := treedoc.NewEngine(id, buf, append([]treedoc.EngineOption{treedoc.WithSyncInterval(15 * time.Millisecond)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	eng.Connect(link)
	return &hoWriter{id: id, buf: buf, eng: eng}
}

// write floods n edits from this writer's goroutine, pacing slightly so a
// concurrent handoff interleaves with live traffic.
func (w *hoWriter) write(t testing.TB, n int, pace time.Duration) {
	rng := rand.New(rand.NewSource(int64(w.id)))
	for i := 0; i < n; i++ {
		l := w.buf.Len()
		var ops []treedoc.Op
		var err error
		if l > 0 && rng.Intn(6) == 0 {
			ops, err = w.buf.Delete(rng.Intn(l), 1)
		} else {
			ops, err = w.buf.Insert(rng.Intn(l+1), fmt.Sprintf("w%d.%d ", w.id, i))
		}
		if errors.Is(err, treedoc.ErrOutOfRange) {
			i--
			continue
		}
		if err != nil {
			t.Errorf("writer %d: %v", w.id, err)
			return
		}
		if err := w.eng.Broadcast(ops...); err != nil {
			t.Errorf("writer %d: %v", w.id, err)
			return
		}
		if pace > 0 {
			time.Sleep(pace)
		}
	}
}

// hoConverge polls until every engine reports the same delivered clock.
func hoConverge(t testing.TB, engines []*treedoc.Engine, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		same := true
		first := engines[0].Clock().String()
		for _, e := range engines[1:] {
			if e.Clock().String() != first {
				same = false
				break
			}
		}
		if same {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	clocks := make([]string, len(engines))
	for i, e := range engines {
		clocks[i] = e.Clock().String()
	}
	t.Fatalf("engines did not converge within %v: %v", timeout, clocks)
}

// archiveHub starts a hub whose ownership callback drives a production
// archive (internal/serve) logging under a temporary directory, its
// archivists' engines built with opts. delay holds each acquisition's
// archivist start back, as a new owner that restarts mid-handoff would.
func archiveHub(t testing.TB, delay time.Duration, opts ...treedoc.EngineOption) (*transport.Hub, *serve.Archive) {
	t.Helper()
	arch := serve.NewArchive(serve.Config{LogDir: t.TempDir()},
		append([]treedoc.EngineOption{treedoc.WithSyncInterval(15 * time.Millisecond)}, opts...)...)
	own := arch.Ownership
	if delay > 0 {
		own = func(doc string, epoch uint64, acquired bool) {
			if !acquired {
				arch.Ownership(doc, epoch, acquired)
				return
			}
			go func() {
				time.Sleep(delay)
				arch.Ownership(doc, epoch, acquired)
			}()
		}
	}
	hub, err := treedoc.ListenHub("127.0.0.1:0", transport.WithHubOwnership(own))
	if err != nil {
		t.Fatal(err)
	}
	arch.Bind(hub, "")
	t.Cleanup(func() {
		arch.StopAll("test over")
		hub.Close()
	})
	return hub, arch
}

// awaitArchivist waits up to 10 s for hub's archive to run doc's archivist.
func awaitArchivist(t testing.TB, hub *transport.Hub, arch *serve.Archive, doc string) *serve.Archivist {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); arch.Get(doc) == nil; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the hub never acquired doc %q (handoffs in: %d)", doc, hub.Stats().HandoffsIn)
		}
	}
	return arch.Get(doc)
}

// awaitHandOver waits until archivist a has stopped on its successor's
// acknowledgement and returns the clock it held and the one acknowledged.
func awaitHandOver(t testing.TB, a *serve.Archivist, timeout time.Duration) (held, acked vclock.VC) {
	t.Helper()
	select {
	case <-a.Done():
	case <-time.After(timeout):
		t.Fatalf("the old archivist of doc %q never saw its successor acknowledge what it held", a.Doc)
	}
	if held, acked = a.HandOver(); acked == nil {
		t.Fatalf("the old archivist of doc %q stopped, but not by a hand-over", a.Doc)
	}
	return held, acked
}

// docOwnedBy finds a document name owned by addr under the ring.
func docOwnedBy(t testing.TB, ring *shardmap.Ring, addr string) string {
	t.Helper()
	for i := 0; i < 100_000; i++ {
		doc := fmt.Sprintf("doc-%d", i)
		if ring.Owner(doc) == addr {
			return doc
		}
	}
	t.Fatal("no document hashes to the target hub")
	return ""
}

// hoSnapThreshold is the snapshot threshold of every engine in the handoff
// tests: a joiner missing the first phase's history is answered with a
// snapshot, not an op replay, by whichever member hears its digest.
const hoSnapThreshold = 64

// TestLiveHandoffUnderWriters is the acceptance test for online
// resharding: with two writers editing continuously, a new hub joins the
// ring and the document moves to it — no hub or client restarts, no op is
// lost, every replica converges byte-identical, the new owner's archivist
// catches up from a snapshot (replaying no pre-snapshot operation), the
// old archivist stops only once the new one has acknowledged everything it
// held, and a stale-epoch client attaching through the old owner recovers
// via the epoch-stamped redirect.
func TestLiveHandoffUnderWriters(t *testing.T) {
	const (
		phase1PerWriter = 200
		phase2PerWriter = 150
	)
	snapAt := treedoc.WithSnapshotThreshold(hoSnapThreshold)
	hubA, arcA := archiveHub(t, 0, snapAt)
	addrA := hubA.Addr().String()
	ring1, err := shardmap.NewRing(1, []string{addrA})
	if err != nil {
		t.Fatal(err)
	}
	if err := hubA.ConfigureRing(addrA, ring1); err != nil {
		t.Fatal(err)
	}

	// The second hub's archive brings up a local archivist the moment the
	// Begin arrives. The new archivist pulls at a slower pace than the
	// answers take to arrive: a second digest while the first answer's
	// snapshot is still in flight would draw op replay in between offers.
	hubB, arcB := archiveHub(t, 0, snapAt, treedoc.WithSyncInterval(100*time.Millisecond))
	addrB := hubB.Addr().String()

	ring2, err := shardmap.NewRing(2, []string{addrA, addrB})
	if err != nil {
		t.Fatal(err)
	}
	doc := docOwnedBy(t, ring2, addrB) // owned by A at epoch 1, by B at epoch 2

	archA := arcA.Acquire(doc, hubA.RingEpoch())
	if archA == nil {
		t.Fatal("archivist A failed to start")
	}

	linkOf := func(addr string) treedoc.Link {
		l, err := treedoc.DialDoc(addr, doc)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	// A writer compacts on every tick it has something new to cover, so
	// the barrier it serves covers phase 1 by the time phase 2 begins: a
	// writer hearing the new archivist's digest mid-edit serves that
	// barrier instead of replaying what it cannot snapshot.
	w1 := newHOWriter(t, 1, linkOf(addrA), snapAt, treedoc.WithCompactEvery(1))
	w2 := newHOWriter(t, 2, linkOf(addrA), snapAt, treedoc.WithCompactEvery(1))
	defer w1.eng.Stop()
	defer w2.eng.Stop()

	// Phase 1: write and converge, so every snapshot a member offers from
	// here on covers at least this history.
	var wg sync.WaitGroup
	for _, w := range []*hoWriter{w1, w2} {
		wg.Add(1)
		go func(w *hoWriter) { defer wg.Done(); w.write(t, phase1PerWriter, 0) }(w)
	}
	wg.Wait()
	hoConverge(t, []*treedoc.Engine{w1.eng, w2.eng, archA.Eng}, 30*time.Second)
	phase1VC := w1.eng.Clock()
	phase1Total := phase1VC.Get(1) + phase1VC.Get(2)
	time.Sleep(150 * time.Millisecond) // ten sync ticks: the writers compact at phase 1

	// Phase 2: keep writing while hub B joins the ring at epoch 2. Hub A
	// adopts the announced ring, sends B the Begin, re-points the writers
	// and its archivist with an epoch-stamped redirect, and releases its
	// archivist, which serves until B's acknowledges it. Nothing restarts.
	start := time.Now()
	for _, w := range []*hoWriter{w1, w2} {
		wg.Add(1)
		go func(w *hoWriter) { defer wg.Done(); w.write(t, phase2PerWriter, time.Millisecond) }(w)
	}
	time.Sleep(30 * time.Millisecond) // let phase 2 overlap the reshard
	if err := hubB.ConfigureRing(addrB, ring2); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	// The new owner's archivist must exist (ownership hook fired).
	archB := awaitArchivist(t, hubB, arcB, doc)
	hoConverge(t, []*treedoc.Engine{w1.eng, w2.eng, archB.Eng}, 30*time.Second)
	t.Logf("converged %v after the writers' phase 2 began", time.Since(start))
	want := w1.buf.String()
	if got := w2.buf.String(); got != want {
		t.Fatalf("writers diverged after handoff (%d vs %d runes)", len(got), len(want))
	}
	if got := archB.Buf.String(); got != want {
		t.Fatalf("new owner archivist diverged (%d vs %d runes)", len(got), len(want))
	}

	// No pre-snapshot replay: the new archivist installed a snapshot (which
	// covers all of phase 1) and applied live only what it did not cover.
	if archB.Eng.Stats().SnapshotsInstalled == 0 {
		t.Fatal("new owner archivist never installed a catch-up snapshot")
	}
	total := w1.eng.Clock().Get(1) + w1.eng.Clock().Get(2)
	phase2 := total - phase1Total
	if applied := archB.Eng.Stats().Applied; applied > phase2 {
		t.Fatalf("new owner archivist replayed %d ops live; a snapshot should cover all %d phase-1 ops (total %d)",
			applied, phase1Total, total)
	}

	// The old archivist stopped, and only on an acknowledgement from the
	// new one that covers everything it held at release.
	held, acked := awaitHandOver(t, archA, 30*time.Second)
	t.Logf("old archivist handed over %v after the writers' phase 2 began", time.Since(start))
	if !acked.Dominates(held) || !held.Dominates(phase1VC) {
		t.Fatalf("old archivist stopped on ack %v for held clock %v (phase 1 %v)", acked, held, phase1VC)
	}
	if arcA.Get(doc) != nil {
		t.Fatal("old owner still runs an archivist for the moved doc")
	}

	if hubA.Stats().HandoffsOut == 0 || hubB.Stats().HandoffsIn == 0 {
		t.Fatalf("handoff counters: A out %d, B in %d", hubA.Stats().HandoffsOut, hubB.Stats().HandoffsIn)
	}
	if hubA.RingEpoch() != 2 || hubB.RingEpoch() != 2 {
		t.Fatalf("ring epochs after join: A %d, B %d", hubA.RingEpoch(), hubB.RingEpoch())
	}

	// A stale-epoch client that only knows the old owner recovers through
	// the epoch-stamped redirect: attach via A, converge with everyone.
	late := newHOWriter(t, 3, linkOf(addrA))
	defer late.eng.Stop()
	hoConverge(t, []*treedoc.Engine{w1.eng, late.eng}, 30*time.Second)
	if got := late.buf.String(); got != want {
		t.Fatal("stale-epoch client diverged after following the epoch-stamped redirect")
	}
}

// TestHandoffToARestartingOwner: the old owner's archivist is the only
// replica holding the document — no client is attached — and the new
// owner's archivist comes up 300 ms after the Begin, as one restarting
// mid-handoff would. The new archivist must still converge to the old
// one's content, from the old one, which stops only after that.
func TestHandoffToARestartingOwner(t *testing.T) {
	hubA, arcA := archiveHub(t, 0)
	hubB, arcB := archiveHub(t, 300*time.Millisecond)
	addrA, addrB := hubA.Addr().String(), hubB.Addr().String()

	ring1, err := shardmap.NewRing(1, []string{addrA})
	if err != nil {
		t.Fatal(err)
	}
	if err := hubA.ConfigureRing(addrA, ring1); err != nil {
		t.Fatal(err)
	}
	ring2, err := shardmap.NewRing(2, []string{addrA, addrB})
	if err != nil {
		t.Fatal(err)
	}
	doc := docOwnedBy(t, ring2, addrB)

	// A writer fills A's archivist with a few hundred ops, then leaves.
	archA := arcA.Acquire(doc, hubA.RingEpoch())
	if archA == nil {
		t.Fatal("archivist A failed to start")
	}
	w := newHOWriter(t, 1, func() treedoc.Link {
		l, err := treedoc.DialDoc(addrA, doc)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}())
	w.write(t, 60, 0)
	hoConverge(t, []*treedoc.Engine{w.eng, archA.Eng}, 30*time.Second)
	want := w.buf.String()
	w.eng.Stop()
	if n := archA.Eng.Stats().Applied; n < 200 {
		t.Fatalf("archivist A holds %d ops, want a few hundred", n)
	}

	if err := hubB.ConfigureRing(addrB, ring2); err != nil {
		t.Fatal(err)
	}
	archB := awaitArchivist(t, hubB, arcB, doc)
	held, acked := awaitHandOver(t, archA, 30*time.Second)
	if got := archB.Buf.String(); got != want {
		t.Fatalf("new owner archivist holds %d runes, want the old one's %d", len(got), len(want))
	}
	if !acked.Dominates(held) || !archB.Eng.Clock().Dominates(held) {
		t.Fatalf("old archivist stopped at held %v on ack %v; new archivist at %v", held, acked, archB.Eng.Clock())
	}
}

// stickyLink is a hub client that cannot follow redirects: it attaches to
// one document with the forward-flagged hello and ignores every re-point,
// the way a client that cannot reach a new owner stays on the old one.
type stickyLink struct {
	*transport.TCPLink
	doc string
}

func dialSticky(t testing.TB, addr, doc string) *stickyLink {
	t.Helper()
	link, err := transport.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	hello, err := transport.EncodeHelloForward([]string{doc})
	if err != nil {
		t.Fatal(err)
	}
	if err := link.Send(hello); err != nil {
		t.Fatal(err)
	}
	for {
		frame, err := link.Recv()
		if err != nil {
			t.Fatalf("sticky attach: %v", err)
		}
		decoded, err := transport.DecodeFrame(frame)
		if err != nil {
			t.Fatalf("sticky attach: %v", err)
		}
		if resp, ok := decoded.(*transport.HelloRespFrame); ok {
			if e := resp.Entries[0]; e.Doc != doc || e.Redirect != "" {
				t.Fatalf("sticky attach answered %+v", e)
			}
			return &stickyLink{TCPLink: link, doc: doc}
		}
	}
}

func (l *stickyLink) Send(frame []byte) error {
	env, err := transport.EncodeDocFrame(l.doc, frame)
	if err != nil {
		return err
	}
	return l.TCPLink.Send(env)
}

// Recv strips the document envelope; re-points and ring announces are
// dropped on the floor — that is what makes the link sticky.
func (l *stickyLink) Recv() ([]byte, error) {
	for {
		frame, err := l.TCPLink.Recv()
		if err != nil {
			return nil, err
		}
		if _, inner, err := transport.SplitDocFrame(frame); err == nil {
			return inner, nil
		}
	}
}

// TestForwardingSurvivesEpochChange moves a document to a newly joined
// hub while one of its clients does not re-point (a forward-flag session
// that ignores the redirect): the old owner keeps serving it through
// hub-to-hub forwarding, and it converges with a client that was
// re-pointed to the new owner.
func TestForwardingSurvivesEpochChange(t *testing.T) {
	hubA, err := treedoc.ListenHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hubA.Close()
	addrA := hubA.Addr().String()
	ring1, err := shardmap.NewRing(1, []string{addrA})
	if err != nil {
		t.Fatal(err)
	}
	if err := hubA.ConfigureRing(addrA, ring1); err != nil {
		t.Fatal(err)
	}
	hubB, err := treedoc.ListenHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hubB.Close()
	addrB := hubB.Addr().String()
	ring2, err := shardmap.NewRing(2, []string{addrA, addrB})
	if err != nil {
		t.Fatal(err)
	}
	doc := docOwnedBy(t, ring2, addrB)

	sticky := newHOWriter(t, 1, dialSticky(t, addrA, doc))
	defer sticky.eng.Stop()
	movedLink, err := treedoc.DialDoc(addrA, doc)
	if err != nil {
		t.Fatal(err)
	}
	moved := newHOWriter(t, 2, movedLink)
	defer moved.eng.Stop()

	// Phase 1 on the old owner.
	var wg sync.WaitGroup
	for _, w := range []*hoWriter{sticky, moved} {
		wg.Add(1)
		go func(w *hoWriter) { defer wg.Done(); w.write(t, 100, 0) }(w)
	}
	wg.Wait()
	hoConverge(t, []*treedoc.Engine{sticky.eng, moved.eng}, 30*time.Second)

	// Epoch change: the document moves to hub B while both keep writing.
	for _, w := range []*hoWriter{sticky, moved} {
		wg.Add(1)
		go func(w *hoWriter) { defer wg.Done(); w.write(t, 100, time.Millisecond) }(w)
	}
	time.Sleep(20 * time.Millisecond)
	if err := hubB.ConfigureRing(addrB, ring2); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	hoConverge(t, []*treedoc.Engine{sticky.eng, moved.eng}, 30*time.Second)
	if sticky.buf.String() != moved.buf.String() {
		t.Fatal("forwarded and re-pointed replicas diverged across the epoch change")
	}
	if hubA.Stats().Forwards == 0 {
		t.Fatal("old owner never forwarded the sticky client's frames")
	}
	if hubA.RingEpoch() != 2 {
		t.Fatalf("hub A ring epoch = %d, want 2", hubA.RingEpoch())
	}
}

// TestRedirectLoopFailsFast wires two hubs with deliberately disagreeing
// rings of the same epoch — each names the other as the owner — and
// asserts the client fails the attach with a loop error instead of
// bouncing forever (the pre-epoch behaviour was a single blind hop; two
// hops that revisit a hub whose epoch did not advance must fail).
func TestRedirectLoopFailsFast(t *testing.T) {
	hubA, err := treedoc.ListenHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hubA.Close()
	hubB, err := treedoc.ListenHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hubB.Close()
	addrA, addrB := hubA.Addr().String(), hubB.Addr().String()

	ringA, err := shardmap.NewRing(1, []string{addrA, addrB})
	if err != nil {
		t.Fatal(err)
	}
	// Hub B's view replaces B with a phantom node, so every document ring
	// A assigns to B is assigned to A (or the phantom) under ring B — B
	// bounces it straight back.
	ringB, err := shardmap.NewRing(1, []string{addrA, "203.0.113.7:1"})
	if err != nil {
		t.Fatal(err)
	}
	var doc string
	for i := 0; i < 100_000 && doc == ""; i++ {
		d := fmt.Sprintf("doc-%d", i)
		if ringA.Owner(d) == addrB && ringB.Owner(d) == addrA {
			doc = d
		}
	}
	if doc == "" {
		t.Fatal("no document bounces between the disagreeing rings")
	}
	if err := hubA.ConfigureRing(addrA, ringA); err != nil {
		t.Fatal(err)
	}
	if err := hubB.ConfigureRing(addrB, ringB); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		_, err := treedoc.DialDoc(addrA, doc)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("attach succeeded through disagreeing rings")
		}
	case <-time.After(15 * time.Second):
		t.Fatal("attach hung: redirect bouncing is unbounded")
	}
}

// TestForwardFallbackWhenOwnerUnreachable: the ring places a document on
// a hub the clients cannot reach; the attach falls back to the forward
// flag and the reachable hub serves the document locally, relaying among
// its own clients (and towards the owner, best-effort, over the mesh).
func TestForwardFallbackWhenOwnerUnreachable(t *testing.T) {
	hubA, err := treedoc.ListenHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hubA.Close()
	addrA := hubA.Addr().String()
	// Port 1 refuses connections immediately: an owner shard that exists
	// in the ring but is unreachable from these clients.
	const deadOwner = "127.0.0.1:1"
	ring, err := shardmap.NewRing(1, []string{addrA, deadOwner})
	if err != nil {
		t.Fatal(err)
	}
	if err := hubA.ConfigureRing(addrA, ring); err != nil {
		t.Fatal(err)
	}
	doc := docOwnedBy(t, ring, deadOwner)

	w1link, err := treedoc.DialDoc(addrA, doc)
	if err != nil {
		t.Fatalf("attach with unreachable owner: %v", err)
	}
	w1 := newHOWriter(t, 1, w1link)
	defer w1.eng.Stop()
	w2link, err := treedoc.DialDoc(addrA, doc)
	if err != nil {
		t.Fatal(err)
	}
	w2 := newHOWriter(t, 2, w2link)
	defer w2.eng.Stop()

	var wg sync.WaitGroup
	for _, w := range []*hoWriter{w1, w2} {
		wg.Add(1)
		go func(w *hoWriter) { defer wg.Done(); w.write(t, 100, 0) }(w)
	}
	wg.Wait()
	hoConverge(t, []*treedoc.Engine{w1.eng, w2.eng}, 30*time.Second)
	if w1.buf.String() != w2.buf.String() {
		t.Fatal("forward-fallback clients diverged")
	}
	if st := hubA.DocStats()[doc]; st.Clients != 2 || st.Relays == 0 {
		t.Fatalf("reachable hub did not serve the foreign doc: %+v", st)
	}
}

// TestResignHandsEverythingBack: a hub leaves the ring gracefully; its
// document moves back to the survivor, attached writers are re-pointed,
// and convergence holds.
func TestResignHandsEverythingBack(t *testing.T) {
	hubA, err := treedoc.ListenHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hubA.Close()
	hubB, err := treedoc.ListenHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hubB.Close()
	addrA, addrB := hubA.Addr().String(), hubB.Addr().String()
	ring1, err := shardmap.NewRing(1, []string{addrA, addrB})
	if err != nil {
		t.Fatal(err)
	}
	if err := hubA.ConfigureRing(addrA, ring1); err != nil {
		t.Fatal(err)
	}
	if err := hubB.ConfigureRing(addrB, ring1); err != nil {
		t.Fatal(err)
	}
	doc := docOwnedBy(t, ring1, addrB)

	l1, err := treedoc.DialDoc(addrA, doc) // redirected to B
	if err != nil {
		t.Fatal(err)
	}
	w1 := newHOWriter(t, 1, l1)
	defer w1.eng.Stop()
	l2, err := treedoc.DialDoc(addrB, doc)
	if err != nil {
		t.Fatal(err)
	}
	w2 := newHOWriter(t, 2, l2)
	defer w2.eng.Stop()

	var wg sync.WaitGroup
	for _, w := range []*hoWriter{w1, w2} {
		wg.Add(1)
		go func(w *hoWriter) { defer wg.Done(); w.write(t, 150, time.Millisecond) }(w)
	}
	time.Sleep(20 * time.Millisecond)
	if err := hubB.Resign(); err != nil {
		t.Fatalf("resign: %v", err)
	}
	wg.Wait()

	hoConverge(t, []*treedoc.Engine{w1.eng, w2.eng}, 30*time.Second)
	if w1.buf.String() != w2.buf.String() {
		t.Fatal("writers diverged across the resign")
	}
	if owner, owned := hubA.DocOwner(doc); !owned {
		t.Fatalf("survivor does not own the doc after resign (owner %s)", owner)
	}
	if hubB.RingEpoch() != 2 || hubA.RingEpoch() != 2 {
		t.Fatalf("ring epochs after resign: A %d, B %d", hubA.RingEpoch(), hubB.RingEpoch())
	}
}

// TestShedControlFramesAreCounted: a hub's own control frames are as lossy
// as relayed ones on a full client queue, and as counted. A client that
// stopped reading is pushed until its depth-1 queue refuses frames; then a
// ring announce, a ring correction and a handoff's re-point redirect each
// cost exactly one Drop (the redirect one of its document's, too) — a
// client that silently never heard its redirect would never migrate.
func TestShedControlFramesAreCounted(t *testing.T) {
	hub, err := treedoc.ListenHub("127.0.0.1:0", treedoc.WithHubQueueDepth(1))
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	self := hub.Addr().String()
	const deadOwner = "127.0.0.1:1" // refuses connections: the Begin goes nowhere, the re-point still goes out
	rings := make([]*shardmap.Ring, 3)
	for i, nodes := range [][]string{{self}, {self}, {self, deadOwner}} {
		if rings[i], err = shardmap.NewRing(uint64(i+1), nodes); err != nil {
			t.Fatal(err)
		}
	}
	doc := docOwnedBy(t, rings[2], deadOwner)
	if err := hub.ConfigureRing(self, rings[0]); err != nil {
		t.Fatal(err)
	}
	stalled := dialSticky(t, hub.Addr().String(), doc) // never reads again
	defer stalled.Close()
	sender := dialSticky(t, hub.Addr().String(), doc)
	defer sender.Close()

	// Relayed frames fill the stalled client's socket buffers until the
	// hub's writer blocks with the queue full behind it. The hub relays a
	// frame by its kind byte alone; 0xEE is no kind it treats specially.
	// The writer is wedged — not merely slower than the sender — once every
	// paced send of a quarter second is refused: it took nothing out
	// meanwhile, and with nobody reading it never will.
	big := make([]byte, 256<<10)
	big[0] = 0xEE
	for sent, since := 0, time.Now(); time.Since(since) < 250*time.Millisecond; sent++ {
		if sent == 4096 {
			t.Fatal("1 GiB relayed and the stalled client's queue never wedged")
		}
		relayed, shed := hub.Stats().Relays, hub.Stats().Drops
		if err := sender.Send(big); err != nil {
			t.Fatal(err)
		}
		for hub.Stats().Relays == relayed && hub.Stats().Drops == shed {
			time.Sleep(time.Millisecond) // until the hub has handled it
		}
		if hub.Stats().Drops == shed {
			since = time.Now() // relayed: the writer is still taking frames
		}
		time.Sleep(time.Millisecond)
	}
	// drops waits for the hub to have read everything sent so far: the
	// count stops moving.
	drops := func() (hubDrops, docDrops uint64) {
		for last, still := hub.Stats().Drops, 0; still < 10; time.Sleep(5 * time.Millisecond) {
			if now := hub.Stats().Drops; now != last {
				last, still = now, 0
			} else {
				still++
			}
		}
		return hub.Stats().Drops, hub.DocStats()[doc].Drops
	}
	expect := func(what string, wantHub, wantDoc uint64) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for hub.Stats().Drops < wantHub && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if h, d := drops(); h != wantHub || d != wantDoc {
			t.Fatalf("%s: hub drops %d, doc drops %d; want %d, %d", what, h, d, wantHub, wantDoc)
		}
	}
	h0, d0 := drops()

	if err := hub.ConfigureRing(self, rings[1]); err != nil {
		t.Fatal(err)
	}
	expect("ring announce to every client", h0+1, d0)

	stale, err := transport.EncodeRingAnnounce(1, []string{self})
	if err != nil {
		t.Fatal(err)
	}
	if err := stalled.TCPLink.Send(stale); err != nil {
		t.Fatal(err)
	}
	expect("ring correction to a stale announcer", h0+2, d0)

	// The document moves off this hub: one more announce, and the redirect
	// re-pointing its attached clients.
	if err := hub.ConfigureRing(self, rings[2]); err != nil {
		t.Fatal(err)
	}
	expect("handoff re-point redirect", h0+4, d0+1)
}
