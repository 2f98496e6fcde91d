package transport

// Delta anti-entropy suite: digest suppression goes quiet on idle
// documents without giving up loss healing, and a digest sent over a
// shared session leaves at once in its own document envelope. Run under
// `go test -race`: the suppression state lives next to every other peer
// field the actor goroutine owns.

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/treedoc/treedoc/internal/ident"
	"github.com/treedoc/treedoc/internal/vclock"
)

// TestDigestSuppressionIdle converges a pair and then watches an idle
// window: ticks must be suppressed instead of sent, except for the slow
// keepalive that bounds loss healing.
func TestDigestSuppressionIdle(t *testing.T) {
	const syncEvery = 10 * time.Millisecond
	r1, r2 := newTestReplica(t, 1), newTestReplica(t, 2)
	e1, err := NewEngine(1, r1, WithSyncInterval(syncEvery))
	if err != nil {
		t.Fatal(err)
	}
	e2, err := NewEngine(2, r2, WithSyncInterval(syncEvery))
	if err != nil {
		t.Fatal(err)
	}
	defer stopAll(e1, e2)
	a, b := ChanPair(64)
	e1.Connect(a)
	e2.Connect(b)

	for i := 0; i < 20; i++ {
		if err := e1.Broadcast(r1.insertAt(t, r1.len(), fmt.Sprintf("x%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	waitConverged(t, []*Engine{e1, e2}, 10*time.Second)

	// Let the post-convergence digests settle (each side announces its
	// final clock once), then measure a pure idle window.
	time.Sleep(5 * syncEvery)
	sent0 := e1.Stats().DigestsSent + e2.Stats().DigestsSent
	supp0 := e1.Stats().DigestsSuppressed + e2.Stats().DigestsSuppressed

	const idle = 50 * syncEvery // 5 keepalive periods
	time.Sleep(idle)

	sent := e1.Stats().DigestsSent + e2.Stats().DigestsSent - sent0
	supp := e1.Stats().DigestsSuppressed + e2.Stats().DigestsSuppressed - supp0
	// Two engines ticking for 5 keepalive periods: ~10 keepalive sends
	// expected. Anything near the unsuppressed rate (~100 sends) means
	// suppression is not engaging; zero suppressions means the same.
	if supp == 0 {
		t.Fatalf("idle window suppressed no digests (sent %d)", sent)
	}
	if sent > 30 {
		t.Fatalf("idle window sent %d digests (suppressed %d): suppression not engaging", sent, supp)
	}
	if supp < sent {
		t.Fatalf("idle window sent more digests (%d) than it suppressed (%d)", sent, supp)
	}
}

// dropOnce wraps a Link and, once armed, silently drops the next frame of
// the given kind sent through it — an injected single-frame loss.
type dropOnce struct {
	Link
	kind byte

	mu    sync.Mutex
	armed bool
}

func (d *dropOnce) arm() {
	d.mu.Lock()
	d.armed = true
	d.mu.Unlock()
}

func (d *dropOnce) Send(frame []byte) error {
	d.mu.Lock()
	drop := d.armed && len(frame) > 0 && frame[0] == d.kind
	if drop {
		d.armed = false
	}
	d.mu.Unlock()
	if drop {
		return nil
	}
	return d.Link.Send(frame)
}

// TestDigestSuppressionHealsDrop injects the loss of an operations frame
// and asserts anti-entropy still heals it promptly: the victim's clock
// cannot dominate the frontier it keeps hearing, so its digests are never
// suppressed and the sender's indexed replay closes the gap.
func TestDigestSuppressionHealsDrop(t *testing.T) {
	const syncEvery = 10 * time.Millisecond
	r1, r2 := newTestReplica(t, 1), newTestReplica(t, 2)
	e1, err := NewEngine(1, r1, WithSyncInterval(syncEvery))
	if err != nil {
		t.Fatal(err)
	}
	e2, err := NewEngine(2, r2, WithSyncInterval(syncEvery))
	if err != nil {
		t.Fatal(err)
	}
	defer stopAll(e1, e2)
	a, b := ChanPair(64)
	// Frames from e1 toward e2 lose one ops frame once the dropper arms.
	dropper := &dropOnce{Link: a, kind: kindOps}
	e1.Connect(dropper)
	e2.Connect(b)

	// Converge once so both sides have announced clocks and suppression
	// has had the chance to arm.
	if err := e1.Broadcast(r1.insertAt(t, 0, "seed")); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, []*Engine{e1, e2}, 10*time.Second)

	// The drop must land on the next broadcast's frame, but a duplicate
	// replay of the seed (its flush racing e2's connect digest) can still
	// sit in the writer queue; dropping that duplicate heals for free and
	// proves nothing. Drain, and retry if an attempt's drop was eaten by
	// a queued duplicate.
	healed := false
	for attempt := 0; attempt < 5 && !healed; attempt++ {
		time.Sleep(5 * syncEvery)
		replay0 := e1.Stats().ReplayOps
		// This broadcast's ops frame is dropped on the floor: e2 can only
		// learn it through a digest answer.
		dropper.arm()
		if err := e1.Broadcast(r1.insertAt(t, r1.len(), fmt.Sprintf("lost%d", attempt))); err != nil {
			t.Fatal(err)
		}
		// The healing bound is one keepalive period plus the sync tick
		// that answers; 10s is generous slack over the 100ms keepalive.
		waitConverged(t, []*Engine{e1, e2}, 10*time.Second)
		checkAll(t, r1, r2)
		healed = e1.Stats().ReplayOps > replay0
	}
	if !healed {
		t.Fatal("no attempt healed through a digest answer: drop injection never took")
	}
}

// TestSharedSessionConvergesPerDocument attaches three documents through
// one shared Session and one dedicated DialDoc connection per document:
// the shared connection carries every document's frames, digests
// included, in their own envelopes, and each pair converges.
func TestSharedSessionConvergesPerDocument(t *testing.T) {
	hub, err := ListenHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	addr := hub.Addr().String()
	docs := []string{"alpha", "beta", "gamma"}

	sess := DialSession(addr)
	defer sess.Close()

	type party struct {
		rep *testReplica
		eng *Engine
	}
	var shared, dedicated []party
	for i, doc := range docs {
		link, err := sess.Attach(doc)
		if err != nil {
			t.Fatal(err)
		}
		site := ident.SiteID(2*i + 1)
		rep := newTestReplica(t, site)
		eng, err := NewEngine(site, rep, WithSyncInterval(15*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		eng.Connect(link)
		shared = append(shared, party{rep, eng})

		llink, err := DialDoc(addr, doc)
		if err != nil {
			t.Fatal(err)
		}
		lsite := ident.SiteID(2*i + 2)
		lrep := newTestReplica(t, lsite)
		leng, err := NewEngine(lsite, lrep, WithSyncInterval(15*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		leng.Connect(llink)
		dedicated = append(dedicated, party{lrep, leng})
	}
	defer func() {
		for i := range shared {
			shared[i].eng.Stop()
			dedicated[i].eng.Stop()
		}
	}()

	for round := 0; round < 20; round++ {
		for i := range docs {
			if err := shared[i].eng.Broadcast(shared[i].rep.insertAt(t, shared[i].rep.len(), fmt.Sprintf("b%d.%d ", i, round))); err != nil {
				t.Fatal(err)
			}
			if err := dedicated[i].eng.Broadcast(dedicated[i].rep.insertAt(t, 0, fmt.Sprintf("l%d.%d ", i, round))); err != nil {
				t.Fatal(err)
			}
		}
		// Spread rounds across several sync ticks so digests from every
		// document interleave on the shared connection.
		time.Sleep(5 * time.Millisecond)
	}

	for i := range docs {
		waitConverged(t, []*Engine{shared[i].eng, dedicated[i].eng}, 30*time.Second)
		checkAll(t, shared[i].rep, dedicated[i].rep)
	}
}

// TestDigestLeavesInItsEnvelope: a digest sent on a session's document link
// is on the connection, wrapped in that document's kindDocFrame, by the
// time Send returns — no timer holds it back.
func TestDigestLeavesInItsEnvelope(t *testing.T) {
	near, far := ChanPair(4)
	defer near.Close()
	sc := &sessConn{
		addr:    "hub",
		link:    near,
		docs:    make(map[string]*docLink),
		waiters: make(map[string][]chan HelloEntry),
		dead:    make(chan struct{}),
	}
	dl, err := sc.newDocLink("notes")
	if err != nil {
		t.Fatal(err)
	}
	digest := mustEncode(t, kindSyncReq, &SyncReqFrame{From: 7, Clock: vclock.VC{7: 4}})
	if err := dl.Send(digest); err != nil {
		t.Fatal(err)
	}
	if n := len(far.recv); n != 1 {
		t.Fatalf("%d frames on the connection after Send, want 1", n)
	}
	got, err := far.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if want := mustEncode(t, kindDocFrame, &DocFrame{Doc: "notes", Inner: digest}); !bytes.Equal(got, want) {
		t.Fatalf("connection carried %x, want the digest's own envelope %x", got, want)
	}
}
