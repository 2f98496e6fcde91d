package main

import (
	"fmt"
	"testing"
	"time"

	"github.com/treedoc/treedoc"
	"github.com/treedoc/treedoc/internal/transport"
	"github.com/treedoc/treedoc/internal/transport/shardmap"
	"github.com/treedoc/treedoc/internal/vclock"
)

// deadOwner refuses connections: a ring member that is never reached, so
// nothing but the test itself plays the successor archivist.
const deadOwner = "127.0.0.1:1"

// testArchivists starts a hub whose ownership callback is am's, with ring
// {self, deadOwner} installed at epoch 1 when foreign is set (the owner
// of doc is then deadOwner) and {self} otherwise, and picks doc.
func testArchivists(t *testing.T, foreign bool) (am *archivists, hub *transport.Hub, doc string) {
	t.Helper()
	am = &archivists{ready: make(chan struct{}), m: make(map[string]*archivist)}
	hub, err := transport.ListenHub("127.0.0.1:0", transport.WithHubOwnership(am.ownership))
	if err != nil {
		t.Fatal(err)
	}
	self := hub.Addr().String()
	am.hub = hub
	am.cfg = archConfig{hubAddr: self, logDir: t.TempDir(), self: self, compactEvery: 16384, snapThreshold: 8192}
	close(am.ready)
	t.Cleanup(func() {
		for _, a := range am.all() {
			am.stop(a, "test over")
		}
		hub.Close()
	})
	nodes := []string{self}
	if foreign {
		nodes = append(nodes, deadOwner)
	}
	ring, err := shardmap.NewRing(1, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if err := hub.ConfigureRing(self, ring); err != nil {
		t.Fatal(err)
	}
	moved, err := shardmap.NewRing(2, []string{self, deadOwner})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; doc == ""; i++ {
		if d := fmt.Sprintf("doc-%d", i); moved.Owner(d) == deadOwner {
			doc = d
		}
	}
	return am, hub, doc
}

// peerEngine is an engine wired straight to the archivist's engine.
func peerEngine(t *testing.T, site treedoc.SiteID, a *archivist) (*treedoc.TextBuffer, *treedoc.Engine) {
	t.Helper()
	buf, err := treedoc.NewTextBuffer(treedoc.WithSite(site))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := treedoc.NewEngine(site, buf, treedoc.WithSyncInterval(20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Stop)
	l, r := transport.ChanPair(256)
	a.eng.Connect(l)
	eng.Connect(r)
	return buf, eng
}

// fill makes a writer wired to the archivist append n edits, and returns
// the archivist's clock once it holds them all.
func fill(t *testing.T, a *archivist, n int) vclock.VC {
	t.Helper()
	buf, eng := peerEngine(t, 7, a)
	for i := 0; i < n; i++ {
		ops, err := buf.Append(fmt.Sprintf("w%d ", i))
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Broadcast(ops...); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "the archivist to hold the writer's ops", func() bool { return a.eng.Clock().Dominates(eng.Clock()) })
	return a.eng.Clock()
}

func (am *archivists) get(doc string) *archivist {
	am.mu.Lock()
	defer am.mu.Unlock()
	return am.m[doc]
}

// waitFor polls cond for up to 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestReleaseWaitsForTheSuccessorsAck: a released archivist keeps serving
// while its successor has acknowledged nothing, and stops once the
// successor's acknowledged clock covers what it held at release.
func TestReleaseWaitsForTheSuccessorsAck(t *testing.T) {
	am, hub, doc := testArchivists(t, false)
	am.ensure(doc, 1)
	a := am.get(doc)
	if a == nil {
		t.Fatal("no archivist")
	}
	held := fill(t, a, 50)

	// The document moves to deadOwner: the hub re-points the archivist's
	// link and fires the release.
	moved, err := shardmap.NewRing(2, []string{am.cfg.self, deadOwner})
	if err != nil {
		t.Fatal(err)
	}
	if err := hub.ConfigureRing(am.cfg.self, moved); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * handOverPoll)
	if am.get(doc) != a || a.eng.Clock() == nil {
		t.Fatal("the archivist stopped before any successor acknowledged it")
	}

	sbuf, seng := peerEngine(t, archiveSite(deadOwner, doc), a)
	waitFor(t, "the hand-over", func() bool { return am.get(doc) == nil })
	if a.eng.Clock() != nil {
		t.Fatal("the archivist left the set but its engine still runs")
	}
	if !seng.Clock().Dominates(held) || sbuf.String() != a.buf.String() {
		t.Fatalf("successor at %v holding %d runes; the archivist held %v and %d runes",
			seng.Clock(), sbuf.Len(), held, a.buf.Len())
	}
}

// TestStaleReleaseAfterReacquisition: a re-acquisition at a newer epoch
// cancels a hand-over in progress, and a release at an older epoch than
// the archivist's acquisition is ignored — the archivist keeps serving
// even once a successor has acknowledged everything.
func TestStaleReleaseAfterReacquisition(t *testing.T) {
	am, _, doc := testArchivists(t, true)
	am.ensure(doc, 1)
	a := am.get(doc)
	if a == nil {
		t.Fatal("no archivist")
	}
	held := fill(t, a, 20)
	am.release(doc, 2) // a hand-over at epoch 2 starts waiting
	am.ensure(doc, 3)  // and a newer epoch brings the document back
	am.release(doc, 2) // stale: ignored
	successor := archiveSite(deadOwner, doc)
	peerEngine(t, successor, a)
	waitFor(t, "the successor's acknowledgement", func() bool { return a.eng.Acked(successor).Dominates(held) })
	time.Sleep(10 * handOverPoll)
	if am.get(doc) != a || a.eng.Clock() == nil {
		t.Fatal("a stale release stopped the re-acquired archivist")
	}
	if a.epoch != 3 {
		t.Fatalf("acquisition epoch %d, want 3", a.epoch)
	}
}

// TestArchiveSiteDiffersPerHub: the predecessor and successor archivists
// of one document never share a site id, or the successor's
// acknowledgement could never be told from the predecessor's own clock.
func TestArchiveSiteDiffersPerHub(t *testing.T) {
	const doc = "notes"
	a, b := archiveSite("hub-a:9707", doc), archiveSite("hub-b:9707", doc)
	if a == b {
		t.Fatalf("both hubs derive site %d for %q", a, doc)
	}
	if a != archiveSite("hub-a:9707", doc) {
		t.Fatal("archiveSite is not deterministic")
	}
}
