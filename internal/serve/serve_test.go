package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
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

// testArchive starts a hub whose ownership callback is am's, with ring
// {self, deadOwner} installed at epoch 1 when foreign is set (the owner
// of doc is then deadOwner) and {self} otherwise, and picks doc.
func testArchive(t *testing.T, foreign bool) (am *Archive, hub *transport.Hub, doc string) {
	t.Helper()
	am = NewArchive(Config{LogDir: t.TempDir()})
	hub, err := transport.ListenHub("127.0.0.1:0", transport.WithHubOwnership(am.Ownership))
	if err != nil {
		t.Fatal(err)
	}
	am.Bind(hub, "")
	t.Cleanup(func() {
		am.StopAll("test over")
		hub.Close()
	})
	nodes := []string{am.self}
	if foreign {
		nodes = append(nodes, deadOwner)
	}
	ring, err := shardmap.NewRing(1, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if err := hub.ConfigureRing(am.self, ring); err != nil {
		t.Fatal(err)
	}
	moved, err := shardmap.NewRing(2, []string{am.self, deadOwner})
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

// newEngine is a replica at site whose engine runs until the test ends.
func newEngine(t *testing.T, site treedoc.SiteID) (*treedoc.TextBuffer, *treedoc.Engine) {
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
	return buf, eng
}

// peerEngine is an engine wired straight to the archivist's engine.
func peerEngine(t *testing.T, site treedoc.SiteID, a *Archivist) (*treedoc.TextBuffer, *treedoc.Engine) {
	t.Helper()
	buf, eng := newEngine(t, site)
	l, r := transport.ChanPair(256)
	a.Eng.Connect(l)
	eng.Connect(r)
	return buf, eng
}

// write makes buf's engine append n edits.
func write(t *testing.T, buf *treedoc.TextBuffer, eng *treedoc.Engine, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		ops, err := buf.Append(fmt.Sprintf("w%d ", i))
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Broadcast(ops...); err != nil {
			t.Fatal(err)
		}
	}
}

// fill makes a writer wired to the archivist append n edits, and returns
// the archivist's clock once it holds them all.
func fill(t *testing.T, a *Archivist, n int) vclock.VC {
	t.Helper()
	buf, eng := peerEngine(t, 7, a)
	write(t, buf, eng, n)
	waitFor(t, "the archivist to hold the writer's ops", func() bool { return a.Eng.Clock().Dominates(eng.Clock()) })
	return a.Eng.Clock()
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
	am, hub, doc := testArchive(t, false)
	a := am.Acquire(doc, 1)
	if a == nil {
		t.Fatal("no archivist")
	}
	held := fill(t, a, 50)

	// The document moves to deadOwner: the hub re-points the archivist's
	// link and fires the release.
	moved, err := shardmap.NewRing(2, []string{am.self, deadOwner})
	if err != nil {
		t.Fatal(err)
	}
	if err := hub.ConfigureRing(am.self, moved); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * handOverPoll)
	if am.Get(doc) != a || a.Eng.Clock() == nil {
		t.Fatal("the archivist stopped before any successor acknowledged it")
	}

	sbuf, seng := peerEngine(t, archiveSite(deadOwner, doc), a)
	waitFor(t, "the hand-over", func() bool { return am.Get(doc) == nil })
	if a.Eng.Clock() != nil {
		t.Fatal("the archivist left the set but its engine still runs")
	}
	if !seng.Clock().Dominates(held) || sbuf.String() != a.Buf.String() {
		t.Fatalf("successor at %v holding %d runes; the archivist held %v and %d runes",
			seng.Clock(), sbuf.Len(), held, a.Buf.Len())
	}
}

// TestStaleReleaseAfterReacquisition: a re-acquisition at a newer epoch
// cancels a hand-over in progress, and a release at an older epoch than
// the archivist's acquisition is ignored — the archivist keeps serving
// even once a successor has acknowledged everything.
func TestStaleReleaseAfterReacquisition(t *testing.T) {
	am, _, doc := testArchive(t, true)
	a := am.Acquire(doc, 1)
	if a == nil {
		t.Fatal("no archivist")
	}
	held := fill(t, a, 20)
	am.release(doc, 2) // a hand-over at epoch 2 starts waiting
	am.Acquire(doc, 3) // and a newer epoch brings the document back
	am.release(doc, 2) // stale: ignored
	successor := archiveSite(deadOwner, doc)
	peerEngine(t, successor, a)
	waitFor(t, "the successor's acknowledgement", func() bool { return a.Eng.Acked(successor).Dominates(held) })
	time.Sleep(10 * handOverPoll)
	if am.Get(doc) != a || a.Eng.Clock() == nil {
		t.Fatal("a stale release stopped the re-acquired archivist")
	}
	am.mu.Lock()
	epoch := a.epoch
	am.mu.Unlock()
	if epoch != 3 {
		t.Fatalf("acquisition epoch %d, want 3", epoch)
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

// TestRestartRestoresTheArchive is the durability probe: a writer appends
// through a server running with a log directory; a second server over the
// same directory restores the document, and a fresh reader, with the
// writer gone, catches up from the archivist by snapshot.
func TestRestartRestoresTheArchive(t *testing.T) {
	const doc = "notes"
	cfg := Config{Addr: "127.0.0.1:0", Docs: doc, Queue: 256, LogDir: t.TempDir(), CompactEvery: 64, SnapThreshold: 16, Stats: "127.0.0.1:0"}
	s, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	buf, eng := newEngine(t, 7)
	link, err := treedoc.DialDoc(s.Hub.Addr().String(), doc)
	if err != nil {
		t.Fatal(err)
	}
	eng.Connect(link)
	write(t, buf, eng, 200)
	a := s.Archive.Get(doc)
	waitFor(t, "the archivist to hold the writer's ops", func() bool { return a.Eng.Clock().Dominates(eng.Clock()) })
	want := buf.String()
	eng.Stop()
	s.Stop()

	s, err = Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	if got := s.Archive.Get(doc).Buf.String(); got != want {
		t.Fatalf("restarted archivist holds %d runes, want %d", len(got), len(want))
	}
	rbuf, reng := newEngine(t, 8)
	if link, err = treedoc.DialDoc(s.Hub.Addr().String(), doc); err != nil {
		t.Fatal(err)
	}
	reng.Connect(link)
	waitFor(t, "the reader to catch up", func() bool { return rbuf.String() == want })
	if n := reng.Stats().SnapshotsInstalled; n == 0 {
		t.Fatal("the reader caught up without installing a snapshot")
	}

	// The second server's stats endpoint answers with its own counters.
	resp, err := http.Get("http://" + s.StatsAddr + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vars struct {
		Hub     *transport.HubStats            `json:"treedoc.hub"`
		Engines map[string]treedoc.EngineStats `json:"treedoc.engines"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	if vars.Hub == nil || vars.Hub.PerDoc[doc].Clients != 2 || vars.Engines[doc].SnapshotsSent == 0 {
		t.Fatalf("/debug/vars: hub %+v, engines %+v", vars.Hub, vars.Engines)
	}
}
