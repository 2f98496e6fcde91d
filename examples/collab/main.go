// Collab: cooperative editing over a relay ring that reshards itself live
// — the deployment shape of the paper's peer-to-peer scenario with the
// serving tier as dynamic as the replicas. Two documents are edited
// through hub A (ring epoch 1, one node). Mid-burst, hub B joins the ring
// at epoch 2: the attached writers of the document the consistent-hash
// change relocates — and hub A's archivist with them — are re-pointed to B
// with an epoch-stamped redirect. No process restarts, no ops are lost,
// and the writers never notice: "common edit operations execute
// optimistically, with no latency; replicas synchronise only in the
// background" (Section 6).
//
// Both hubs run treedoc-serve's archive (internal/serve): hub B starts an
// archivist that catches up like any late joiner — its digest draws a
// snapshot, so it replays no pre-snapshot op — and hub A's archivist
// keeps serving until B's has acknowledged every operation A's held, and
// only then stops.
package main

import (
	"errors"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"github.com/treedoc/treedoc"
	"github.com/treedoc/treedoc/internal/serve"
	"github.com/treedoc/treedoc/internal/transport/shardmap"
)

const (
	editsPerPhase = 250
	// snapThreshold is low enough that a joiner missing phase 1 is
	// answered with a snapshot rather than an op replay.
	snapThreshold = 64
)

type site struct {
	id  treedoc.SiteID
	doc string
	buf *treedoc.TextBuffer
	eng *treedoc.Engine
}

// archiveHub starts a hub whose archivists log under dir.
func archiveHub(dir string) (*treedoc.Hub, *serve.Archive) {
	arch := serve.NewArchive(serve.Config{LogDir: dir},
		treedoc.WithSyncInterval(25*time.Millisecond), treedoc.WithSnapshotThreshold(snapThreshold))
	hub, err := treedoc.ListenHub("127.0.0.1:0", treedoc.WithHubOwnership(arch.Ownership))
	if err != nil {
		log.Fatal(err)
	}
	arch.Bind(hub, "")
	return hub, arch
}

// archivistSite is an archivist seen as one of the example's replicas.
func archivistSite(a *serve.Archivist) *site {
	return &site{id: a.Site, doc: a.Doc, buf: a.Buf, eng: a.Eng}
}

func main() {
	tmp, err := os.MkdirTemp("", "collab-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(tmp)

	// Hub A starts alone at ring epoch 1.
	hubA, arcA := archiveHub(filepath.Join(tmp, "a"))
	defer hubA.Close()
	addrA := hubA.Addr().String()
	ring1, err := shardmap.NewRing(1, []string{addrA})
	if err != nil {
		log.Fatal(err)
	}
	if err := hubA.ConfigureRing(addrA, ring1); err != nil {
		log.Fatal(err)
	}

	// Hub B is up but not yet in the ring.
	hubB, arcB := archiveHub(filepath.Join(tmp, "b"))
	defer hubB.Close()
	addrB := hubB.Addr().String()

	// Pick one document that stays on A and one the epoch-2 ring hands to
	// B — computable in advance because the diff is deterministic on every
	// process (shardmap.Moved).
	ring2, err := shardmap.NewRing(2, []string{addrA, addrB})
	if err != nil {
		log.Fatal(err)
	}
	var docStay, docMove string
	for i := 0; docStay == "" || docMove == ""; i++ {
		doc := fmt.Sprintf("doc-%d", i)
		if ring2.Owner(doc) == addrA {
			if docStay == "" {
				docStay = doc
			}
		} else if docMove == "" {
			docMove = doc
		}
	}
	fmt.Printf("hub A %s relaying at ring epoch 1; %q will stay, %q will move to B %s at epoch 2\n",
		addrA, docStay, docMove, addrB)
	archA := arcA.Acquire(docMove, 1) // the archivist that holds the history when the document moves
	if archA == nil {
		log.Fatal("BUG: hub A's archivist did not start")
	}

	dial := func(id treedoc.SiteID, doc string) *site {
		buf, err := treedoc.NewTextBuffer(treedoc.WithSite(id))
		if err != nil {
			log.Fatal(err)
		}
		eng, err := treedoc.NewEngine(id, buf, treedoc.WithSyncInterval(25*time.Millisecond),
			treedoc.WithSnapshotThreshold(snapThreshold))
		if err != nil {
			log.Fatal(err)
		}
		link, err := treedoc.DialDoc(addrA, doc)
		if err != nil {
			log.Fatal(err)
		}
		eng.Connect(link)
		return &site{id: id, doc: doc, buf: buf, eng: eng}
	}
	moving := []*site{dial(1, docMove), dial(2, docMove)}
	staying := []*site{dial(3, docStay), dial(4, docStay)}
	writers := append(append([]*site{}, moving...), staying...)

	write := func(s *site, phase int, pace time.Duration) {
		rng := rand.New(rand.NewSource(int64(s.id)*10 + int64(phase)))
		for i := 0; i < editsPerPhase; i++ {
			n := s.buf.Len()
			var ops []treedoc.Op
			var err error
			if n > 0 && rng.Intn(5) == 0 {
				ops, err = s.buf.Delete(rng.Intn(n), 1)
			} else {
				ops, err = s.buf.Insert(rng.Intn(n+1), fmt.Sprintf("%s-s%d.%d ", s.doc, s.id, i))
			}
			if errors.Is(err, treedoc.ErrOutOfRange) {
				i--
				continue
			}
			if err != nil {
				log.Fatal(err)
			}
			if err := s.eng.Broadcast(ops...); err != nil {
				log.Fatal(err)
			}
			if pace > 0 {
				time.Sleep(pace)
			}
		}
	}

	// Phase 1: everyone writes through hub A; the archivist absorbs the
	// moving document's history.
	var wg sync.WaitGroup
	for _, s := range writers {
		wg.Add(1)
		go func(s *site) { defer wg.Done(); write(s, 1, 0) }(s)
	}
	wg.Wait()
	if !converge(append([]*site{archivistSite(archA)}, moving...), 30*time.Second) || !converge(staying, 30*time.Second) {
		log.Fatal("BUG: phase 1 did not converge")
	}
	phase1VC := moving[0].eng.Clock()
	phase1Ops := phase1VC.Get(1) + phase1VC.Get(2)
	fmt.Printf("phase 1 converged: %q at %d ops, %q at %d runes\n",
		docMove, phase1Ops, docStay, staying[0].buf.Len())

	// Phase 2: writers keep editing while hub B joins the ring. Hub A
	// adopts the announced epoch-2 ring and re-points the attached writers
	// and its archivist to B — live.
	for _, s := range writers {
		wg.Add(1)
		go func(s *site) { defer wg.Done(); write(s, 2, time.Millisecond) }(s)
	}
	time.Sleep(25 * time.Millisecond)
	fmt.Printf("hub B joining the ring at epoch 2 with writers active...\n")
	if err := hubB.ConfigureRing(addrB, ring2); err != nil {
		log.Fatal(err)
	}
	wg.Wait()

	for deadline := time.Now().Add(10 * time.Second); arcB.Get(docMove) == nil; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			log.Fatal("BUG: hub B never acquired the moving document")
		}
	}
	archB := archivistSite(arcB.Get(docMove))
	if !converge(append([]*site{archB}, moving...), 30*time.Second) || !converge(staying, 30*time.Second) {
		log.Fatal("BUG: phase 2 did not converge")
	}

	// Byte-identical everywhere, including the new owner's archivist.
	for _, group := range [][]*site{append([]*site{archB}, moving...), staying} {
		want := group[0].buf.String()
		for _, s := range group {
			if s.buf.String() != want {
				log.Fatalf("BUG: site %d diverged on doc %q", s.id, s.doc)
			}
			if err := s.buf.Check(); err != nil {
				log.Fatal(err)
			}
		}
	}
	if strings.Contains(moving[0].buf.String(), docStay+"-s") ||
		strings.Contains(staying[0].buf.String(), docMove+"-s") {
		log.Fatal("BUG: content leaked across documents")
	}

	totalVC := moving[0].eng.Clock()
	total := totalVC.Get(1) + totalVC.Get(2)
	fmt.Printf("converged after live reshard: %q=%d runes on 3 replicas, %q=%d runes on 2 replicas\n",
		docMove, moving[0].buf.Len(), docStay, staying[0].buf.Len())
	st := archB.eng.Stats()
	fmt.Printf("new owner archivist: %d snapshots installed, %d of %d ops replayed live (phase 1's %d came via a snapshot)\n",
		st.SnapshotsInstalled, st.Applied, total, phase1Ops)
	if st.SnapshotsInstalled == 0 {
		log.Fatal("BUG: new owner archivist never installed a catch-up snapshot")
	}
	if st.Applied > total-phase1Ops {
		log.Fatal("BUG: new owner archivist replayed pre-snapshot ops")
	}
	fmt.Printf("hub A: ring epoch %d, %d handoffs out, %d forwarded frames; hub B: %d handoffs in\n",
		hubA.RingEpoch(), hubA.Stats().HandoffsOut, hubA.Stats().Forwards, hubB.Stats().HandoffsIn)

	// Hub A's archivist stops once B's has acknowledged what it held.
	select {
	case <-archA.Done():
	case <-time.After(30 * time.Second):
		log.Fatal("BUG: the old owner's archivist never handed over")
	}
	held, acked := archA.HandOver()
	if !acked.Dominates(held) {
		log.Fatalf("BUG: the old owner's archivist stopped at %v on acknowledgement %v", held, acked)
	}
	fmt.Printf("hub A's archivist stopped: hub B's acknowledged %v, covering the %v it held\n", acked, held)
	for _, s := range writers {
		s.eng.Stop()
	}
	arcB.StopAll("example over")
}

// converge polls until every engine's delivered clock in the group is
// identical (all broadcast operations applied everywhere) or the deadline
// passes.
func converge(sites []*site, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		clocks := make([]string, len(sites))
		for i, s := range sites {
			clocks[i] = s.eng.Clock().String()
		}
		same := true
		for _, c := range clocks[1:] {
			if c != clocks[0] {
				same = false
				break
			}
		}
		if same {
			return true
		}
		time.Sleep(20 * time.Millisecond)
	}
	return false
}
