package transport_test

// Multi-document hub suite: one hub process relays several independent
// documents at once, each in its own relay group, with zero cross-document
// leakage; and two cooperating hub processes split the document space by
// consistent hashing, redirecting attaches for documents they do not own.
// Run under `go test -race`: writers for different documents interleave
// through the same hub connections and shard structures.

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/treedoc/treedoc"
	"github.com/treedoc/treedoc/internal/transport/shardmap"
)

const mdEditsPerWriter = 150

// mdSite is one writer replica attached to a named document.
type mdSite struct {
	id     treedoc.SiteID
	doc    string
	marker string // every insert carries this sigil, unique per doc
	buf    *treedoc.TextBuffer
	eng    *treedoc.Engine
}

func newMDSite(t testing.TB, id treedoc.SiteID, doc, marker string, link treedoc.Link) *mdSite {
	t.Helper()
	buf, err := treedoc.NewTextBuffer(treedoc.WithSite(id))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := treedoc.NewEngine(id, buf, treedoc.WithSyncInterval(15*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	eng.Connect(link)
	return &mdSite{id: id, doc: doc, marker: marker, buf: buf, eng: eng}
}

// write floods the site's document with marker-tagged inserts and
// occasional deletes from its own goroutine.
func (s *mdSite) write(t testing.TB) {
	rng := rand.New(rand.NewSource(int64(s.id)))
	for i := 0; i < mdEditsPerWriter; i++ {
		n := s.buf.Len()
		var ops []treedoc.Op
		var err error
		if n > 0 && rng.Intn(5) == 0 {
			ops, err = s.buf.Delete(rng.Intn(n), 1)
		} else {
			ops, err = s.buf.Insert(rng.Intn(n+1), fmt.Sprintf("%s%d.%d ", s.marker, s.id, i))
		}
		if errors.Is(err, treedoc.ErrOutOfRange) {
			i--
			continue
		}
		if err != nil {
			t.Errorf("site %d: %v", s.id, err)
			return
		}
		if err := s.eng.Broadcast(ops...); err != nil {
			t.Errorf("site %d: %v", s.id, err)
			return
		}
	}
}

// mdConverge polls until every engine in the group reports the same
// delivered clock.
func mdConverge(t testing.TB, sites []*mdSite, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		same := true
		first := sites[0].eng.Clock().String()
		for _, s := range sites[1:] {
			if s.eng.Clock().String() != first {
				same = false
				break
			}
		}
		if same {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("doc %q: writers did not converge within %v", sites[0].doc, timeout)
}

// TestHubMultiDocIsolation drives two independent documents through one
// hub process with interleaved writers and asserts byte-identical per-doc
// convergence and zero cross-doc frame leakage.
func TestHubMultiDocIsolation(t *testing.T) {
	hub, err := treedoc.ListenHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	addr := hub.Addr().String()

	dial := func(id treedoc.SiteID, doc, marker string) *mdSite {
		link, err := treedoc.DialDoc(addr, doc)
		if err != nil {
			t.Fatal(err)
		}
		return newMDSite(t, id, doc, marker, link)
	}
	alpha := []*mdSite{dial(1, "alpha", "a"), dial(2, "alpha", "a")}
	beta := []*mdSite{dial(3, "beta", "b"), dial(4, "beta", "b")}
	all := append(append([]*mdSite{}, alpha...), beta...)
	defer func() {
		for _, s := range all {
			s.eng.Stop()
		}
	}()

	var wg sync.WaitGroup
	for _, s := range all {
		wg.Add(1)
		go func(s *mdSite) {
			defer wg.Done()
			s.write(t)
		}(s)
	}
	wg.Wait()

	mdConverge(t, alpha, 30*time.Second)
	mdConverge(t, beta, 30*time.Second)

	for _, group := range [][]*mdSite{alpha, beta} {
		want := group[0].buf.String()
		for _, s := range group[1:] {
			if got := s.buf.String(); got != want {
				t.Fatalf("doc %q: site %d diverged (%d vs %d runes)", s.doc, s.id, len(got), len(want))
			}
		}
	}

	// Zero cross-doc leakage: no beta marker in any alpha replica and vice
	// versa, and no alpha engine ever delivered an op stamped by a beta
	// site (the clocks stay disjoint).
	alphaText, betaText := alpha[0].buf.String(), beta[0].buf.String()
	if strings.Contains(alphaText, "b3.") || strings.Contains(alphaText, "b4.") {
		t.Fatal("beta content leaked into alpha")
	}
	if strings.Contains(betaText, "a1.") || strings.Contains(betaText, "a2.") {
		t.Fatal("alpha content leaked into beta")
	}
	for _, s := range alpha {
		vc := s.eng.Clock()
		if vc.Get(3) != 0 || vc.Get(4) != 0 {
			t.Fatalf("alpha site %d delivered beta ops: clock %s", s.id, vc)
		}
	}
	for _, s := range beta {
		vc := s.eng.Clock()
		if vc.Get(1) != 0 || vc.Get(2) != 0 {
			t.Fatalf("beta site %d delivered alpha ops: clock %s", s.id, vc)
		}
	}

	stats := hub.DocStats()
	for _, doc := range []string{"alpha", "beta"} {
		st, ok := stats[doc]
		if !ok || st.Relays == 0 {
			t.Fatalf("hub relayed nothing for doc %q: %+v", doc, stats)
		}
		if st.Clients != 2 {
			t.Fatalf("doc %q has %d attached clients, want 2", doc, st.Clients)
		}
	}
}

// TestShardedHubsRouteAttaches runs two cooperating hub processes
// splitting the document space: every client dials the first hub, and
// attaches for documents the second hub owns are redirected and followed
// transparently. Each hub relays only the documents it owns.
func TestShardedHubsRouteAttaches(t *testing.T) {
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
	peers := []string{addrA, addrB}
	if err := hubA.ConfigureSharding(addrA, peers); err != nil {
		t.Fatal(err)
	}
	if err := hubB.ConfigureSharding(addrB, peers); err != nil {
		t.Fatal(err)
	}

	// Pick one document owned by each hub, exactly as the hubs will see it.
	ring, err := shardmap.New(peers, 0)
	if err != nil {
		t.Fatal(err)
	}
	var docA, docB string
	for i := 0; docA == "" || docB == ""; i++ {
		doc := fmt.Sprintf("doc-%d", i)
		switch ring.Owner(doc) {
		case addrA:
			if docA == "" {
				docA = doc
			}
		case addrB:
			if docB == "" {
				docB = doc
			}
		}
	}

	// All clients dial hubA; attaches for docB must be redirected to hubB.
	// One client uses a multi-doc session with a link per document.
	sess := treedoc.DialSession(addrA)
	defer sess.Close()
	linkA1, err := sess.Attach(docA)
	if err != nil {
		t.Fatal(err)
	}
	linkB1, err := sess.Attach(docB)
	if err != nil {
		t.Fatal(err)
	}
	linkA2, err := treedoc.DialDoc(addrA, docA)
	if err != nil {
		t.Fatal(err)
	}
	linkB2, err := treedoc.DialDoc(addrA, docB)
	if err != nil {
		t.Fatal(err)
	}

	groupA := []*mdSite{newMDSite(t, 1, docA, "a", linkA1), newMDSite(t, 2, docA, "a", linkA2)}
	groupB := []*mdSite{newMDSite(t, 3, docB, "b", linkB1), newMDSite(t, 4, docB, "b", linkB2)}
	all := append(append([]*mdSite{}, groupA...), groupB...)
	defer func() {
		for _, s := range all {
			s.eng.Stop()
		}
	}()

	var wg sync.WaitGroup
	for _, s := range all {
		wg.Add(1)
		go func(s *mdSite) {
			defer wg.Done()
			s.write(t)
		}(s)
	}
	wg.Wait()
	mdConverge(t, groupA, 30*time.Second)
	mdConverge(t, groupB, 30*time.Second)
	for _, group := range [][]*mdSite{groupA, groupB} {
		if group[0].buf.String() != group[1].buf.String() {
			t.Fatalf("doc %q diverged across its shard", group[0].doc)
		}
	}

	// Each hub served exactly the documents it owns.
	statsA, statsB := hubA.DocStats(), hubB.DocStats()
	if st := statsA[docA]; st.Relays == 0 || st.Clients != 2 {
		t.Fatalf("hub A did not serve its own doc %q: %+v", docA, statsA)
	}
	if st, ok := statsA[docB]; ok && (st.Clients > 0 || st.Relays > 0) {
		t.Fatalf("hub A relayed foreign doc %q: %+v", docB, st)
	}
	if st := statsB[docB]; st.Relays == 0 || st.Clients != 2 {
		t.Fatalf("hub B did not serve its own doc %q: %+v", docB, statsB)
	}
	if st, ok := statsB[docA]; ok && (st.Clients > 0 || st.Relays > 0) {
		t.Fatalf("hub B relayed foreign doc %q: %+v", docA, st)
	}
}
