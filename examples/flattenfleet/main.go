// Flattenfleet: the distributed flatten of Section 4.2.1 running over real
// TCP — not the simulator. Three replicas attach to one document on an
// in-process relay hub (the same one cmd/treedoc-serve runs); one authors
// a flatten round through Engine.ProposeFlatten. The round's intent locks
// the region at every replica; a replica acks once its own earlier edits
// are stamped, and the author flattens once every replica has acked and it
// holds their edits. So an edit racing the round is flattened with it, not
// lost; the flatten reduces every replica to a zero-overhead array and
// becomes the snapshot a late joiner catches up from without replaying
// any pre-flatten history.
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	"github.com/treedoc/treedoc"
)

type site struct {
	id  treedoc.SiteID
	buf *treedoc.TextBuffer
	eng *treedoc.Engine
}

func main() {
	hub, err := treedoc.ListenHub("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer hub.Close()

	sites := make([]*site, 3)
	for i := range sites {
		sites[i] = dialSite(hub.Addr().String(), treedoc.SiteID(i+1))
		defer sites[i].eng.Stop()
	}
	one, two := sites[0], sites[1]

	for i := 0; i < 30; i++ {
		edit(one, fmt.Sprintf("line %02d\n", i))
	}
	waitConverged(sites)
	for i := 0; i < 10; i++ { // churn: tombstones pile up under SDIS
		ops, err := two.buf.Delete(0, 8)
		must(err)
		must(two.eng.Broadcast(ops...))
	}
	waitConverged(sites)
	st := one.buf.Stats()
	fmt.Printf("before flatten: %d nodes, %d tombstones, %d bytes overhead in the paper's model, %d on the heap (%.1fx)\n",
		st.Tree.Nodes, st.Tree.DeadMinis, st.Tree.MemBytes, st.Tree.HeapBytes, st.Tree.HeapOverModel())

	// Site 2 has applied an edit its engine has not stamped yet — an
	// in-flight local edit — when site 1 proposes. Site 2 applies the
	// intent, and its region refuses further local edits, but it cannot
	// ack: its ack carries its delivered clock, which must cover the edit.
	racing, err := two.buf.Append("racing edit\n")
	must(err)
	must(one.eng.ProposeFlatten())
	waitFor(func() bool { return len(two.buf.Intents()) == 1 }, "the intent at site 2")
	_, blocked := two.buf.Append("blocked\n")
	fmt.Printf("round open: site 2 edits the region: %v; flattens applied everywhere: %d\n", blocked,
		one.eng.FlattensApplied()+two.eng.FlattensApplied()+sites[2].eng.FlattensApplied())

	// Release the edit: site 2 acks, the author waits for the edit and
	// flattens it with the rest. The OpFlatten travels the causal stream
	// as an operation, so every replica applies it in order and converges.
	must(two.eng.Broadcast(racing...))
	waitFor(func() bool {
		for _, s := range sites {
			if s.eng.FlattensApplied() == 0 {
				return false
			}
		}
		return true
	}, "commit")
	waitConverged(sites)
	fmt.Printf("committed with the racing edit flattened in: %v\n", strings.HasSuffix(one.buf.String(), "racing edit\n"))
	for _, s := range sites {
		st := s.buf.Stats()
		fmt.Printf("  site %d: %d runes, %d nodes, %d bytes overhead (zero = plain array), %d on the heap (one empty slab chunk)\n",
			s.id, st.Tree.LiveAtoms, st.Tree.Nodes, st.Tree.MemBytes, st.Tree.HeapBytes)
	}

	// A post-flatten joiner: the flatten epoch is a snapshot barrier, so
	// the newcomer installs one snapshot instead of replaying the history.
	joiner := dialSite(hub.Addr().String(), 9)
	defer joiner.eng.Stop()
	all := append(append([]*site(nil), sites...), joiner)
	waitConverged(all)
	fmt.Printf("late joiner: caught up via %d snapshot(s), replayed %d ops\n",
		joiner.eng.Stats().SnapshotsInstalled, joiner.eng.Stats().Applied)
	fmt.Println("converged with identical flattened state at all sites over TCP")
}

func dialSite(addr string, id treedoc.SiteID) *site {
	buf, err := treedoc.NewTextBuffer(treedoc.WithSite(id))
	must(err)
	eng, err := treedoc.NewEngine(id, buf,
		treedoc.WithSyncInterval(25*time.Millisecond),
		treedoc.WithFlattenTimeout(500*time.Millisecond),
		treedoc.WithSnapshotThreshold(64))
	must(err)
	link, err := treedoc.DialDoc(addr, "fleet")
	must(err)
	eng.Connect(link)
	return &site{id: id, buf: buf, eng: eng}
}

func edit(s *site, text string) {
	ops, err := s.buf.Append(text)
	must(err)
	must(s.eng.Broadcast(ops...))
}

// waitConverged polls until every replica holds the same bytes and every
// engine's delivered clock matches.
func waitConverged(sites []*site) {
	waitFor(func() bool {
		want := sites[0].buf.String()
		base := sites[0].eng.Clock()
		for _, s := range sites[1:] {
			c := s.eng.Clock()
			if s.buf.String() != want || c == nil || !c.Dominates(base) || !base.Dominates(c) {
				return false
			}
		}
		return true
	}, "convergence")
}

func waitFor(done func() bool, what string) {
	deadline := time.Now().Add(30 * time.Second)
	for !done() {
		if time.Now().After(deadline) {
			log.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
