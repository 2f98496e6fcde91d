// Flattenfleet: the distributed flatten commitment protocol of Section
// 4.2.1 running over real TCP — not the simulator. Three replicas attach
// to one document on an in-process relay hub (the same one
// cmd/treedoc-serve runs); one proposes compacting the document through
// Engine.ProposeFlatten. A proposal racing a concurrent edit aborts
// harmlessly ("a conflicting edit causes a flatten to abort, leaving no
// side-effects"); a proposal on a quiescent document commits everywhere,
// reduces every replica to a zero-overhead array, and becomes the
// snapshot a late joiner catches up from without replaying any
// pre-flatten history.
package main

import (
	"fmt"
	"log"
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

	// Attempt 1: site 2 has applied an edit its engine has not stamped yet
	// — an in-flight local edit. Site 2 votes No and the proposal aborts
	// with no side effects.
	racing, err := two.buf.Append("racing edit\n")
	must(err)
	must(one.eng.ProposeFlatten())
	waitFor(func() bool { return one.eng.FlattensAborted() == 1 }, "abort")
	fmt.Printf("racing proposal: aborted (flattens applied everywhere: %d)\n",
		one.eng.FlattensApplied()+two.eng.FlattensApplied()+sites[2].eng.FlattensApplied())

	// Attempt 2: release the edit, quiesce, retry — unanimous Yes. The
	// committed flatten travels the causal stream as an operation, so
	// every replica applies it in order and converges.
	must(two.eng.Broadcast(racing...))
	waitConverged(sites)
	must(one.eng.ProposeFlatten())
	waitFor(func() bool {
		for _, s := range sites {
			if s.eng.FlattensApplied() == 0 {
				return false
			}
		}
		return true
	}, "commit")
	waitConverged(sites)
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
		joiner.eng.SnapshotsInstalled(), joiner.eng.Applied())
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
