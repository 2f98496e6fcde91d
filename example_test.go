package treedoc_test

import (
	"fmt"
	"log"
	"time"

	"github.com/treedoc/treedoc"
)

// waitUntil polls a condition with a deadline, for examples that span
// real replication engines.
func waitUntil(cond func() bool) {
	deadline := time.Now().Add(30 * time.Second)
	for !cond() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
}

// Two replicas edit concurrently and converge by exchanging operations.
func Example() {
	alice, err := treedoc.New(treedoc.WithSite(1))
	if err != nil {
		log.Fatal(err)
	}
	bob, err := treedoc.New(treedoc.WithSite(2))
	if err != nil {
		log.Fatal(err)
	}

	op1, _ := alice.InsertAt(0, "hello")
	op2, _ := alice.Append("world")
	_ = bob.Apply(op1)
	_ = bob.Apply(op2)

	// Concurrent edits commute.
	opA, _ := alice.InsertAt(1, "brave")
	opB, _ := bob.Append("!")
	_ = alice.Apply(opB)
	_ = bob.Apply(opA)

	fmt.Println(alice.ContentString())
	fmt.Println(alice.ContentString() == bob.ContentString())
	// Output:
	// hello
	// brave
	// world
	// !
	// true
}

// Operations serialise for transport with encoding.BinaryMarshaler.
func ExampleOp() {
	d, _ := treedoc.New(treedoc.WithSite(1))
	op, _ := d.InsertAt(0, "payload")

	wire, _ := op.MarshalBinary()
	var received treedoc.Op
	_ = received.UnmarshalBinary(wire)

	peer, _ := treedoc.New(treedoc.WithSite(2))
	_ = peer.Apply(received)
	fmt.Println(peer.ContentString())
	// Output:
	// payload
}

// Flatten compacts a quiescent document to a plain array with zero
// metadata overhead.
func ExampleDoc_Flatten() {
	d, _ := treedoc.New(treedoc.WithSite(1))
	for i := 0; i < 100; i++ {
		_, _ = d.Append("line")
	}
	for i := 0; i < 40; i++ {
		_, _ = d.DeleteAt(0) // tombstones pile up under SDIS
	}
	before := d.Stats()
	_ = d.Flatten()
	after := d.Stats()
	fmt.Println(before.Tree.DeadMinis > 0, after.Tree.DeadMinis, after.Tree.MemBytes)
	// Output:
	// true 0 0
}

// TextBuffer adapts a replica to a text editor's splice interface.
func ExampleTextBuffer() {
	buf, _ := treedoc.NewTextBuffer(treedoc.WithSite(1))
	_, _ = buf.Append("hello world")
	_, _ = buf.Splice(6, 5, "treedoc") // replace "world"
	fmt.Println(buf.String())
	// Output:
	// hello treedoc
}

// A simulated cluster replicates edits through causal broadcast and
// runs flatten as a round of stamped operations.
func ExampleCluster() {
	cluster, _ := treedoc.NewCluster(3, treedoc.WithSeed(1))
	r1, _ := cluster.Replica(1)
	for i, s := range []string{"a", "b", "c"} {
		_ = r1.InsertAt(i, s)
	}
	cluster.Run(0) // deliver everything

	r3, _ := cluster.Replica(3)
	fmt.Println(r3.ContentString())
	fmt.Println(cluster.Converged())
	// Output:
	// a
	// b
	// c
	// true
}

// Flatten runs over live replication engines, not just the simulator:
// ProposeFlatten runs a flatten round between the engines — its intent,
// its OpFlatten and its abort travel the causal stream like any operation,
// the OpFlatten ordered before every post-flatten edit at every replica.
func ExampleEngine_ProposeFlatten() {
	alice, _ := treedoc.NewTextBuffer(treedoc.WithSite(1))
	bob, _ := treedoc.NewTextBuffer(treedoc.WithSite(2))
	ea, _ := treedoc.NewEngine(1, alice, treedoc.WithSyncInterval(10*time.Millisecond))
	eb, _ := treedoc.NewEngine(2, bob, treedoc.WithSyncInterval(10*time.Millisecond))
	defer ea.Stop()
	defer eb.Stop()
	la, lb := treedoc.NewChanPair(64)
	ea.Connect(la)
	eb.Connect(lb)

	ops, _ := alice.Append("shared document with history")
	_ = ea.Broadcast(ops...)
	waitUntil(func() bool { return bob.String() == alice.String() })
	ops, _ = bob.Delete(0, 7) // deletes leave tombstones under SDIS
	_ = eb.Broadcast(ops...)
	waitUntil(func() bool { return alice.String() == bob.String() })

	// Two-phase commit across the engines; the commit compacts everyone.
	_ = ea.ProposeFlatten()
	waitUntil(func() bool { return ea.FlattensApplied() == 1 && eb.FlattensApplied() == 1 })

	fmt.Println(alice.String())
	fmt.Println(alice.Stats().Tree.MemBytes, bob.Stats().Tree.MemBytes)
	// Output:
	// document with history
	// 0 0
}

// One process can replicate many documents over a single hub
// connection: a Session multiplexes per-document links, each feeding
// its own engine+replica pair. This is the fan-in shape cmd/treedoc-load
// drives at scale — thousands of client sessions sharing a bounded dial
// pool against a sharded hub fleet.
func ExampleDialSession() {
	hub, _ := treedoc.ListenHub("127.0.0.1:0")
	defer hub.Close()
	addr := hub.Addr().String()

	// Two processes' worth of clients, each editing both documents
	// through one TCP connection.
	type replica struct {
		buf *treedoc.TextBuffer
		eng *treedoc.Engine
	}
	fleet := make(map[string][]replica) // doc -> its replicas
	for i, sess := range []*treedoc.Session{treedoc.DialSession(addr), treedoc.DialSession(addr)} {
		defer sess.Close()
		for _, doc := range []string{"notes", "wiki"} {
			site := treedoc.SiteID(2*i + len(doc)%2 + 1) // unique per (session, doc)
			buf, _ := treedoc.NewTextBuffer(treedoc.WithSite(site))
			eng, _ := treedoc.NewEngine(site, buf, treedoc.WithSyncInterval(20*time.Millisecond))
			defer eng.Stop()
			link, _ := sess.Attach(doc)
			eng.Connect(link)
			fleet[doc] = append(fleet[doc], replica{buf, eng})
		}
	}

	// The first replica of each document writes; the hub relays within
	// each document's group only.
	for doc, group := range fleet {
		ops, _ := group[0].buf.Append(doc + " content")
		_ = group[0].eng.Broadcast(ops...)
	}
	waitUntil(func() bool {
		for _, group := range fleet {
			if group[1].buf.String() != group[0].buf.String() {
				return false
			}
		}
		return true
	})

	fmt.Println(fleet["notes"][1].buf.String())
	fmt.Println(fleet["wiki"][1].buf.String())
	// Output:
	// notes content
	// wiki content
}

// Snapshots persist a replica, including the allocation state it needs to
// keep minting fresh identifiers after a restart.
func ExampleOpen() {
	d, _ := treedoc.New(treedoc.WithSite(9), treedoc.WithMode(treedoc.UDIS))
	_, _ = d.Append("persists")
	data, _ := d.MarshalBinary()

	restored, err := treedoc.Open(data)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(restored.ContentString(), restored.Site())
	// Output:
	// persists 9
}
