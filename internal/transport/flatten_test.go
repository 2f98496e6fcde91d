package transport_test

// Engine-run flatten over live links: the flatten round (flatten.go)
// driven from the engine actor over real transports.
// The headline test is the acceptance scenario for this subsystem: a
// 3-replica TCP mesh with writers that keep editing while cold-subtree
// flattens are proposed, at least one commit, byte-identical convergence,
// and a post-flatten joiner that catches up from the flatten-epoch
// snapshot without replaying pre-flatten operations. Run under
// `go test -race`.

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/treedoc/treedoc"
	"github.com/treedoc/treedoc/internal/transport"
)

type flatSite struct {
	id  treedoc.SiteID
	buf *treedoc.TextBuffer
	eng *treedoc.Engine
}

func newFlatSite(t testing.TB, id treedoc.SiteID, opts ...treedoc.EngineOption) *flatSite {
	t.Helper()
	buf, err := treedoc.NewTextBuffer(treedoc.WithSite(id))
	if err != nil {
		t.Fatal(err)
	}
	base := []treedoc.EngineOption{
		treedoc.WithSyncInterval(15 * time.Millisecond),
		treedoc.WithFlattenTimeout(250 * time.Millisecond),
	}
	eng, err := treedoc.NewEngine(id, buf, append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return &flatSite{id: id, buf: buf, eng: eng}
}

// tcpPair returns the two ends of one real TCP loopback connection,
// framed as engine links.
func tcpPair(t testing.TB) (treedoc.Link, treedoc.Link) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type accepted struct {
		conn net.Conn
		err  error
	}
	ch := make(chan accepted, 1)
	go func() {
		conn, err := ln.Accept()
		ch <- accepted{conn, err}
	}()
	dialSide, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	acc := <-ch
	if acc.err != nil {
		t.Fatal(acc.err)
	}
	return transport.NewTCPLink(dialSide), transport.NewTCPLink(acc.conn)
}

// meshTCP wires every pair of sites with its own TCP loopback connection.
func meshTCP(t testing.TB, sites []*flatSite) {
	t.Helper()
	for i := 0; i < len(sites); i++ {
		for j := i + 1; j < len(sites); j++ {
			a, b := tcpPair(t)
			sites[i].eng.Connect(a)
			sites[j].eng.Connect(b)
		}
	}
}

func meshChan(sites []*flatSite) {
	for i := 0; i < len(sites); i++ {
		for j := i + 1; j < len(sites); j++ {
			a, b := treedoc.NewChanPair(128)
			sites[i].eng.Connect(a)
			sites[j].eng.Connect(b)
		}
	}
}

func stopFlatSites(sites []*flatSite) {
	for _, s := range sites {
		s.eng.Stop()
	}
}

// waitContentEqual polls until every replica holds identical, non-empty
// bytes and every engine's delivered clock matches every other's.
func waitContentEqual(t testing.TB, sites []*flatSite, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		equal := true
		want := sites[0].buf.String()
		for _, s := range sites[1:] {
			if s.buf.String() != want {
				equal = false
				break
			}
		}
		if equal {
			base := sites[0].eng.Clock()
			for _, s := range sites[1:] {
				c := s.eng.Clock()
				if c == nil || base == nil || !c.Dominates(base) || !base.Dominates(c) {
					equal = false
					break
				}
			}
		}
		if equal {
			return
		}
		if time.Now().After(deadline) {
			for _, s := range sites {
				t.Logf("site %d: clock %v len %d applied %d flattens %d",
					s.id, s.eng.Clock(), s.buf.Len(), s.eng.Stats().Applied, s.eng.FlattensApplied())
			}
			t.Fatal("replicas did not converge within deadline")
		}
		time.Sleep(15 * time.Millisecond)
	}
}

func checkFlatSites(t testing.TB, sites []*flatSite) {
	t.Helper()
	for _, s := range sites {
		if err := s.buf.Check(); err != nil {
			t.Fatalf("site %d invariants: %v", s.id, err)
		}
		if err := s.eng.Err(); err != nil {
			t.Fatalf("site %d engine error: %v", s.id, err)
		}
	}
}

// broadcast is a must-style edit helper.
func (s *flatSite) broadcast(t testing.TB, ops []treedoc.Op, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("site %d edit: %v", s.id, err)
	}
	if err := s.eng.Broadcast(ops...); err != nil {
		t.Fatalf("site %d broadcast: %v", s.id, err)
	}
}

// TestFlattenWholeDocCommitsOnQuiescentMesh is the transport twin of the
// simulator's flattenfleet scenario: seed a document with tombstone
// churn, quiesce, propose a whole-document flatten, and watch the commit
// reduce every replica to a zero-overhead array.
func TestFlattenWholeDocCommitsOnQuiescentMesh(t *testing.T) {
	sites := []*flatSite{newFlatSite(t, 1), newFlatSite(t, 2), newFlatSite(t, 3)}
	defer stopFlatSites(sites)
	meshChan(sites)

	ops, err := sites[0].buf.Append("the quick brown fox jumps over the lazy dog")
	sites[0].broadcast(t, ops, err)
	waitContentEqual(t, sites, 20*time.Second)
	ops, err = sites[1].buf.Delete(0, 10) // tombstones under SDIS
	sites[1].broadcast(t, ops, err)
	waitContentEqual(t, sites, 20*time.Second)

	before := sites[0].buf.Stats()
	if before.Tree.DeadMinis == 0 {
		t.Fatal("seed phase left no tombstones to collect")
	}
	if err := sites[0].eng.ProposeFlatten(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		done := true
		for _, s := range sites {
			if s.eng.FlattensApplied() == 0 {
				done = false
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("flatten did not commit: committed=%d aborted=%d",
				sites[0].eng.Stats().FlattensCommitted, sites[0].eng.FlattensAborted())
		}
		time.Sleep(10 * time.Millisecond)
	}
	waitContentEqual(t, sites, 20*time.Second)
	checkFlatSites(t, sites)
	if got := sites[0].eng.Stats().FlattensCommitted; got != 1 {
		t.Fatalf("FlattensCommitted = %d, want 1", got)
	}
	for _, s := range sites {
		st := s.buf.Stats()
		if st.Tree.DeadMinis != 0 || st.Tree.MemBytes != 0 {
			t.Fatalf("site %d not flattened: %d tombstones, %d overhead bytes",
				s.id, st.Tree.DeadMinis, st.Tree.MemBytes)
		}
	}
}

// TestFlattenAbortsOnInFlightLocalEdit pins the ack rule that makes the
// round safe without intercepting local edits: an edit applied to a
// member's replica but not yet stamped by its actor keeps the member from
// acking, so the round waits for it instead of flattening without it. The
// edit is deliberately held un-broadcast until the intent is pending at the
// member; once stamped, it is in the flattened content at both replicas.
func TestFlattenAbortsOnInFlightLocalEdit(t *testing.T) {
	sites := []*flatSite{newFlatSite(t, 1, treedoc.WithFlattenTimeout(time.Minute)), newFlatSite(t, 2)}
	defer stopFlatSites(sites)
	meshChan(sites)

	ops, err := sites[0].buf.Append("stable prefix")
	sites[0].broadcast(t, ops, err)
	waitContentEqual(t, sites, 20*time.Second)

	// Site 2 edits but does not broadcast yet: applied version is now ahead
	// of the delivered clock at site 2.
	held, err := sites[1].buf.Append("!")
	if err != nil {
		t.Fatal(err)
	}
	if err := sites[0].eng.ProposeFlatten(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(20 * time.Second); len(sites[1].buf.Intents()) == 0; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the intent never reached site 2")
		}
	}
	time.Sleep(100 * time.Millisecond) // several sync ticks: site 2 re-checks its ack each
	if c, a := sites[0].eng.Stats().FlattensCommitted, sites[0].eng.FlattensAborted(); c != 0 || a != 0 {
		t.Fatalf("with site 2's edit unstamped: committed %d, aborted %d; want the round open", c, a)
	}

	// Release the held edit: site 2 acks, and the round flattens it.
	if err := sites[1].eng.Broadcast(held...); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for sites[0].eng.FlattensApplied() == 0 || sites[1].eng.FlattensApplied() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("the round did not commit: committed=%d aborted=%d",
				sites[0].eng.Stats().FlattensCommitted, sites[0].eng.FlattensAborted())
		}
		time.Sleep(10 * time.Millisecond)
	}
	waitContentEqual(t, sites, 20*time.Second)
	checkFlatSites(t, sites)
	for _, s := range sites {
		if got := s.buf.String(); got != "stable prefix!" || s.buf.Stats().Tree.Nodes != 0 {
			t.Fatalf("site %d holds %q in %d nodes, want the held edit flattened", s.id, got, s.buf.Stats().Tree.Nodes)
		}
	}
}

// dropAcks is a link that loses every flatten ack its engine sends: the
// engine acks, and no author ever hears it.
type dropAcks struct{ treedoc.Link }

func (l dropAcks) Send(frame []byte) error {
	if f, err := transport.DecodeFrame(frame); err == nil {
		if _, ack := f.(*transport.FlatAckFrame); ack {
			return nil
		}
	}
	return l.Link.Send(frame)
}

// TestFlattenCommitsUnderConcurrentWritersTCPMesh is the acceptance
// scenario: three replicas on a real TCP loopback mesh, writers that keep
// appending while cold-subtree flattens are proposed until one commits,
// byte-identical convergence afterwards, and a fourth replica that joins
// post-flatten and catches up via the flatten-epoch snapshot without
// replaying pre-flatten operations.
func TestFlattenCommitsUnderConcurrentWritersTCPMesh(t *testing.T) {
	snapOpt := treedoc.WithSnapshotThreshold(64)
	sites := []*flatSite{
		newFlatSite(t, 1, snapOpt),
		newFlatSite(t, 2, snapOpt),
		newFlatSite(t, 3, snapOpt),
	}
	defer stopFlatSites(sites)
	meshTCP(t, sites)

	// Seed history: a block of text, then heavy front churn so the early
	// region is tombstone-rich — the flatten's payoff.
	for i := 0; i < 30; i++ {
		ops, err := sites[0].buf.Append("all work and no play makes treedoc a dull doc\n")
		sites[0].broadcast(t, ops, err)
	}
	waitContentEqual(t, sites, 30*time.Second)
	for i := 0; i < 20; i++ {
		ops, err := sites[1].buf.Delete(0, 20)
		sites[1].broadcast(t, ops, err)
	}
	waitContentEqual(t, sites, 30*time.Second)

	// Writers keep appending at the tail for the whole flatten phase.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, s := range sites {
		wg.Add(1)
		go func(s *flatSite) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ops, err := s.buf.Append("+tail")
				if err != nil {
					if errors.Is(err, treedoc.ErrRegionLocked) {
						time.Sleep(time.Millisecond)
						continue
					}
					t.Errorf("site %d writer: %v", s.id, err)
					return
				}
				if err := s.eng.Broadcast(ops...); err != nil {
					t.Errorf("site %d writer: %v", s.id, err)
					return
				}
				// A human-ish cadence: continuous editing, but with room for
				// the actor to stamp each burst — on a single-CPU -race run a
				// tighter loop would keep every ack's applied-version check
				// behind and starve the round of acks.
				time.Sleep(5 * time.Millisecond)
			}
		}(s)
	}

	// Propose cold-subtree flattens from site 1 until one commits. The
	// writers only touch the tail, so the churned front goes cold as the
	// revision clock advances; any proposal that races an in-flight edit
	// aborts harmlessly and is retried.
	committed := false
	proposeDeadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(proposeDeadline) {
		sites[0].buf.EndRevision()
		before := sites[0].eng.Stats().FlattensCommitted + sites[0].eng.FlattensAborted()
		ok, err := sites[0].eng.ProposeFlattenCold(2)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			time.Sleep(50 * time.Millisecond)
			continue
		}
		// Wait for this round to decide, then retry immediately on abort.
		for sites[0].eng.Stats().FlattensCommitted+sites[0].eng.FlattensAborted() == before &&
			time.Now().Before(proposeDeadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if sites[0].eng.Stats().FlattensCommitted > 0 {
			committed = true
			break
		}
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	if !committed {
		t.Fatalf("no flatten committed while writers ran: aborted=%d",
			sites[0].eng.FlattensAborted())
	}

	waitContentEqual(t, sites, 60*time.Second)
	checkFlatSites(t, sites)
	for _, s := range sites {
		if s.eng.FlattensApplied() == 0 {
			t.Fatalf("site %d never applied the committed flatten", s.id)
		}
	}
	t.Logf("flatten committed with writers live: committed=%d aborted=%d applied=[%d %d %d]",
		sites[0].eng.Stats().FlattensCommitted, sites[0].eng.FlattensAborted(),
		sites[0].eng.FlattensApplied(), sites[1].eng.FlattensApplied(), sites[2].eng.FlattensApplied())

	// Post-flatten joiner: catches up via the flatten-epoch snapshot.
	var totalOps uint64
	for _, n := range sites[0].eng.Clock() {
		totalOps += n
	}
	joiner := newFlatSite(t, 4, snapOpt)
	defer joiner.eng.Stop()
	ja, jb := tcpPair(t)
	sites[0].eng.Connect(ja)
	joiner.eng.Connect(jb)
	all := append(append([]*flatSite(nil), sites...), joiner)
	waitContentEqual(t, all, 60*time.Second)
	checkFlatSites(t, all)

	if got := joiner.eng.Stats().SnapshotsInstalled; got == 0 {
		t.Fatal("joiner caught up without a snapshot")
	}
	if got := joiner.eng.FlattensApplied(); got != 0 {
		t.Fatalf("joiner replayed %d pre-snapshot flattens; the flatten epoch should be inside the snapshot", got)
	}
	if applied := joiner.eng.Stats().Applied; applied >= totalOps {
		t.Fatalf("joiner replayed %d ops of %d total; snapshot catch-up should skip the pre-flatten history", applied, totalOps)
	}
	t.Logf("joiner: %d snapshot(s), %d ops replayed of %d total", joiner.eng.Stats().SnapshotsInstalled, joiner.eng.Stats().Applied, totalOps)
}

// opsOnly is a writer's link to a hub that carries the writer's operations
// and nothing else: none of its digests reaches any member, and nothing
// reaches the writer.
type opsOnly struct {
	hub    treedoc.Link
	closed chan struct{}
	once   sync.Once
}

func (l *opsOnly) Send(frame []byte) error {
	if f, err := transport.DecodeFrame(frame); err == nil {
		if _, ok := f.(*transport.OpsFrame); ok {
			return l.hub.Send(frame)
		}
	}
	return nil
}

func (l *opsOnly) Recv() ([]byte, error) {
	<-l.closed
	return nil, errors.New("opsOnly: closed")
}

func (l *opsOnly) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

// TestRoundWaitsOnAWriterWithoutADigest: a hub relays each digest to a
// sample of a large group only, so a janitor can apply a writer's edits
// without ever receiving the writer's digest. Here the writer sends none
// at all. It is a member all the same — the round the janitor opens
// waits on its ack, aborts at the deadline while it is silent, and
// commits once it acks — or its concurrent edits to the flattened region
// would diverge.
func TestRoundWaitsOnAWriterWithoutADigest(t *testing.T) {
	hub, err := transport.ListenHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	const doc, writer = "janitor", treedoc.SiteID(9)
	sites := []*flatSite{newFlatSite(t, 1, treedoc.WithFlattenTimeout(time.Second))}
	for id := treedoc.SiteID(2); id <= 5; id++ {
		sites = append(sites, newFlatSite(t, id))
	}
	defer stopFlatSites(sites)
	for _, s := range sites {
		link, err := treedoc.DialDoc(hub.Addr().String(), doc)
		if err != nil {
			t.Fatal(err)
		}
		s.eng.Connect(link)
	}
	janitor := sites[0]

	wlink, err := treedoc.DialDoc(hub.Addr().String(), doc)
	if err != nil {
		t.Fatal(err)
	}
	defer wlink.Close()
	// rounds carries the janitor's round operations, in the order it sent
	// them.
	rounds := make(chan treedoc.Op, 64)
	go func() {
		for {
			b, err := wlink.Recv()
			if err != nil {
				return
			}
			if f, ok := decodeOrNil(b).(*transport.OpsFrame); ok {
				for _, m := range f.Msgs {
					if op := m.Payload.(treedoc.Op); op.Site == janitor.id && op.Kind >= treedoc.OpFlatten {
						rounds <- op
					}
				}
			}
		}
	}()
	w := newFlatSite(t, writer)
	defer w.eng.Stop()
	w.eng.Connect(&opsOnly{hub: wlink, closed: make(chan struct{})})
	ops, err := w.buf.Append("written by a site no digest speaks for")
	w.broadcast(t, ops, err)
	for deadline := time.Now().Add(20 * time.Second); janitor.buf.String() != w.buf.String(); time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the writer's edit never reached the janitor")
		}
	}
	waitContentEqual(t, sites, 20*time.Second)

	next := func() treedoc.Op {
		t.Helper()
		select {
		case op := <-rounds:
			return op
		case <-time.After(20 * time.Second):
			t.Fatal("the janitor sent no round operation")
			return treedoc.Op{}
		}
	}
	// open asks the janitor for rounds until one opens (none does before a
	// digest has arrived on its link) and returns its intent.
	open := func() treedoc.Op {
		t.Helper()
		deadline := time.Now().Add(20 * time.Second)
		for time.Now().Before(deadline) {
			aborted := janitor.eng.FlattensAborted()
			if err := janitor.eng.ProposeFlatten(); err != nil {
				t.Fatal(err)
			}
			for janitor.eng.FlattensAborted() == aborted && time.Now().Before(deadline) {
				select {
				case op := <-rounds:
					if op.Kind != treedoc.OpIntent {
						t.Fatalf("the janitor sent %v before its intent", op)
					}
					return op
				case <-time.After(10 * time.Millisecond):
				}
			}
		}
		t.Fatal("the janitor opened no round")
		return treedoc.Op{}
	}

	if in := open(); next().Kind != treedoc.OpAbort {
		t.Fatalf("round %v was decided without the ack of writer s%d, whose edits the janitor applied", in, writer)
	}
	in := open()
	ack, err := transport.EncodeFlatAck(writer, janitor.id, in.Seq, treedoc.Version{writer: uint64(len(ops))})
	if err != nil {
		t.Fatal(err)
	}
	if err := wlink.Send(ack); err != nil {
		t.Fatal(err)
	}
	if d := next(); d.Kind != treedoc.OpFlatten {
		t.Fatalf("round %v decided %v with writer s%d's ack in", in, d, writer)
	}
}

// decodeOrNil decodes a frame, or returns nil.
func decodeOrNil(b []byte) any {
	f, _ := transport.DecodeFrame(b)
	return f
}
