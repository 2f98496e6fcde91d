package treedoc

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"github.com/treedoc/treedoc/internal/core"
	"github.com/treedoc/treedoc/internal/ident"
	"github.com/treedoc/treedoc/internal/vclock"
)

func newTestDoc(t *testing.T, opts ...Option) *Doc {
	t.Helper()
	d, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewValidation(t *testing.T) {
	if _, err := New(); err == nil {
		t.Error("doc without site accepted")
	}
	if _, err := New(WithSite(0)); err == nil {
		t.Error("site 0 accepted")
	}
	if _, err := New(WithSite(1), WithMode(Mode(9))); err == nil {
		t.Error("bad mode accepted")
	}
	if _, err := New(WithSite(1), WithFlattenEvery(-1, 0)); err == nil {
		t.Error("negative flatten interval accepted")
	}
	if _, err := New(WithSite(1), WithLatencyIgnored()); err == nil {
		_ = err // placeholder to keep the linter happy if unused
	}
}

// WithLatencyIgnored is a compile-time check that Option composition fails
// loudly for misuse; it always errors.
func WithLatencyIgnored() Option {
	return func(*config) error { return fmt.Errorf("not a doc option") }
}

func TestBasicEditing(t *testing.T) {
	d := newTestDoc(t, WithSite(1))
	if _, err := d.InsertAt(0, "hello"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Append("world"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.InsertAt(1, "brave"); err != nil {
		t.Fatal(err)
	}
	if got := d.ContentString(); got != "hello\nbrave\nworld" {
		t.Errorf("content = %q", got)
	}
	if d.Len() != 3 {
		t.Errorf("len = %d", d.Len())
	}
	if a, err := d.AtomAt(1); err != nil || a != "brave" {
		t.Errorf("AtomAt(1) = %q, %v", a, err)
	}
	if _, err := d.DeleteAt(1); err != nil {
		t.Fatal(err)
	}
	if got := d.ContentString(); got != "hello\nworld" {
		t.Errorf("content = %q", got)
	}
	if err := d.Check(); err != nil {
		t.Fatal(err)
	}
	if d.Site() != 1 {
		t.Errorf("site = %d", d.Site())
	}
}

func TestTwoReplicaConvergence(t *testing.T) {
	alice := newTestDoc(t, WithSite(1))
	bob := newTestDoc(t, WithSite(2))

	var history []Op
	for i, s := range []string{"a", "b", "c"} {
		op, err := alice.InsertAt(i, s)
		if err != nil {
			t.Fatal(err)
		}
		history = append(history, op)
	}
	if err := bob.ApplyAll(history); err != nil {
		t.Fatal(err)
	}
	// Concurrent edits, exchanged.
	opA, err := alice.InsertAt(1, "from-alice")
	if err != nil {
		t.Fatal(err)
	}
	opB, err := bob.DeleteAt(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := alice.Apply(opB); err != nil {
		t.Fatal(err)
	}
	if err := bob.Apply(opA); err != nil {
		t.Fatal(err)
	}
	if alice.ContentString() != bob.ContentString() {
		t.Errorf("diverged: %q vs %q", alice.ContentString(), bob.ContentString())
	}
}

func TestInsertRunAtPublic(t *testing.T) {
	d := newTestDoc(t, WithSite(1))
	ops, err := d.InsertRunAt(0, []string{"1", "2", "3", "4", "5"})
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 5 {
		t.Errorf("ops = %d", len(ops))
	}
	if got := d.ContentString(); got != "1\n2\n3\n4\n5" {
		t.Errorf("content = %q", got)
	}
}

func TestOpCodecPublic(t *testing.T) {
	d := newTestDoc(t, WithSite(1))
	op, err := d.InsertAt(0, "payload")
	if err != nil {
		t.Fatal(err)
	}
	data, err := op.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Op
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	e := newTestDoc(t, WithSite(2))
	if err := e.Apply(back); err != nil {
		t.Fatal(err)
	}
	if e.ContentString() != "payload" {
		t.Errorf("replayed = %q", e.ContentString())
	}
}

func TestFlattenAndStats(t *testing.T) {
	d := newTestDoc(t, WithSite(1))
	for i := 0; i < 50; i++ {
		if _, err := d.Append(fmt.Sprintf("line %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if _, err := d.DeleteAt(10); err != nil {
			t.Fatal(err)
		}
	}
	before := d.Stats()
	if before.Tree.DeadMinis != 10 {
		t.Errorf("tombstones = %d", before.Tree.DeadMinis)
	}
	if err := d.Flatten(); err != nil {
		t.Fatal(err)
	}
	after := d.Stats()
	if after.Tree.MemBytes != 0 || after.Tree.Nodes != 0 {
		t.Errorf("flattened overheads: mem=%d nodes=%d", after.Tree.MemBytes, after.Tree.Nodes)
	}
	if d.Len() != 40 {
		t.Errorf("len = %d", d.Len())
	}
	if err := d.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestFlattenHeuristicViaEndRevision(t *testing.T) {
	d := newTestDoc(t, WithSite(1), WithFlattenEvery(2, 0))
	for i := 0; i < 20; i++ {
		if _, err := d.Append(fmt.Sprintf("l%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	d.EndRevision()
	if _, err := d.InsertAt(0, "hot"); err != nil {
		t.Fatal(err)
	}
	d.EndRevision() // revision 2: flatten fires on the cold remainder
	s := d.Stats()
	if s.Tree.FlatAtoms == 0 {
		t.Error("heuristic flatten never fired")
	}
	if err := d.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	d := newTestDoc(t, WithSite(7), WithMode(UDIS))
	for i := 0; i < 12; i++ {
		if _, err := d.Append(fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.DeleteAt(3); err != nil {
		t.Fatal(err)
	}
	data, err := d.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Open(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.ContentString() != d.ContentString() {
		t.Errorf("restored content %q, want %q", got.ContentString(), d.ContentString())
	}
	if got.Site() != 7 {
		t.Errorf("restored site = %d", got.Site())
	}
	// The restored replica can keep editing without identifier collisions:
	// its counter and sequence survived the snapshot.
	op1, err := d.InsertAt(0, "orig")
	if err != nil {
		t.Fatal(err)
	}
	op2, err := got.InsertAt(0, "restored")
	if err != nil {
		t.Fatal(err)
	}
	if op1.Seq != op2.Seq {
		t.Errorf("sequence diverged after restore: %d vs %d", op1.Seq, op2.Seq)
	}
	if err := got.Check(); err != nil {
		t.Fatal(err)
	}
	// Corrupt snapshots error.
	if _, err := Open(nil); err == nil {
		t.Error("nil snapshot accepted")
	}
	if _, err := Open(data[:8]); err == nil {
		t.Error("truncated snapshot accepted")
	}
}

// TestSnapshotCarriesPendingRounds: a snapshot holds the flatten rounds
// pending in its replica, so the replica it opens as refuses local edits of
// the region until the round's decision is applied. A TDS2 snapshot, which
// could not say so, is refused by name.
func TestSnapshotCarriesPendingRounds(t *testing.T) {
	d := newTestDoc(t, WithSite(7))
	for i := 0; i < 4; i++ {
		if _, err := d.Append(fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	intent := Op{Kind: OpIntent, ID: ident.Pack(Path{}), Site: 9, Seq: 1}
	if err := d.Apply(intent); err != nil {
		t.Fatal(err)
	}
	data, err := d.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Open(data)
	if err != nil {
		t.Fatal(err)
	}
	if in := got.Intents(); len(in) != 1 || in[0] != intent {
		t.Fatalf("opened with rounds %v, want %v", in, intent)
	}
	if _, err := got.Append("x"); !errors.Is(err, ErrRegionLocked) {
		t.Fatalf("edit in the snapshot's pending round: %v, want ErrRegionLocked", err)
	}
	if err := got.Apply(Op{Kind: OpAbort, ID: intent.ID, Site: 9, Seq: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := got.Append("x"); err != nil {
		t.Fatalf("edit after the round's abort: %v", err)
	}
	old := append([]byte("TDS2"), data[4:]...)
	if _, err := Open(old); err == nil || !strings.Contains(err.Error(), `"TDS2" is not format TDS3`) {
		t.Fatalf("TDS2 snapshot: %v, want it refused by name", err)
	}
}

func TestDocConcurrencySafety(t *testing.T) {
	d := newTestDoc(t, WithSite(1))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 200; i++ {
				n := d.Len()
				if n == 0 || rng.Intn(3) > 0 {
					_, _ = d.InsertAt(rng.Intn(n+1), "x")
				} else {
					_, _ = d.DeleteAt(rng.Intn(n))
				}
			}
		}(g)
	}
	wg.Wait()
	if err := d.Check(); err != nil {
		t.Fatal(err)
	}
	if d.Len() == 0 {
		t.Error("empty after concurrent editing")
	}
}

// TestRegionLockGeometry: a LockRegion freeze blocks exactly the local
// edits that could touch the subtree — a delete of an atom inside it, an
// insert next to one, and an insert into a gap the region lies strictly
// inside — and nothing else, whole splices included; UnlockRegion lifts
// it. Testing an insert against a held lock costs it no allocation.
func TestRegionLockGeometry(t *testing.T) {
	// A Doc of runes, so the splice below has one; UDIS, so an insert and
	// the delete of its atom leave the tree as they found it.
	b, err := NewTextBuffer(WithSite(1), WithMode(UDIS))
	if err != nil {
		t.Fatal(err)
	}
	d := b.Doc
	for i := 0; i < 15; i++ { // grow at both ends, so the tree branches both ways
		if _, err := d.InsertAt(i%2*d.Len(), string(rune('a'+i))); err != nil {
			t.Fatal(err)
		}
	}
	last, err := d.doc.IDAt(14)
	if err != nil {
		t.Fatal(err)
	}
	region := Path{ident.J(last[0].Bit), ident.J(last[1].Bit)} // the depth-2 subtree holding the last atom
	inside := make([]bool, 15)
	for i := range inside {
		id, err := d.doc.IDAt(i)
		if err != nil {
			t.Fatal(err)
		}
		inside[i] = ident.RegionCompare(id, region) == 0
	}
	first := 0
	for !inside[first] {
		first++
	}
	if first < 3 || !inside[14] {
		t.Fatalf("degenerate region %v: atoms inside = %v", region, inside)
	}
	// A region is locked as at any member: another author's intent applied,
	// and released by applying its abort.
	seq := make(map[SiteID]uint64)
	round := func(kind core.OpKind, author SiteID, p Path) {
		seq[author]++
		if err := d.Apply(Op{Kind: kind, ID: ident.Pack(p), Site: author, Seq: seq[author]}); err != nil {
			t.Fatal(err)
		}
	}
	round(OpIntent, 7, region)
	for i := 14; i >= 2; i-- { // back to front: a delete that passes shifts no index still to come
		_, err := d.DeleteAt(i)
		if got := errors.Is(err, ErrRegionLocked); got != inside[i] {
			t.Fatalf("delete at %d (inside=%v): %v", i, inside[i], err)
		}
	}
	first = 2 // the atoms left of the region are gone, bar two
	// Gaps: both neighbours outside and left of the region pass; a gap with
	// a neighbour inside, or with the whole region inside it, does not.
	if _, err := d.InsertAt(first, "edge"); !errors.Is(err, ErrRegionLocked) {
		t.Errorf("insert left of the region's first atom: %v, want ErrRegionLocked", err)
	}
	if _, err := d.InsertRunAt(first, []string{"r", "s"}); !errors.Is(err, ErrRegionLocked) {
		t.Errorf("insert run left of the region's first atom: %v, want ErrRegionLocked", err)
	}
	if _, err := d.Append("tail"); !errors.Is(err, ErrRegionLocked) {
		t.Errorf("append after the region's last atom: %v, want ErrRegionLocked", err)
	}
	// The splice deletes the atom left of the region, which is free, but
	// its insert lands next to the region's first atom: none of it runs.
	text, version := b.String(), b.Version()
	if ops, err := b.Splice(first-1, 1, "XY"); !errors.Is(err, ErrRegionLocked) || ops != nil {
		t.Errorf("splice into the region's edge: %d ops, %v; want none and ErrRegionLocked", len(ops), err)
	}
	if b.String() != text || b.Version().Compare(version) != vclock.Equal {
		t.Errorf("rejected splice changed the buffer: %q at %v, was %q at %v", b.String(), b.Version(), text, version)
	}
	// An insert between the two atoms left of the region tests the lock
	// against the neighbours it found, and the delete of its atom reads the
	// identifier into scratch: a held lock costs neither an allocation.
	edit := func() {
		if _, err := d.InsertAt(1, "x"); err != nil {
			t.Fatal(err)
		}
		if _, err := d.DeleteAt(1); err != nil {
			t.Fatal(err)
		}
	}
	held := testing.AllocsPerRun(100, edit)
	round(OpAbort, 7, region)
	free := testing.AllocsPerRun(100, edit)
	round(OpIntent, 7, region)
	if held > free {
		t.Errorf("an insert and a delete allocate %v times with an unrelated region locked, %v with none", held, free)
	}
	round(OpIntent, 8, Path{}) // the whole document: every gap has the region inside
	if _, err := d.InsertAt(0, "head"); !errors.Is(err, ErrRegionLocked) {
		t.Errorf("insert under a whole-document lock: %v, want ErrRegionLocked", err)
	}
	round(OpAbort, 8, Path{})
	if _, err := d.InsertAt(0, "head"); err != nil {
		t.Errorf("insert left of the region after the whole-document unlock: %v", err)
	}
	round(OpAbort, 7, region)
	if _, err := d.Append("tail"); err != nil {
		t.Errorf("append after unlock: %v", err)
	}
	if err := d.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestClusterPublicAPI(t *testing.T) {
	c, err := NewCluster(3, WithLatency(1, 10), WithSeed(5), WithClusterMode(UDIS))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Sites()) != 3 {
		t.Fatalf("sites = %d", len(c.Sites()))
	}
	r1, err := c.Replica(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Replica(99); err == nil {
		t.Error("unknown replica returned")
	}
	for i := 0; i < 10; i++ {
		if err := r1.InsertAt(i, fmt.Sprintf("l%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	c.Run(0)
	if !c.Converged() {
		t.Fatal("not converged")
	}
	r2, err := c.Replica(2)
	if err != nil {
		t.Fatal(err)
	}
	if r2.ContentString() != r1.ContentString() {
		t.Error("replica contents differ")
	}
	if r2.Len() != 10 {
		t.Errorf("len = %d", r2.Len())
	}

	// Partition, diverge, heal, converge.
	if err := c.Partition(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := c.Partition(1, 3); err != nil {
		t.Fatal(err)
	}
	if err := r1.Append("from-one"); err != nil {
		t.Fatal(err)
	}
	if err := r2.Append("from-two"); err != nil {
		t.Fatal(err)
	}
	c.Run(0)
	c.HealAll()
	c.Run(0)
	if !c.Converged() {
		t.Fatal("not converged after heal")
	}
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}

	// Distributed flatten through a flatten round.
	r1.ProposeFlatten()
	c.Run(0)
	if r1.FlattensApplied() != 1 {
		t.Errorf("flattens = %d", r1.FlattensApplied())
	}
	if r1.Stats().Tree.Nodes != 0 {
		t.Error("not compacted")
	}
	if !c.Converged() {
		t.Fatal("not converged after flatten")
	}
	if c.Now() == 0 {
		t.Error("clock did not advance")
	}
	r1.EndRevision()
	_ = r1.ProposeFlattenCold(1)
}

func TestClusterValidation(t *testing.T) {
	if _, err := NewCluster(0); err == nil {
		t.Error("zero sites accepted")
	}
	if _, err := NewCluster(2, WithLatency(-1, 5)); err == nil {
		t.Error("negative latency accepted")
	}
	if _, err := NewCluster(2, WithLatency(10, 5)); err == nil {
		t.Error("inverted latency accepted")
	}
	if _, err := NewCluster(2, WithClusterMode(Mode(9))); err == nil {
		t.Error("bad mode accepted")
	}
	if _, err := NewCluster(2, WithLoss(1.5)); err == nil {
		t.Error("loss > 1 accepted")
	}
	if _, err := NewCluster(2, WithLoss(-0.1)); err == nil {
		t.Error("negative loss accepted")
	}
}

func TestClusterLossAndSync(t *testing.T) {
	c, err := NewCluster(2, WithLoss(1), WithSeed(3), WithLatency(1, 5))
	if err != nil {
		t.Fatal(err)
	}
	r1, _ := c.Replica(1)
	r2, _ := c.Replica(2)
	if err := r1.Append("dropped"); err != nil {
		t.Fatal(err)
	}
	c.Run(0)
	if r2.Len() != 0 {
		t.Fatalf("len = %d under total loss", r2.Len())
	}
	r2.SyncWith(1)
	c.Run(0)
	if r2.Len() != 1 {
		t.Fatalf("sync did not recover: len = %d", r2.Len())
	}
	if !c.Converged() {
		t.Fatal("not converged")
	}
}

func TestSnapshotInstall(t *testing.T) {
	// Site 1 builds history; site 2 must adopt it via InstallSnapshot and
	// end up byte-identical, with a version vector that stands in for the
	// operations it skipped replaying.
	src := newTestDoc(t, WithSite(1))
	var ops []Op
	for i := 0; i < 20; i++ {
		op, err := src.Append(fmt.Sprintf("line-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		ops = append(ops, op)
	}
	data, version, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if version.Get(1) != 20 {
		t.Fatalf("snapshot version = %v, want {1:20}", version)
	}

	dst := newTestDoc(t, WithSite(2))
	installed, err := dst.InstallSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if installed.Get(1) != 20 {
		t.Fatalf("installed version = %v", installed)
	}
	if dst.ContentString() != src.ContentString() {
		t.Fatalf("installed content %q, want %q", dst.ContentString(), src.ContentString())
	}
	if dst.Site() != 2 {
		t.Fatalf("install changed site to %d", dst.Site())
	}
	if err := dst.Check(); err != nil {
		t.Fatal(err)
	}
	// The receiver keeps editing under its own identity.
	if _, err := dst.Append("by-site-2"); err != nil {
		t.Fatal(err)
	}

	// A stale snapshot (covering less than the replica has) is rejected
	// and leaves the replica untouched.
	third := newTestDoc(t, WithSite(3))
	if err := third.ApplyAll(ops); err != nil {
		t.Fatal(err)
	}
	if _, err := third.Append("local-extra"); err != nil {
		t.Fatal(err)
	}
	want := third.ContentString()
	if _, err := third.InstallSnapshot(data); err == nil {
		t.Fatal("stale snapshot accepted")
	} else if !errors.Is(err, core.ErrStaleSnapshot) {
		t.Fatalf("stale rejection error = %v, want core.ErrStaleSnapshot", err)
	}
	if third.ContentString() != want {
		t.Fatal("rejected install mutated the replica")
	}
}

func TestTextBufferSnapshotInstall(t *testing.T) {
	src, err := NewTextBuffer(WithSite(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.Append("hello, snapshot"); err != nil {
		t.Fatal(err)
	}
	data, _, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	dst, err := NewTextBuffer(WithSite(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dst.InstallSnapshot(data); err != nil {
		t.Fatal(err)
	}
	if dst.String() != src.String() {
		t.Fatalf("buffer install: %q != %q", dst.String(), src.String())
	}
}
