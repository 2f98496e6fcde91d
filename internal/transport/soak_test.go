package transport_test

// Soak tests: the satellite headline for this subsystem. N writer
// goroutines splice concurrently on TextBuffer replicas wired through the
// real transport — an in-process channel mesh and a TCP loopback hub (the
// cmd/treedoc-serve relay) — then the test quiesces and asserts
// byte-identical convergence and structural invariants. Run under
// `go test -race`; this is the first place in the repository where
// convergence must hold across genuine parallelism rather than the
// discrete-event simulator.

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/treedoc/treedoc"
)

const (
	soakWriters   = 4
	soakOpsTarget = 520 // per writer; 4×520 = 2080 ops ≥ the 2,000 floor
)

type soakSite struct {
	id  treedoc.SiteID
	buf *treedoc.TextBuffer
	eng *treedoc.Engine
}

func newSoakSite(t testing.TB, id treedoc.SiteID) *soakSite {
	t.Helper()
	buf, err := treedoc.NewTextBuffer(treedoc.WithSite(id))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := treedoc.NewEngine(id, buf,
		treedoc.WithSyncInterval(15*time.Millisecond),
		treedoc.WithQueueDepth(256),
	)
	if err != nil {
		t.Fatal(err)
	}
	return &soakSite{id: id, buf: buf, eng: eng}
}

// write runs one replica's editor: random inserts (with occasional
// multi-rune pastes) and deletes until at least soakOpsTarget operations
// have been broadcast. It returns the exact operation count, which becomes
// the site's expected vector-clock entry.
func (s *soakSite) write(t testing.TB, seed int64) uint64 {
	rng := rand.New(rand.NewSource(seed))
	words := []string{"a", "xy", "lorem", "ipsum®", "αβγ", "treedoc!"}
	var sent uint64
	for sent < soakOpsTarget {
		n := s.buf.Len()
		var ops []treedoc.Op
		var err error
		switch {
		case n > 0 && rng.Intn(4) == 0:
			del := 1 + rng.Intn(2)
			off := rng.Intn(n)
			if off+del > n {
				del = n - off
			}
			ops, err = s.buf.Delete(off, del)
		default:
			ops, err = s.buf.Insert(rng.Intn(n+1), words[rng.Intn(len(words))])
		}
		if errors.Is(err, treedoc.ErrOutOfRange) {
			// A remote delete shrank the buffer between Len and Splice;
			// retry with fresh offsets, as a live editor would.
			continue
		}
		if err != nil {
			t.Errorf("site %d: %v", s.id, err)
			return sent
		}
		if err := s.eng.Broadcast(ops...); err != nil {
			t.Errorf("site %d: %v", s.id, err)
			return sent
		}
		sent += uint64(len(ops))
	}
	return sent
}

// runWriters drives one writer goroutine per site and returns the exact
// per-site operation counts.
func runWriters(t *testing.T, sites []*soakSite, seedBase int64) map[treedoc.SiteID]uint64 {
	t.Helper()
	counts := make([]uint64, len(sites))
	var wg sync.WaitGroup
	for i, s := range sites {
		wg.Add(1)
		go func(i int, s *soakSite) {
			defer wg.Done()
			counts[i] = s.write(t, seedBase+int64(i))
		}(i, s)
	}
	wg.Wait()
	out := make(map[treedoc.SiteID]uint64, len(sites))
	for i, s := range sites {
		out[s.id] = counts[i]
	}
	return out
}

// waitQuiesced polls until every engine's clock matches the exact per-site
// operation counts (sites with zero count must be absent from the clock),
// dumping per-site diagnostics and failing at the deadline.
func waitQuiesced(t testing.TB, sites []*soakSite, counts map[treedoc.SiteID]uint64, timeout time.Duration) {
	t.Helper()
	nonzero := 0
	for _, n := range counts {
		if n > 0 {
			nonzero++
		}
	}
	deadline := time.Now().Add(timeout)
	for {
		done := true
	check:
		for _, s := range sites {
			clock := s.eng.Clock()
			if len(clock) != nonzero {
				done = false
				break
			}
			for id, n := range counts {
				if clock.Get(id) != n {
					done = false
					break check
				}
			}
		}
		if done {
			return
		}
		if time.Now().After(deadline) {
			for _, s := range sites {
				t.Logf("site %d clock %v drops %d wireErrs %d",
					s.id, s.eng.Clock(), s.eng.Stats().Drops, s.eng.Stats().WireErrs)
			}
			t.Fatal("replicas did not quiesce within deadline")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// soak drives the writers, waits for quiescence, and asserts convergence.
func soak(t *testing.T, sites []*soakSite) {
	t.Helper()
	counts := runWriters(t, sites, 1000)
	if t.Failed() {
		return
	}
	var total uint64
	for _, c := range counts {
		total += c
	}
	t.Logf("%d writers broadcast %d ops total", len(sites), total)
	waitQuiesced(t, sites, counts, 90*time.Second)

	want := sites[0].buf.String()
	for _, s := range sites[1:] {
		if got := s.buf.String(); got != want {
			t.Fatalf("site %d diverged after quiescence:\n got %d bytes %q...\nwant %d bytes %q...",
				s.id, len(got), head(got), len(want), head(want))
		}
	}
	for _, s := range sites {
		if err := s.buf.Check(); err != nil {
			t.Fatalf("site %d invariants: %v", s.id, err)
		}
		if err := s.eng.Err(); err != nil {
			t.Fatalf("site %d apply error: %v", s.id, err)
		}
	}
}

func head(s string) string {
	if len(s) > 48 {
		return s[:48]
	}
	return s
}

func stopSites(sites []*soakSite) {
	for _, s := range sites {
		s.eng.Stop()
	}
}

// TestSoakConvergenceChannelMesh wires every pair of replicas with an
// in-process channel link (full mesh) and soaks it.
func TestSoakConvergenceChannelMesh(t *testing.T) {
	sites := make([]*soakSite, soakWriters)
	for i := range sites {
		sites[i] = newSoakSite(t, treedoc.SiteID(i+1))
	}
	defer stopSites(sites)
	for i := 0; i < len(sites); i++ {
		for j := i + 1; j < len(sites); j++ {
			a, b := treedoc.NewChanPair(128)
			sites[i].eng.Connect(a)
			sites[j].eng.Connect(b)
		}
	}
	soak(t, sites)
}

// TestSoakConvergenceTCPHub routes every replica through a real TCP
// loopback connection to the cmd/treedoc-serve relay hub (ListenHub is the
// hub that binary runs).
func TestSoakConvergenceTCPHub(t *testing.T) {
	hub, err := treedoc.ListenHub("127.0.0.1:0", treedoc.WithHubQueueDepth(512))
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()

	sites := make([]*soakSite, soakWriters)
	for i := range sites {
		sites[i] = newSoakSite(t, treedoc.SiteID(i+1))
	}
	defer stopSites(sites)
	for _, s := range sites {
		link, err := treedoc.DialDoc(hub.Addr().String(), "soak")
		if err != nil {
			t.Fatal(err)
		}
		s.eng.Connect(link)
	}
	soak(t, sites)
	t.Logf("hub relayed %d frames, dropped %d", hub.Stats().Relays, hub.Stats().Drops)
	if hub.Stats().Relays == 0 {
		t.Fatal("hub relayed nothing; traffic bypassed TCP")
	}
}

// TestSoakLateJoinerTCP starts a fifth replica after the storm and makes
// sure anti-entropy alone carries it to the same bytes.
func TestSoakLateJoinerTCP(t *testing.T) {
	hub, err := treedoc.ListenHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()

	sites := make([]*soakSite, soakWriters)
	for i := range sites {
		sites[i] = newSoakSite(t, treedoc.SiteID(i+1))
		link, err := treedoc.DialDoc(hub.Addr().String(), "soak")
		if err != nil {
			t.Fatal(err)
		}
		sites[i].eng.Connect(link)
	}
	defer stopSites(sites)

	counts := runWriters(t, sites, 2000)
	if t.Failed() {
		return
	}

	late := newSoakSite(t, treedoc.SiteID(soakWriters+1))
	link, err := treedoc.DialDoc(hub.Addr().String(), "soak")
	if err != nil {
		t.Fatal(err)
	}
	late.eng.Connect(link)
	defer late.eng.Stop()
	counts[late.id] = 0 // the late joiner only reads

	all := append(append([]*soakSite(nil), sites...), late)
	waitQuiesced(t, all, counts, 90*time.Second)
	if got, want := late.buf.String(), sites[0].buf.String(); got != want {
		t.Fatalf("late joiner diverged: %d vs %d runes", late.buf.Len(), sites[0].buf.Len())
	}
	if err := late.buf.Check(); err != nil {
		t.Fatal(err)
	}
}
