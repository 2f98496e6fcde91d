package causal

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/treedoc/treedoc/internal/ident"
	"github.com/treedoc/treedoc/internal/vclock"
)

func TestStampTicksOwnEntry(t *testing.T) {
	b := NewBuffer(1)
	m1 := b.Stamp("x")
	m2 := b.Stamp("y")
	if m1.TS.Get(1) != 1 || m2.TS.Get(1) != 2 {
		t.Errorf("timestamps: %v, %v", m1.TS, m2.TS)
	}
	if m1.From != 1 {
		t.Errorf("from = %d", m1.From)
	}
}

func TestInOrderDelivery(t *testing.T) {
	a := NewBuffer(1)
	b := NewBuffer(2)
	m1 := a.Stamp("one")
	m2 := a.Stamp("two")
	got, err := b.Add(m1)
	if err != nil || len(got) != 1 || got[0].Payload != "one" {
		t.Fatalf("first delivery: %v, %v", got, err)
	}
	got, err = b.Add(m2)
	if err != nil || len(got) != 1 || got[0].Payload != "two" {
		t.Fatalf("second delivery: %v, %v", got, err)
	}
}

func TestOutOfOrderBuffered(t *testing.T) {
	a := NewBuffer(1)
	b := NewBuffer(2)
	m1 := a.Stamp("one")
	m2 := a.Stamp("two")
	got, err := b.Add(m2)
	if err != nil || len(got) != 0 {
		t.Fatalf("early message delivered: %v, %v", got, err)
	}
	if b.Pending() != 1 {
		t.Errorf("pending = %d", b.Pending())
	}
	got, err = b.Add(m1)
	if err != nil || len(got) != 2 {
		t.Fatalf("catch-up: %v, %v", got, err)
	}
	if got[0].Payload != "one" || got[1].Payload != "two" {
		t.Errorf("order: %v", got)
	}
	if b.Pending() != 0 {
		t.Errorf("pending = %d", b.Pending())
	}
}

func TestCrossDependency(t *testing.T) {
	// Site 1 sends m1; site 2 receives it then sends m2 (m1 → m2). A third
	// site receiving m2 first must wait for m1.
	a, b, c := NewBuffer(1), NewBuffer(2), NewBuffer(3)
	m1 := a.Stamp("m1")
	if _, err := b.Add(m1); err != nil {
		t.Fatal(err)
	}
	m2 := b.Stamp("m2")
	got, err := c.Add(m2)
	if err != nil || len(got) != 0 {
		t.Fatalf("m2 delivered before its dependency: %v, %v", got, err)
	}
	got, err = c.Add(m1)
	if err != nil || len(got) != 2 {
		t.Fatalf("delivery after dependency: %v, %v", got, err)
	}
	if got[0].Payload != "m1" || got[1].Payload != "m2" {
		t.Errorf("order: %v", got)
	}
}

func TestDuplicatesDropped(t *testing.T) {
	a, b := NewBuffer(1), NewBuffer(2)
	m := a.Stamp("x")
	if got, _ := b.Add(m); len(got) != 1 {
		t.Fatal("first copy not delivered")
	}
	if got, _ := b.Add(m); len(got) != 0 {
		t.Error("duplicate delivered")
	}
	// Own messages are ignored.
	own := b.Stamp("own")
	if got, _ := b.Add(own); len(got) != 0 {
		t.Error("own message delivered")
	}
}

func TestBufferedDuplicateCleanup(t *testing.T) {
	a, b := NewBuffer(1), NewBuffer(2)
	m1 := a.Stamp("one")
	m2 := a.Stamp("two")
	if got, _ := b.Add(m2); len(got) != 0 {
		t.Fatal("m2 early")
	}
	// Retransmissions of a message still waiting for its predecessor are
	// refused on entry: the backlog must not grow by one per duplicate.
	for i := 0; i < 100; i++ {
		if got, _ := b.Add(m2); len(got) != 0 {
			t.Fatal("dup m2")
		}
	}
	if b.Pending() != 1 {
		t.Fatalf("pending = %d after 100 duplicates of one buffered message, want 1", b.Pending())
	}
	got, _ := b.Add(m1)
	if len(got) != 2 {
		t.Fatalf("delivered %d, want 2 (duplicate must not deliver twice)", len(got))
	}
	if b.Pending() != 0 {
		t.Errorf("pending = %d", b.Pending())
	}
}

func TestAddErrors(t *testing.T) {
	b := NewBuffer(1)
	if _, err := b.Add(Message{From: 0}); err == nil {
		t.Error("message without sender accepted")
	}
	if _, err := b.Add(Message{From: 2, TS: vclock.VC{}}); err == nil {
		t.Error("message without own timestamp accepted")
	}
}

// TestRandomDeliveryAllArrive drives N senders' interleaved causal streams
// through one receiver in random order and checks complete, causally
// ordered delivery.
func TestRandomDeliveryAllArrive(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const senders = 4
	const msgs = 50
	bufs := make([]*Buffer, senders)
	for i := range bufs {
		bufs[i] = NewBuffer(ident.SiteID(i + 1))
	}
	var all []Message
	// Random causal history: before each send, the sender may "receive" some
	// pending messages from others, creating cross-dependencies.
	for k := 0; k < senders*msgs; k++ {
		i := rng.Intn(senders)
		for _, m := range all {
			if rng.Intn(4) == 0 {
				_, _ = bufs[i].Add(m)
			}
		}
		all = append(all, bufs[i].Stamp(k))
	}
	recv := NewBuffer(99)
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	var delivered []Message
	for _, m := range all {
		got, err := recv.Add(m)
		if err != nil {
			t.Fatal(err)
		}
		delivered = append(delivered, got...)
	}
	if len(delivered) != len(all) {
		t.Fatalf("delivered %d of %d (pending %d)", len(delivered), len(all), recv.Pending())
	}
	// Causal order: per-sender sequence numbers ascend, and every message's
	// dependencies precede it.
	seen := vclock.New()
	for _, m := range delivered {
		for s, n := range m.TS {
			if s == m.From {
				if seen.Get(s)+1 != n {
					t.Fatalf("sender %d out of order: have %d, got %d", s, seen.Get(s), n)
				}
				continue
			}
			if seen.Get(s) < n {
				t.Fatalf("dependency violated: need s%d:%d, have %d", s, n, seen.Get(s))
			}
		}
		seen.Tick(m.From)
	}
}

func TestPruneBoundsPending(t *testing.T) {
	b := NewBuffer(1)
	// Messages from site 7 with a permanent causal gap (seq 1 never sent)
	// stay pending forever.
	for i := 0; i < 100; i++ {
		if _, err := b.Add(Message{From: 7, TS: vclock.VC{7: uint64(i) + 2}}); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.Pending(); got != 100 {
		t.Fatalf("Pending = %d, want 100", got)
	}
	if n := b.Prune(150); n != 0 {
		t.Fatalf("Prune above backlog dropped %d", n)
	}
	if n := b.Prune(30); n != 70 {
		t.Fatalf("Prune(30) dropped %d, want 70", n)
	}
	if got := b.Pending(); got != 30 {
		t.Fatalf("Pending after prune = %d, want 30", got)
	}
	// The highest sequence numbers went: seq 2..31, next to the gap, stay.
	if q := b.queues[0].msgs; q[0].seq() != 2 || q[len(q)-1].seq() != 31 {
		t.Fatalf("after prune site 7 holds seq %d..%d, want 2..31", q[0].seq(), q[len(q)-1].seq())
	}
	// Delivery still works for messages that survived or arrive later: a
	// fresh deliverable message from another site goes straight through.
	out, err := b.Add(Message{From: 9, TS: vclock.VC{9: 1}})
	if err != nil || len(out) != 1 {
		t.Fatalf("Add after prune = %v, %v", out, err)
	}
	if n := b.Prune(-1); n != 30 {
		t.Fatalf("Prune(-1) dropped %d, want 30", n)
	}

	// Across senders the highest go first as well, a tie from the lower
	// site first: of site 7's seq 2..5 and site 8's 3..4, keeping three
	// drops 7#5, 7#4 and 8#4.
	for _, m := range []Message{{From: 7, TS: vclock.VC{7: 5}}, {From: 8, TS: vclock.VC{8: 3}}, {From: 7, TS: vclock.VC{7: 2}},
		{From: 8, TS: vclock.VC{8: 4}}, {From: 7, TS: vclock.VC{7: 4}}, {From: 7, TS: vclock.VC{7: 3}}} {
		if _, err := b.Add(m); err != nil {
			t.Fatal(err)
		}
	}
	if n := b.Prune(3); n != 3 {
		t.Fatalf("Prune(3) dropped %d, want 3", n)
	}
	var kept []string
	for _, q := range b.queues {
		for _, m := range q.msgs {
			kept = append(kept, fmt.Sprintf("%d#%d", m.From, m.seq()))
		}
	}
	if got := strings.Join(kept, " "); got != "7#2 7#3 8#3" {
		t.Fatalf("after Prune(3) kept %s, want 7#2 7#3 8#3", got)
	}
}

func TestAdvanceFlushesPendingAndDropsCovered(t *testing.T) {
	a := NewBuffer(1)
	b := NewBuffer(2)
	m1 := a.Stamp("one")
	m2 := a.Stamp("two")
	m3 := a.Stamp("three")
	// b receives m2 and m3 out of order: both buffered behind missing m1.
	if got, _ := b.Add(m2); len(got) != 0 {
		t.Fatalf("m2 delivered early: %v", got)
	}
	if got, _ := b.Add(m3); len(got) != 0 {
		t.Fatalf("m3 delivered early: %v", got)
	}
	// A snapshot covering m1 and m2 arrives: m2 is dropped as covered, m3
	// becomes deliverable.
	got := b.Advance(vclock.VC{1: 2})
	if len(got) != 1 || got[0].Payload != "three" {
		t.Fatalf("advance delivered %v", got)
	}
	if b.Pending() != 0 {
		t.Errorf("pending = %d", b.Pending())
	}
	if b.Clock().Get(1) != 3 {
		t.Errorf("clock = %v", b.Clock())
	}
	_ = m1
}

func TestAdvanceOnEmptyBuffer(t *testing.T) {
	b := NewBuffer(2)
	if got := b.Advance(vclock.VC{1: 5, 3: 2}); len(got) != 0 {
		t.Fatalf("advance delivered %v", got)
	}
	if b.Clock().Get(1) != 5 || b.Clock().Get(3) != 2 {
		t.Errorf("clock = %v", b.Clock())
	}
}

// oracleBuffer is the buffer as it was before per-sender queues: one
// pending slice in arrival order, rescanned whole on every delivery pass.
// TestBufferMatchesOracle holds Buffer to it.
type oracleBuffer struct {
	delivered vclock.VC
	pending   []Message
}

func (b *oracleBuffer) advance(vc vclock.VC) []Message {
	b.delivered.Merge(vc)
	return b.drain()
}

func (b *oracleBuffer) drain() []Message {
	var out []Message
	for progress := true; progress; {
		progress = false
		for i := 0; i < len(b.pending); i++ {
			p := b.pending[i]
			if p.TS.Get(p.From) <= b.delivered.Get(p.From) {
				b.pending = append(b.pending[:i], b.pending[i+1:]...)
				i--
				continue
			}
			if !b.deliverable(p) {
				continue
			}
			b.delivered.Merge(p.TS)
			out = append(out, p)
			b.pending = append(b.pending[:i], b.pending[i+1:]...)
			i--
			progress = true
		}
	}
	return out
}

func (b *oracleBuffer) deliverable(m Message) bool {
	for s, n := range m.TS {
		if s == m.From {
			if b.delivered.Get(s)+1 != n {
				return false
			}
			continue
		}
		if b.delivered.Get(s) < n {
			return false
		}
	}
	return true
}

func (b *oracleBuffer) add(m Message) []Message {
	seq := m.TS.Get(m.From)
	if seq <= b.delivered.Get(m.From) {
		return nil
	}
	for _, p := range b.pending {
		if p.From == m.From && p.TS.Get(p.From) == seq {
			return nil
		}
	}
	b.pending = append(b.pending, m)
	return b.drain()
}

// deliveredSet names a run of messages by (sender, sequence), sorted, so two
// runs delivering the same set in different orders compare equal.
func deliveredSet(msgs []Message) [][2]uint64 {
	out := make([][2]uint64, len(msgs))
	for i, m := range msgs {
		out[i] = [2]uint64{uint64(m.From), m.seq()}
	}
	slices.SortFunc(out, func(a, b [2]uint64) int { return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1])) })
	return out
}

// TestBufferMatchesOracle: random causal histories from a few senders
// arrive shuffled, with duplicates and with snapshot-style Advance calls
// at clocks some sender held. After every arrival both buffers have
// delivered the same set of messages, hold the same number pending and
// stand at the same clock; and Buffer's deliveries, read in order, are a
// causal order.
func TestBufferMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		senders := 1 + rng.Intn(5)
		bufs := make([]*Buffer, senders)
		for i := range bufs {
			bufs[i] = NewBuffer(ident.SiteID(i + 1))
		}
		var all []Message
		var cuts []vclock.VC
		for k := 0; k < 20+rng.Intn(200); k++ {
			i := rng.Intn(senders)
			for _, m := range all {
				if rng.Intn(3) == 0 {
					_, _ = bufs[i].Add(m)
				}
			}
			all = append(all, bufs[i].Stamp(k))
			if rng.Intn(20) == 0 {
				cuts = append(cuts, bufs[i].Clock())
			}
		}
		arrivals := append([]Message(nil), all...)
		for _, m := range all {
			if rng.Intn(4) == 0 {
				arrivals = append(arrivals, m)
			}
		}
		rng.Shuffle(len(arrivals), func(i, j int) { arrivals[i], arrivals[j] = arrivals[j], arrivals[i] })

		got, want := NewBuffer(99), &oracleBuffer{delivered: vclock.New()}
		seen := vclock.New()
		check := func(step int, out, ref []Message) {
			t.Helper()
			if g, w := deliveredSet(out), deliveredSet(ref); !slices.Equal(g, w) {
				t.Fatalf("seed %d step %d: delivered %v, oracle %v", seed, step, g, w)
			}
			if got.Pending() != len(want.pending) || !vcEqual(got.Clock(), want.delivered) {
				t.Fatalf("seed %d step %d: %d pending at %v, oracle %d at %v",
					seed, step, got.Pending(), got.Clock(), len(want.pending), want.delivered)
			}
			for _, m := range out {
				for s, n := range m.TS {
					if s == m.From && seen.Get(s)+1 != n || s != m.From && seen.Get(s) < n {
						t.Fatalf("seed %d step %d: s%d#%d delivered at %v", seed, step, m.From, m.seq(), seen)
					}
				}
				seen.Tick(m.From)
			}
		}
		for step, m := range arrivals {
			if len(cuts) > 0 && rng.Intn(30) == 0 {
				vc := cuts[rng.Intn(len(cuts))]
				seen.Merge(vc)
				check(step, got.Advance(vc), want.advance(vc))
			}
			out, err := got.Add(m)
			if err != nil {
				t.Fatal(err)
			}
			check(step, out, want.add(m))
		}
		if got.Pending() != 0 || !got.Clock().Dominates(seen) {
			t.Fatalf("seed %d: %d messages still pending", seed, got.Pending())
		}
	}
}

func vcEqual(a, b vclock.VC) bool { return a.Dominates(b) && b.Dominates(a) }

// BenchmarkBufferReordered delivers 4,096 messages from one sender that
// arrive in reverse order: every one but the last waits behind the gap,
// and the last releases them all.
func BenchmarkBufferReordered(b *testing.B) {
	const n = 4096
	src := NewBuffer(1)
	msgs := make([]Message, n)
	for i := range msgs {
		msgs[i] = src.Stamp(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := NewBuffer(2)
		delivered := 0
		for k := n - 1; k >= 0; k-- {
			out, err := buf.Add(msgs[k])
			if err != nil {
				b.Fatal(err)
			}
			delivered += len(out)
		}
		if delivered != n {
			b.Fatalf("delivered %d of %d", delivered, n)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/msg")
}
