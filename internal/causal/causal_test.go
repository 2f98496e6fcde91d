package causal

import (
	"math/rand"
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
	// Delivery still works for messages that survived or arrive later: the
	// newest 30 gap messages remain, and a fresh deliverable message from
	// another site goes straight through.
	out, err := b.Add(Message{From: 9, TS: vclock.VC{9: 1}})
	if err != nil || len(out) != 1 {
		t.Fatalf("Add after prune = %v, %v", out, err)
	}
	if n := b.Prune(-1); n != 30 {
		t.Fatalf("Prune(-1) dropped %d, want 30", n)
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
