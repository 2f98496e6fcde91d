package transport

import (
	"slices"
	"testing"
	"time"

	"github.com/treedoc/treedoc/internal/transport/shardmap"
)

// TestResignRacedByEqualEpochAnnounce: an announce that takes the epoch
// Resign is about to mint — and still names this hub an owner — must not
// pass for the resignation. ConfigureRing no-ops on the equal epoch, so
// only verifying which ring is installed tells the two apart. The race
// window is between the loop's read of the installed ring and its
// ConfigureRing, which is exactly where the loop calls want: the racing
// announce is injected from there, around the filter Resign passes.
func TestResignRacedByEqualEpochAnnounce(t *testing.T) {
	// Loopback addresses nobody listens on: mesh dials are refused at once.
	const self, other, third = "127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3"
	hub, err := ListenHub("127.0.0.1:0", WithHubShards(self, []string{self, other}))
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	racer, err := shardmap.NewRing(hub.RingEpoch()+1, []string{self, other, third})
	if err != nil {
		t.Fatal(err)
	}
	raced := false
	err = hub.mintRing(self, "", 0, func(cur []string) []string {
		if !raced {
			raced = true
			if err := hub.ConfigureRing(self, racer); err != nil {
				t.Errorf("racing announce: %v", err)
			}
		}
		return slices.DeleteFunc(slices.Clone(cur), func(n string) bool { return n == self })
	})
	if err != nil {
		t.Fatalf("resign over a racing announce: %v", err)
	}
	ring := hub.Ring()
	if ring.Has(self) {
		t.Fatalf("reported success with epoch %d still naming the hub an owner: %v", ring.Epoch, ring.Nodes)
	}
	if ring.Epoch != racer.Epoch+1 || !ring.Has(third) {
		t.Fatalf("re-minted ring is epoch %d %v, want the racer's membership without the hub at epoch %d",
			ring.Epoch, ring.Nodes, racer.Epoch+1)
	}
	// Resign proper, with nothing racing: out of a ring it is not in, at
	// the next epoch.
	if err := hub.Resign(); err != nil {
		t.Fatal(err)
	}
}

// TestJoinAddsSelfToLiveRing: Join queries a member, installs the
// membership plus this hub one epoch up, and the member adopts the
// announce; joining again is harmless.
func TestJoinAddsSelfToLiveRing(t *testing.T) {
	listen := func() *Hub {
		ln, err := ListenHub("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		return ln
	}
	a, b := listen(), listen()
	addrA, addrB := a.Addr().String(), b.Addr().String()
	// Each starts as its own one-node ring; b then joins a's.
	if err := a.ConfigureSharding(addrA, []string{addrA}); err != nil {
		t.Fatal(err)
	}
	if err := b.ConfigureSharding(addrB, []string{addrB}); err != nil {
		t.Fatal(err)
	}
	for round := uint64(1); round <= 2; round++ {
		if err := b.Join(addrA, 5*time.Second); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for a.RingEpoch() != 1+round {
			if time.Now().After(deadline) {
				t.Fatalf("member still at epoch %d after join %d", a.RingEpoch(), round)
			}
			time.Sleep(5 * time.Millisecond)
		}
		for _, h := range []*Hub{a, b} {
			if r := h.Ring(); r.Epoch != 1+round || len(r.Nodes) != 2 || !r.Has(addrA) || !r.Has(addrB) {
				t.Fatalf("after join %d a hub holds epoch %d %v", round, r.Epoch, r.Nodes)
			}
		}
	}
}
