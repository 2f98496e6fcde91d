package transport_test

import (
	"encoding/json"
	"testing"
	"time"

	treedoc "github.com/treedoc/treedoc"
)

// TestHubStatsSnapshot drives a little traffic through a hub and checks
// the aggregate snapshot agrees with its per-document counters and
// round-trips through JSON (the expvar/load-report path).
func TestHubStatsSnapshot(t *testing.T) {
	hub, err := treedoc.ListenHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	addr := hub.Addr().String()

	a, err := treedoc.DialDoc(addr, "stats-doc")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := treedoc.DialDoc(addr, "stats-doc")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if err := a.Send([]byte("frame-1")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(); err != nil {
		t.Fatal(err)
	}

	var s treedoc.HubStats
	deadline := time.Now().Add(2 * time.Second)
	for {
		s = hub.Stats()
		if s.Clients == 2 && s.Relays >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stats never settled: %+v", s)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if s.Docs != 1 {
		t.Errorf("Docs = %d, want 1", s.Docs)
	}
	ds, ok := s.PerDoc["stats-doc"]
	if !ok || ds.Clients != 2 || ds.Relays < 1 {
		t.Errorf("PerDoc[stats-doc] = %+v (ok=%v)", ds, ok)
	}
	if s.Relays < ds.Relays || s.Drops < ds.Drops {
		t.Errorf("aggregate %+v counts less than its one document %+v", s, ds)
	}
	if s.RingEpoch != 0 {
		t.Errorf("unsharded hub RingEpoch = %d", s.RingEpoch)
	}

	// The expvar path serialises via encoding/json; the snapshot must
	// survive the round trip intact.
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back treedoc.HubStats
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Clients != s.Clients || back.PerDoc["stats-doc"].Relays != ds.Relays {
		t.Errorf("JSON round trip changed stats: %+v vs %+v", back, s)
	}
}
