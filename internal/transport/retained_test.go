package transport

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/treedoc/treedoc/internal/causal"
	"github.com/treedoc/treedoc/internal/ident"
	"github.com/treedoc/treedoc/internal/vclock"
)

// oracleMissing is the pre-index implementation the run index replaced: a
// full scan of the retained log in delivery order. The index must agree
// with it on every clock, including across truncation barriers.
func oracleMissing(msgs []causal.Message, clock vclock.VC) []causal.Message {
	var out []causal.Message
	for _, m := range msgs {
		if m.TS.Get(m.From) > clock.Get(m.From) {
			out = append(out, m)
		}
	}
	return out
}

func oracleCount(msgs []causal.Message, clock vclock.VC) int {
	n := 0
	for _, m := range msgs {
		if m.TS.Get(m.From) > clock.Get(m.From) {
			n++
		}
	}
	return n
}

// TestRetainedLogMatchesOracle drives a RetainedLog through randomized
// interleaved appends and truncations — the compaction and floor-promotion
// barriers — and checks AppendMissing and CountAbove against the full-scan
// oracle at every step, for clocks behind, at, and ahead of the log.
func TestRetainedLogMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const sites = 5
	var log RetainedLog
	seqs := make(map[ident.SiteID]uint64)

	check := func(step int, clock vclock.VC) {
		t.Helper()
		all := log.AppendMissing(nil, vclock.New())
		if len(all) != log.Len() {
			t.Fatalf("step %d: the empty clock lacks %d messages of %d retained", step, len(all), log.Len())
		}
		want := oracleMissing(all, clock)
		got := log.AppendMissing(nil, clock)
		if len(want) == 0 && len(got) == 0 {
			// reflect.DeepEqual distinguishes nil from empty; both are fine.
		} else if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: AppendMissing disagrees with oracle for clock %v:\n got %d msgs\nwant %d msgs", step, clock, len(got), len(want))
		}
		if g, w := log.CountAbove(clock), oracleCount(all, clock); g != w {
			t.Fatalf("step %d: CountAbove = %d, oracle = %d for clock %v", step, g, w, clock)
		}
	}

	randClock := func() vclock.VC {
		clock := vclock.New()
		for s, q := range seqs {
			switch rng.Intn(4) {
			case 0: // well behind
				clock[s] = q / 2
			case 1: // just behind
				if q > 0 {
					clock[s] = q - 1
				}
			case 2: // exactly caught up
				clock[s] = q
			case 3: // ahead (a peer that heard sites we truncated past)
				clock[s] = q + uint64(rng.Intn(3))
			}
		}
		return clock
	}

	for step := 0; step < 2000; step++ {
		switch {
		case step%97 == 96:
			// Truncation barrier: floor covers a random prefix of each
			// site's sequence space, like an adopted snapshot version.
			floor := vclock.New()
			for s, q := range seqs {
				floor[s] = uint64(rng.Int63n(int64(q) + 1))
			}
			log.Truncate(floor)
			// After the barrier the index is rebuilt; everything must
			// still agree, including for the floor itself.
			check(step, floor)
		default:
			// Biased interleave: bursts from one site split runs rarely,
			// scattered singles split them constantly.
			site := ident.SiteID(rng.Intn(sites) + 1)
			burst := 1 + rng.Intn(8)
			for i := 0; i < burst; i++ {
				seqs[site]++
				ts := vclock.New()
				ts[site] = seqs[site]
				// Salt in other sites' entries: only the sender's own
				// entry may matter to the index.
				for o, q := range seqs {
					if o != site && rng.Intn(3) == 0 {
						ts[o] = q
					}
				}
				log.Append(causal.Message{From: site, TS: ts})
			}
		}
		if step%13 == 0 {
			check(step, randClock())
		}
	}

	// Full truncation: a floor covering everything empties the log.
	floor := vclock.New()
	for s, q := range seqs {
		floor[s] = q
	}
	log.Truncate(floor)
	if log.Len() != 0 {
		t.Fatalf("floor covering everything left %d messages retained", log.Len())
	}
	check(-1, vclock.New())
}

// TestRetainedLogSpanOrder asserts the delivery-order guarantee digest
// answers rely on: missing messages come back sorted by log position, so a
// receiver replaying them in order never parks them in its pending buffer.
func TestRetainedLogSpanOrder(t *testing.T) {
	var log RetainedLog
	// Interleave two sites so each ends up with several runs.
	for i := 0; i < 100; i++ {
		site := ident.SiteID(i%2 + 1)
		seq := uint64(i/2 + 1)
		log.Append(causal.Message{From: site, TS: vclock.VC{site: seq}})
	}
	got := log.AppendMissing(nil, vclock.VC{1: 10, 2: 20})
	idx := 0
	for _, m := range log.AppendMissing(nil, vclock.New()) {
		if m.TS.Get(m.From) > (vclock.VC{1: 10, 2: 20}).Get(m.From) {
			if got[idx].From != m.From || got[idx].TS.Get(m.From) != m.TS.Get(m.From) {
				t.Fatalf("answer out of delivery order at %d", idx)
			}
			idx++
		}
	}
	if idx != len(got) {
		t.Fatalf("answer carried %d messages, oracle %d", len(got), idx)
	}
}
