package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// qsink is a test link under an outq: it records what the writer writes,
// can hold the writer inside a write, and unblocks it when the queue's
// failure closes it — as closing a real link does.
type qsink struct {
	mu      sync.Mutex
	frames  []string
	hold    chan struct{} // when non-nil, each write waits for it (or for close)
	closed  chan struct{}
	closing sync.Once
}

func newQsink(hold bool) *qsink {
	s := &qsink{closed: make(chan struct{})}
	if hold {
		s.hold = make(chan struct{})
	}
	return s
}

func (s *qsink) close() { s.closing.Do(func() { close(s.closed) }) }

func (s *qsink) write(frame []byte) error {
	if s.hold != nil {
		select {
		case <-s.hold:
		case <-s.closed:
		}
	}
	select {
	case <-s.closed:
		return errors.New("qsink: closed")
	default:
	}
	s.mu.Lock()
	s.frames = append(s.frames, string(frame))
	s.mu.Unlock()
	return nil
}

func (s *qsink) written() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.frames...)
}

func wantFrames(t *testing.T, got []string, want ...string) {
	t.Helper()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("written %q, want %q", got, want)
	}
}

// TestOutqOfferRefusesWhenFull: a full queue refuses the offer, says so, and
// loses nothing it had already accepted.
func TestOutqOfferRefusesWhenFull(t *testing.T) {
	sink := newQsink(false)
	q := newOutq(2, sink.close)
	for _, tc := range []struct {
		frame string
		taken bool
	}{{"a", true}, {"b", true}, {"c", false}, {"d", false}} {
		if got := q.offer([]byte(tc.frame)); got != tc.taken {
			t.Fatalf("offer(%q) = %v with %d queued, want %v", tc.frame, got, q.len(), tc.taken)
		}
	}
	if q.len() != 2 {
		t.Fatalf("len = %d, want 2", q.len())
	}
	var wg sync.WaitGroup
	stopped := make(chan struct{})
	q.start(&wg, sink.write, nil, stopped)
	close(stopped) // the writer drains what was accepted, then returns
	wg.Wait()
	wantFrames(t, sink.written(), "a", "b")
}

// TestOutqPutGivesUp: a put waiting for room returns false when the queue
// dies, when its stop closes and when its deadline passes, and leaves
// nothing behind: what the queue holds afterwards is exactly what was
// accepted.
func TestOutqPutGivesUp(t *testing.T) {
	for _, tc := range []struct {
		name    string
		timeout time.Duration // of the put's stop context
		give    func(q *outq, cancel func())
	}{
		{"queue dies", time.Minute, func(q *outq, _ func()) { q.fail() }},
		{"stop closes", time.Minute, func(_ *outq, cancel func()) { cancel() }},
		{"deadline passes", 50 * time.Millisecond, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sink := newQsink(false)
			q := newOutq(1, sink.close)
			if !q.put([]byte("kept"), nil) {
				t.Fatal("put refused with room")
			}
			ctx, cancel := context.WithTimeout(context.Background(), tc.timeout)
			defer cancel()
			res := make(chan bool, 1)
			go func() { res <- q.put([]byte("refused"), ctx.Done()) }()
			if tc.give != nil {
				select {
				case got := <-res:
					t.Fatalf("put returned %v on a full queue before anything gave", got)
				case <-time.After(10 * time.Millisecond):
				}
				tc.give(q, cancel)
			}
			if <-res {
				t.Fatal("put reported success on a full queue")
			}
			if q.len() != 1 {
				t.Fatalf("len = %d after a refused put, want 1", q.len())
			}
			if q.dead() {
				return // nothing more is written; the count above is the claim
			}
			var wg sync.WaitGroup
			stopped := make(chan struct{})
			q.start(&wg, sink.write, nil, stopped)
			close(stopped)
			wg.Wait()
			wantFrames(t, sink.written(), "kept")
		})
	}
}

// TestOutqStopDrain: what was accepted before the owner stopped is written
// before the writer returns, and the link is closed after it.
func TestOutqStopDrain(t *testing.T) {
	sink := newQsink(true)
	q := newOutq(8, sink.close)
	stopped := make(chan struct{})
	var wg sync.WaitGroup
	q.start(&wg, sink.write, nil, stopped)
	want := []string{"a", "b", "c", "d", "e"}
	for _, f := range want {
		if !q.offer([]byte(f)) {
			t.Fatalf("offer(%q) refused with room", f)
		}
	}
	close(stopped)   // the owner stops with the writer held in its first write
	close(sink.hold) // and only now does the link take frames
	wg.Wait()
	wantFrames(t, sink.written(), want...)
	if !q.dead() {
		t.Fatal("the drained queue was left alive: its link is still open")
	}
}

// TestOutqStopDrainGivesUp: a drain blocked on a stalled link is abandoned at
// stopDrainTimeout — the link is closed under the writer — rather than
// holding the owner's Stop forever.
func TestOutqStopDrainGivesUp(t *testing.T) {
	t.Parallel()
	sink := newQsink(true) // never released: every write blocks until the link closes
	q := newOutq(8, sink.close)
	stopped := make(chan struct{})
	var wg sync.WaitGroup
	q.start(&wg, sink.write, nil, stopped)
	for _, f := range []string{"a", "b", "c"} {
		q.offer([]byte(f))
	}
	begin := time.Now()
	close(stopped)
	wg.Wait()
	if took := time.Since(begin); took < stopDrainTimeout-100*time.Millisecond || took > stopDrainTimeout+5*time.Second {
		t.Fatalf("stalled drain ended after %v, want about stopDrainTimeout (%v)", took, stopDrainTimeout)
	}
	if !q.dead() {
		t.Fatal("the abandoned queue was left alive")
	}
	wantFrames(t, sink.written())
}
