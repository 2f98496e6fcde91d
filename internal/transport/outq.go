package transport

import (
	"sync"
	"time"
)

// outq is the one outbound path of everything that owns a link — an engine
// peer, a hub client, a hub-to-hub mesh peer: a queue of encoded frames,
// one writer goroutine, and a once-only dead flag. Three guarantees.
// Bounded: it never holds more than its depth; offer refuses, put waits.
// FIFO with a single writer: frames reach the link in the order they were
// accepted. And a frame accepted before the owner stopped is written,
// unless the link fails or the drain runs past stopDrainTimeout.
type outq struct {
	ch       chan []byte
	gone     chan struct{}
	goneOnce sync.Once
	// closeLink, when set, closes the link as the queue fails, unblocking a
	// write (and the owner's read) in flight.
	closeLink func()
}

func newOutq(depth int, closeLink func()) *outq {
	return &outq{
		ch:        make(chan []byte, depth),
		gone:      make(chan struct{}),
		closeLink: closeLink,
	}
}

// fail marks the queue dead, which stops its writer, and closes the link.
func (q *outq) fail() {
	q.goneOnce.Do(func() {
		close(q.gone)
		if q.closeLink != nil {
			q.closeLink()
		}
	})
}

func (q *outq) dead() bool {
	select {
	case <-q.gone:
		return true
	default:
		return false
	}
}

// len is the number of frames queued and not yet taken by the writer.
func (q *outq) len() int { return len(q.ch) }

// offer queues a frame without blocking and reports whether it was taken;
// the caller counts a refusal in whichever drop counter is its own.
func (q *outq) offer(frame []byte) bool {
	select {
	case q.ch <- frame:
		return true
	default:
		return false
	}
}

// put queues a frame whose loss nothing would heal (one of an ordered
// stream, a handshake answer), waiting for room. It gives up, with nothing
// queued, when the queue dies or stop closes; a nil stop never does.
func (q *outq) put(frame []byte, stop <-chan struct{}) bool {
	select {
	case q.ch <- frame:
		return true
	case <-q.gone:
	case <-stop:
	}
	return false
}

// start runs the queue's writer, counted in wg: write puts one frame on the
// link, and flush, when non-nil, makes written frames leave the process (a
// buffered writer's Flush). stopped, when non-nil, closes once the owner
// has stopped and everything it accepted is queued; a second goroutine
// then bounds the writer's last drain, closing the link under it at
// stopDrainTimeout — a write blocked on a stalled link would otherwise
// hold the owner's Stop forever.
func (q *outq) start(wg *sync.WaitGroup, write func(frame []byte) error, flush func() error, stopped <-chan struct{}) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		q.writer(write, flush, stopped)
	}()
	if stopped == nil {
		return
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		select {
		case <-stopped:
		case <-q.gone:
			return
		}
		// A channel timer on purpose: a stopped timer can sit in the
		// runtime's heap until it would have fired, and one calling back
		// into the queue would keep its owner (an engine and its retained
		// log) reachable that long.
		deadline := time.NewTimer(stopDrainTimeout)
		defer deadline.Stop()
		select {
		case <-q.gone: // the writer finished: it fails the queue as it returns
		case <-deadline.C:
			q.fail()
		}
	}()
}

// writer is the single writer loop; it returns with the queue failed. flush
// runs when nothing is queued behind the frame just written, so a burst
// costs one flush. What is still queued when stopped closes was accepted by
// an owner that can no longer heal its loss: the writer writes until the
// queue is empty or dead before it returns.
func (q *outq) writer(write func(frame []byte) error, flush func() error, stopped <-chan struct{}) {
	defer q.fail()
	out := func(frame []byte) bool {
		return write(frame) == nil && (flush == nil || len(q.ch) > 0 || flush() == nil)
	}
	for {
		select {
		case f := <-q.ch:
			if !out(f) {
				return
			}
		case <-q.gone:
			return
		case <-stopped:
			for len(q.ch) > 0 && !q.dead() {
				if !out(<-q.ch) {
					return
				}
			}
			return
		}
	}
}
