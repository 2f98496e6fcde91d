package transport

import (
	"time"

	"github.com/treedoc/treedoc/internal/ident"
)

// Stepper is the engine's second driver. NewEngine runs the actor on a
// goroutine, feeds it from per-link reader goroutines, drains per-link
// queues with writer goroutines and ticks it from a wall-clock ticker; a
// Stepper does none of that. Its one caller is the actor: every call on
// the Stepper — and every Engine method (Broadcast, ProposeFlatten, Clock,
// ...) — runs to completion inline, time is whatever the caller's clock
// says, and frames leave through Link.Send as they are produced. The
// simulated Cluster drives replicas this way over a discrete-event
// network, so a seeded schedule exercises the code that ships and replays
// byte for byte. A Stepper and the engine under it are not safe for
// concurrent use.
type Stepper struct{ e *Engine }

// NewStepper builds an engine that only runs when stepped. now is the
// engine's clock; it must never go backwards.
func NewStepper(site ident.SiteID, doc Replica, now func() time.Time, opts ...Option) (*Stepper, error) {
	e, err := newEngine(site, doc, now, opts)
	if err != nil {
		return nil, err
	}
	return &Stepper{e}, nil
}

// Engine returns the stepped engine. Attach links with Stepper.Connect,
// not Engine.Connect, which would start goroutines.
func (s *Stepper) Engine() *Engine { return s.e }

// Connect attaches a link and returns the entry point for frames arriving
// on it. The link's Send must take the frame without blocking — it is the
// driver's queue — and its Recv is never called: the driver hands each
// inbound frame to receive instead.
//
//treedoc:actorloop
func (s *Stepper) Connect(link Link) (receive func(frame []byte)) {
	p := s.e.newPeer(link, newOutq(0, nil))
	p.send, p.stream = p.sendNow, p.streamInline
	s.e.attach(p)
	return func(frame []byte) { p.receive(frame) }
}

// Tick runs one sync interval's duties; the driver calls it every
// WithSyncInterval of its own clock.
//
//treedoc:actorloop
func (s *Stepper) Tick() { s.e.tick() }

// Stop is Engine.Stop plus the actor's last step, which no goroutine is
// there to take: flush what was accepted, abort this engine's own flatten
// rounds, close the log. Call it once.
//
//treedoc:actorloop
func (s *Stepper) Stop() {
	s.e.Stop()
	s.e.shutdown()
}
