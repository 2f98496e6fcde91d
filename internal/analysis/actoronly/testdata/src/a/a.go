// Package a exercises the actoronly analyzer: a field owned by an actor
// goroutine, the loop's call tree, the ctl dispatch pattern, goroutine
// boundaries inside the loop, the actorsafe waiver, and a stepping driver
// whose entry points are loop roots of their own.
package a

type engine struct {
	inbox chan func()
	buf   []int // actor-owned
}

// run is the actor loop; its call tree may touch buf freely.
//
//treedoc:actorloop
func (e *engine) run() {
	for fn := range e.inbox {
		fn()
		e.buf = append(e.buf, 1)
		e.helper()
		go func() {
			_ = e.buf // want `actor-owned field buf touched outside the actor call tree`
		}()
	}
}

// helper is reached only from run, so the fixpoint admits it.
func (e *engine) helper() {
	e.buf = e.buf[:0]
}

// Len runs on the caller's goroutine: touching buf races the loop.
func (e *engine) Len() int {
	return len(e.buf) // want `actor-owned field buf touched outside the actor call tree`
}

// ctl hands fn to the actor loop for execution.
//
//treedoc:actorexec
func (e *engine) ctl(fn func()) {
	e.inbox <- fn
}

// Reset dispatches through ctl, so the closure body runs on the actor.
func (e *engine) Reset() {
	e.ctl(func() {
		e.buf = e.buf[:0]
	})
}

// newEngine touches buf before the actor goroutine exists.
//
//treedoc:actorsafe construction happens before the actor starts
func newEngine() *engine {
	e := &engine{inbox: make(chan func())}
	e.buf = make([]int, 0, 8)
	return e
}

// stepper is a second driver for the same engine: no goroutine runs the
// loop, the stepper's caller is the actor, and its entry points are roots
// of the allowed call tree exactly as run is.
type stepper struct{ e *engine }

// Step reaches buf through the engine's own helper and directly; both are
// on the actor because the entry point is a loop root.
//
//treedoc:actorloop
func (s *stepper) Step() {
	s.e.helper()
	s.e.buf = append(s.e.buf, 2)
}

// Deliver returns a closure created in an actorloop function: it inherits
// the context, so the driver may call it as a step.
//
//treedoc:actorloop
func (s *stepper) Deliver() func(int) {
	return func(v int) { s.e.buf = append(s.e.buf, v) }
}

// Peek is not a step: a driver reading engine state between steps has
// left the call tree the annotation vouches for.
func (s *stepper) Peek() int {
	return len(s.e.buf) // want `actor-owned field buf touched outside the actor call tree`
}
