// Package a exercises the guardedby analyzer: a mutex-annotated field,
// locked and unlocked access, branch merging, goroutine boundaries, and
// the holds/unguarded waivers.
package a

import "sync"

type counter struct {
	mu sync.Mutex
	n  int // guarded by mu
}

// Inc holds the lock across the access: clean.
func (c *counter) Inc() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
}

// Bad reads the field with no lock anywhere in sight.
func (c *counter) Bad() int {
	return c.n // want `access to n without holding mu`
}

// BothBranches locks on every path, so the merge keeps the lock.
func (c *counter) BothBranches(b bool) {
	if b {
		c.mu.Lock()
	} else {
		c.mu.Lock()
	}
	c.n++
	c.mu.Unlock()
}

// OneBranch locks on only one path: after the merge the lock is not
// provably held.
func (c *counter) OneBranch(b bool) {
	if b {
		c.mu.Lock()
		defer c.mu.Unlock()
	}
	c.n++ // want `access to n without holding mu`
}

// LockOrBail's else branch terminates, so the merge still holds the lock.
func (c *counter) LockOrBail(b bool) {
	if b {
		c.mu.Lock()
	} else {
		return
	}
	c.n++
	c.mu.Unlock()
}

// Goroutine closures start with an empty lock set: the spawning
// function's lock does not protect them.
func (c *counter) Goroutine() {
	c.mu.Lock()
	defer c.mu.Unlock()
	go func() {
		c.n++ // want `access to n without holding mu`
	}()
}

// incLocked documents its caller's obligation instead of locking.
//
//treedoc:holds mu
func (c *counter) incLocked() {
	c.n++
}

// newCounter touches the field before the value is shared.
//
//treedoc:unguarded the counter is not shared during construction
func newCounter() *counter {
	c := &counter{}
	c.n = 1
	return c
}

type registry struct {
	mu    sync.Mutex
	links map[string]int // guarded by mu
}

// Attach checks for a duplicate with no lock and takes it only to write:
// the race detector sees the read only if a test attaches while another
// goroutine writes the map.
func (r *registry) Attach(doc string) bool {
	if r.links[doc] != 0 { // want `access to links without holding mu`
		return false
	}
	r.mu.Lock()
	r.links[doc] = 1
	r.mu.Unlock()
	return true
}
