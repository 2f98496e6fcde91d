package transport

import (
	"sort"

	"github.com/treedoc/treedoc/internal/causal"
	"github.com/treedoc/treedoc/internal/ident"
	"github.com/treedoc/treedoc/internal/vclock"
)

// siteRun is one contiguous stretch of the retained log holding messages
// from a single site with consecutive sequence numbers: msgs[start:start+n]
// carries seqs [firstSeq, firstSeq+n). Runs split only when another site's
// message interleaves, so a mostly-single-writer document indexes its whole
// log in a handful of runs.
type siteRun struct {
	start    int
	n        int
	firstSeq uint64
}

// span is one half-open window [start, start+n) of the retained log, the
// unit a digest answer is assembled from.
type span struct {
	start, n int
}

// RetainedLog is the engine's anti-entropy retention buffer: every stamped
// or delivered message in causal-delivery order, plus a per-site index of
// seq-sorted run offsets maintained incrementally on append. Its one query,
// AppendMissing, is a binary search per site followed by contiguous suffix
// slices, instead of a scan of the whole log; a digest answer reads it.
//
// The zero value is ready to use. RetainedLog is not safe for concurrent
// use; inside the engine every access happens on the actor goroutine.
type RetainedLog struct {
	msgs []causal.Message
	runs map[ident.SiteID][]siteRun
}

// Len returns the number of retained messages.
func (r *RetainedLog) Len() int { return len(r.msgs) }

// Append retains one message, extending the site's last run when the
// message lands directly after it (the common case: a flushed local batch
// or a delivered remote run appends positionally and sequentially).
func (r *RetainedLog) Append(m causal.Message) {
	if r.runs == nil {
		r.runs = make(map[ident.SiteID][]siteRun)
	}
	seq := m.TS.Get(m.From)
	rs := r.runs[m.From]
	if k := len(rs) - 1; k >= 0 && rs[k].start+rs[k].n == len(r.msgs) && rs[k].firstSeq+uint64(rs[k].n) == seq {
		rs[k].n++
	} else {
		rs = append(rs, siteRun{start: len(r.msgs), n: 1, firstSeq: seq})
	}
	r.runs[m.From] = rs
	r.msgs = append(r.msgs, m)
}

// Truncate drops every message the floor covers, releasing the tail for GC
// and re-indexing the survivors by appending them again, in place: a
// survivor only ever moves down. Truncation runs when the floor moves —
// rare next to appends and digest answers — so the O(len) rebuild is the
// right trade against carrying tombstones in every binary search.
func (r *RetainedLog) Truncate(floor vclock.VC) {
	old := r.msgs
	r.msgs = old[:0]
	clear(r.runs)
	for _, m := range old {
		if m.TS.Get(m.From) > floor.Get(m.From) {
			r.Append(m)
		}
	}
	clear(old[len(r.msgs):])
}

// missingSpans returns the log windows holding every message the clock
// does not cover, sorted by log position — which is causal-delivery order,
// so a receiver replaying them in order never builds a pending backlog it
// would otherwise prune. Cost is O(sites × log runs) for the searches plus
// O(spans log spans) for the ordering; the log length never appears.
func (r *RetainedLog) missingSpans(clock vclock.VC) []span {
	var spans []span
	for site, rs := range r.runs {
		c := clock.Get(site)
		last := rs[len(rs)-1]
		if last.firstSeq+uint64(last.n)-1 <= c {
			continue // clock covers everything retained from this site
		}
		// First run still holding a seq above the clock.
		i := sort.Search(len(rs), func(i int) bool {
			return rs[i].firstSeq+uint64(rs[i].n)-1 > c
		})
		// That run may be partially covered: skip the covered prefix.
		run := rs[i]
		off := 0
		if run.firstSeq <= c {
			off = int(c + 1 - run.firstSeq)
		}
		spans = append(spans, span{start: run.start + off, n: run.n - off})
		for _, run := range rs[i+1:] {
			spans = append(spans, span{start: run.start, n: run.n})
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	return spans
}

// AppendMissing appends to dst every retained message the clock does not
// cover, in causal-delivery order, and returns the extended slice.
func (r *RetainedLog) AppendMissing(dst []causal.Message, clock vclock.VC) []causal.Message {
	for _, sp := range r.missingSpans(clock) {
		dst = append(dst, r.msgs[sp.start:sp.start+sp.n]...)
	}
	return dst
}

// CountAbove returns how many retained messages the version does not
// cover — the barrier adoption recount — without touching the messages
// themselves.
func (r *RetainedLog) CountAbove(version vclock.VC) int {
	n := 0
	for site, rs := range r.runs {
		c := version.Get(site)
		for _, run := range rs {
			top := run.firstSeq + uint64(run.n) - 1
			if top <= c {
				continue
			}
			missing := run.n
			if run.firstSeq <= c {
				missing = int(top - c)
			}
			n += missing
		}
	}
	return n
}
