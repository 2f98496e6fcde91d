package transport

import (
	"encoding/binary"
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
// seq-sorted run offsets maintained incrementally on append. Answering a
// digest is a binary search per site followed by contiguous suffix slices,
// instead of a scan of the whole log.
//
// The zero value is ready to use. RetainedLog is not safe for concurrent
// use; inside the engine every access happens on the actor goroutine.
type RetainedLog struct {
	msgs []causal.Message
	runs map[ident.SiteID][]siteRun
	// settled[0] is the log length at the most recent Settle call,
	// settled[1] the length at the one before. Everything below
	// settled[1] has been retained for at least one full sync interval,
	// which is the replay horizon: younger messages are presumed still
	// in flight on the normal relay path, and retransmitting them would
	// duplicate the live stream.
	settled [2]int
}

// Len returns the number of retained messages.
func (r *RetainedLog) Len() int { return len(r.msgs) }

// Msgs returns the retained messages in causal-delivery order. The slice
// is owned by the log; callers must not mutate or retain it across Append
// or Truncate.
func (r *RetainedLog) Msgs() []causal.Message { return r.msgs }

// Settle advances the replay horizon: the engine calls it once per sync
// tick, so SettledLen lags the head by one to two full intervals.
func (r *RetainedLog) Settle() {
	r.settled[1] = r.settled[0]
	r.settled[0] = len(r.msgs)
}

// SettledLen returns how many leading messages have been retained since
// before the previous Settle call — the prefix old enough to retransmit
// without racing the live relay stream.
func (r *RetainedLog) SettledLen() int { return r.settled[1] }

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
	removed := len(old) - len(r.msgs)
	clear(old[len(r.msgs):])
	// Shift the settle marks by the total removed count. A survivor at old
	// position p moves down by at most that much, so the shifted marks
	// never cover a message younger than the one they covered before —
	// the horizon only errs toward retransmitting less.
	for i := range r.settled {
		if r.settled[i] -= removed; r.settled[i] < 0 {
			r.settled[i] = 0
		}
	}
}

// missingSpans appends to dst the log windows holding every message the
// clock does not cover among the first limit retained messages, sorted by
// log position — which is causal-delivery order, so a receiver replaying
// the spans in order never builds a pending backlog it would otherwise
// prune. Callers pass Len() for everything (state transfer) or
// SettledLen() for anti-entropy answers, which must not duplicate frames
// still in flight on the relay path. Cost is O(sites × log runs) for the
// searches plus O(spans log spans) for the ordering; the log length never
// appears.
func (r *RetainedLog) missingSpans(dst []span, clock vclock.VC, limit int) []span {
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
		// A site's runs are position-ordered, so the horizon clips the
		// current window and ends the site.
		if sp := clipSpan(span{start: run.start + off, n: run.n - off}, limit); sp.n > 0 {
			dst = append(dst, sp)
		} else {
			continue
		}
		for _, run := range rs[i+1:] {
			sp := clipSpan(span{start: run.start, n: run.n}, limit)
			if sp.n == 0 {
				break
			}
			dst = append(dst, sp)
		}
	}
	sort.Slice(dst, func(i, j int) bool { return dst[i].start < dst[j].start })
	return dst
}

// clipSpan trims a span to log positions below limit.
func clipSpan(sp span, limit int) span {
	if sp.start >= limit {
		return span{}
	}
	if sp.start+sp.n > limit {
		sp.n = limit - sp.start
	}
	return sp
}

// AppendMissing appends to dst every retained message the clock does not
// cover, in causal-delivery order, and returns the extended slice. It
// ignores the settle horizon: state transfer must carry everything.
func (r *RetainedLog) AppendMissing(dst []causal.Message, clock vclock.VC) []causal.Message {
	for _, sp := range r.missingSpans(nil, clock, len(r.msgs)) {
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

// spanKey serialises a span list into a map key: two varints per span.
// Identical span sets — several peers whose digests miss the same suffix —
// collapse to one key, which is what lets the engine encode each distinct
// missing range once per tick and fan the frames out.
func spanKey(dst []byte, spans []span) []byte {
	for _, sp := range spans {
		dst = binary.AppendUvarint(dst, uint64(sp.start))
		dst = binary.AppendUvarint(dst, uint64(sp.n))
	}
	return dst
}
