package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"syscall"
	"time"

	"github.com/treedoc/treedoc/internal/trace"
)

// slot is one entry of the merged due-time schedule: writer w owes an
// action at due after the window opens.
type slot struct {
	due time.Duration
	w   int
}

// buildSchedule merges every logical writer's clock into one due-time
// order. A writer owes exactly one action per period of 1/rate, at a seeded
// offset inside that period: the rate is exact, but no two writers keep a
// fixed phase relation for a whole run (a metronome would make each seed
// its own collision pattern). The schedule is fixed before the run: a
// stalled generator does not drop ticks (the coordinated-omission trap of a
// time.Ticker), it runs late, and lateness is both charged to the latency
// and reported.
func buildSchedule(seed int64, writers int, rate float64, dur time.Duration) []slot {
	rng := rand.New(rand.NewSource(seed))
	interval := time.Duration(float64(time.Second) / rate)
	var sched []slot
	for w := 0; w < writers; w++ {
		for period := time.Duration(0); period < dur; period += interval {
			if due := period + time.Duration(rng.Int63n(int64(interval))); due < dur {
				sched = append(sched, slot{due, w})
			}
		}
	}
	sort.Slice(sched, func(i, j int) bool {
		if sched[i].due != sched[j].due {
			return sched[i].due < sched[j].due
		}
		return sched[i].w < sched[j].w
	})
	return sched
}

// sleepUntil blocks the calling OS thread until the recorder clock reads t.
// Go's preemption signals interrupt the sleep; the loop resumes it.
func (r *recorder) sleepUntil(t int64) {
	for d := t - r.now(); d > 0; d = t - r.now() {
		ts := syscall.NsecToTimespec(d)
		_ = syscall.Nanosleep(&ts, nil) // EINTR is the only failure; re-arm
	}
}

// editSteps turns one trace.Stream action into edit calls.
func editSteps(dst []step, e trace.Edit) []step {
	dst = dst[:0]
	for i := 0; i < e.Del; i++ {
		dst = append(dst, step{pos: e.Pos, del: true})
	}
	if len(e.Ins) > 0 {
		dst = append(dst, step{pos: e.Pos, atoms: e.Ins})
	}
	return dst
}

// typing is the open-loop pair: typing-fanout, and typing-durable with
// every writer on an fsync-batched oplog. Fleet, seed and rate are the
// same, so the only difference is internal/oplog on the blocking path.
func (p *pass) typing(durable bool) error {
	sz := p.cfg.sz
	var (
		eds     []*editor
		streams []*trace.Stream
		sched   []slot
	)
	err := p.setup(func() error {
		p.rec = newRecorder(p.traced)
		logRoot := ""
		if durable {
			logRoot = p.logRoot()
		}
		fl, err := newFleet(p.rec, logRoot, &p.attachMS)
		if err != nil {
			return err
		}
		p.fl = fl
		eds, streams = nil, nil
		for d := 0; d < sz.docs; d++ {
			g, err := fl.addGroup(fmt.Sprintf("typing-%d", d), sz.replicas, sz.writers)
			if err != nil {
				return err
			}
			for _, r := range g.reps[:g.writers] {
				st, err := trace.NewStream(trace.DefaultMix(), p.cfg.seed*7919+int64(len(eds)), fmt.Sprintf("w%d", len(eds)))
				if err != nil {
					return err
				}
				eds = append(eds, &editor{rec: p.rec, r: r})
				streams = append(streams, st)
			}
		}
		sched = buildSchedule(p.cfg.seed, len(eds), sz.rate, p.window)
		// Every document starts with content, written live by its first
		// writer: editing positions, deletes and identifier depth then
		// behave as in a document someone is working on, not an empty one.
		initial := make([]string, sz.initialAtoms)
		for i := range initial {
			initial[i] = fmt.Sprintf("initial-line-%06d ....", i)
		}
		for _, g := range fl.groups {
			ed := &editor{rec: p.rec, r: g.reps[0]}
			if _, err := ed.apply(p.rec.now(), false, false, []step{{atoms: initial}}); err != nil {
				return err
			}
		}
		for _, g := range fl.groups {
			if missing := g.quiesce(g.expected(), quiesceTimeout); missing > 0 {
				return fmt.Errorf("%s: initial content %d ops short", g.name, missing)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	// The generator owns an OS thread and sleeps in the kernel: the Go
	// runtime parks idle timers in epoll with millisecond granularity, which
	// alone made every action ~0.5 ms late — more than the hub round trip.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	p.begin()
	var steps []step
	for _, s := range sched {
		due := p.winStart + int64(s.due)
		p.rec.sleepUntil(due)
		p.rec.lates = append(p.rec.lates, float64(p.rec.now()-due)/1e6)
		ed := eds[s.w]
		steps = editSteps(steps, streams[s.w].Next(ed.r.app.Len()))
		n, err := ed.apply(due, true, true, steps)
		if err != nil {
			return err
		}
		p.ops += int64(n)
	}
	p.rec.sleepUntil(p.winStart + int64(p.window))
	p.end()

	p.attempted = p.ops
	p.settle(p.fl.groups, nil)
	applied := p.rec.now()
	p.rates = []float64{float64(p.ops) / (float64(applied-p.winStart) / 1e9)}
	p.deliver = p.rec.deliverSamples()
	p.lastGroup = p.fl.groups[0]
	p.finish(p.fl.groups...)
	return nil
}

// bulk is the closed-loop throughput workload: each round a fresh document
// with one writer and bulkReaders readers replays the whole calibrated
// history, one Broadcast per revision, at most bulkWindow revisions
// un-applied at the slowest reader (at a window of one the round is
// latency-bound and measures the round trip, not the apply path).
func (p *pass) bulk() error {
	sz := p.cfg.sz
	var (
		sc *script
		g  *group
	)
	n := 1 + sz.bulkReaders
	err := p.setup(func() error {
		p.rec = newRecorder(p.traced)
		var err error
		if sc, err = buildScript(historyProfile(p.cfg.seed, sz.bulkInitial, sz.bulkFinal, sz.bulkRevs, sz.bulkEdits)); err != nil {
			return err
		}
		if p.fl, err = newFleet(p.rec, "", &p.attachMS); err != nil {
			return err
		}
		g, err = p.fl.addGroup("bulk-0", n, 1)
		return err
	})
	if err != nil {
		return err
	}

	p.begin()
	for round := 0; ; round++ {
		ed := &editor{rec: p.rec, r: g.reps[0]}
		readers := g.reps[1:]
		// catchUp blocks until every reader has applied want operations.
		deadline := time.Now().Add(quiesceTimeout)
		catchUp := func(want int64) {
			for time.Now().Before(deadline) {
				behind := false
				for _, r := range readers {
					behind = behind || r.app.applied.Load() < want
				}
				if !behind {
					return
				}
				select {
				case <-g.notify:
				case <-time.After(time.Millisecond):
				}
			}
		}
		cum := make([]int64, 0, len(sc.revs))
		start := p.rec.now()
		var total int64
		for i, steps := range sc.revs {
			if i >= sz.bulkWindow {
				catchUp(cum[i-sz.bulkWindow])
			}
			k, err := ed.apply(p.rec.now(), true, false, steps)
			if err != nil {
				return fmt.Errorf("round %d revision %d: %w", round, i, err)
			}
			total += int64(k)
			cum = append(cum, total)
		}
		catchUp(total)
		took := p.rec.now() - start
		p.ops += total
		p.rates = append(p.rates, float64(total)/(float64(took)/1e9))
		p.settle([]*group{g}, sc.final)
		if p.rec.now()-p.winStart >= int64(p.window) {
			break
		}
		p.fl.stopGroup(g)
		if g, err = p.fl.addGroup(fmt.Sprintf("bulk-%d", round+1), n, 1); err != nil {
			return err
		}
	}
	p.end()

	p.attempted = p.ops
	p.deliver = p.rec.deliverSamples()
	p.lastGroup = g
	p.finish(g)
	return nil
}

// joinSpacing is how often one history document takes a new joiner. The
// engine offers the same barrier snapshot over one link at most once per
// second (snapResendAfter), so joins closer together than that measure the
// timer — 1.0 to 2.0 s, quantised by the 200 ms sync tick — not the
// catch-up path. README.md records that observation; the workload stays
// clear of it and round-robins over joinDocs documents to keep its sample
// count up.
const joinSpacing = 1250 * time.Millisecond

// lateJoin is the catch-up workload: set-up builds a history of the same
// size on each of joinDocs single-writer documents; then fresh replicas join one at a time,
// round-robin, each timed from dial to delivered-clock equality, checked
// against the writer and stopped.
func (p *pass) lateJoin() error {
	sz := p.cfg.sz
	var contents []string
	err := p.setup(func() error {
		p.rec = newRecorder(p.traced)
		var err error
		if p.fl, err = newFleet(p.rec, "", &p.attachMS); err != nil {
			return err
		}
		contents = contents[:0]
		for d := 0; d < sz.joinDocs; d++ {
			// One history per document: the run's numbers average over
			// joinDocs of them instead of hanging on a single one.
			sc, err := buildScript(historyProfile(p.cfg.seed*int64(sz.joinDocs)+int64(d), sz.bulkInitial, sz.joinFinal, sz.joinRevs, sz.joinEdits))
			if err != nil {
				return err
			}
			g, err := p.fl.addGroup(fmt.Sprintf("history-%d", d), 1, 1)
			if err != nil {
				return err
			}
			ed := &editor{rec: p.rec, r: g.reps[0]}
			for i, steps := range sc.revs {
				if _, err := ed.apply(p.rec.now(), false, false, steps); err != nil {
					return fmt.Errorf("history revision %d: %w", i, err)
				}
			}
			want := g.expected()
			if missing := g.quiesce(want, quiesceTimeout); missing > 0 {
				return fmt.Errorf("history: writer engine %d ops short", missing)
			}
			if bad, why := g.oracle(want, sc.final); bad > 0 {
				return fmt.Errorf("history: %s", why)
			}
			contents = append(contents, g.reps[0].app.ContentString())
		}
		return nil
	})
	if err != nil {
		return err
	}
	groups := p.fl.groups
	// The barrier snapshot each writer takes on its first tick after the
	// build must age past the engine's floor delay before the first join:
	// until then the retained log still holds the whole history and the
	// first joiners are sent it twice, as a snapshot and as an op replay.
	time.Sleep(joinSpacing)

	p.begin()
	var last *replica
	every := int64(joinSpacing) / int64(len(groups))
	for i := 0; ; i++ {
		due := p.winStart + int64(i)*every
		if due >= p.winStart+int64(p.window) {
			break
		}
		if d := due - p.rec.now(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		if last != nil {
			p.fl.retire(last)
		}
		g := groups[i%len(groups)]
		p.attempted++
		jr, err := p.fl.join(g.name, g.expected())
		last = jr.rep
		if err != nil {
			p.fail(1, "%v", err)
			continue
		}
		if err := last.app.Check(); err != nil {
			p.fail(1, "joiner s%d: check: %v", last.site, err)
		} else if last.app.ContentString() != contents[i%len(groups)] {
			p.fail(1, "joiner s%d: content differs from the writer", last.site)
		}
		p.joins = append(p.joins, jr)
		p.ops += jr.ops
		p.rates = append(p.rates, float64(jr.ops)/(jr.ms/1e3))
	}
	p.end()

	p.deliver = p.rec.deliverSamples()
	p.lastGroup = groups[0]
	if last != nil && last.app.Doc != nil {
		// The last joiner stays live: it is measured, and stopped, with its group.
		g := groups[(len(p.joins)+int(p.failed)-1)%len(groups)]
		g.reps = append(g.reps, last)
		p.lastGroup = g
	}
	p.finish(groups...)
	return nil
}
