package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"github.com/treedoc/treedoc"
	"github.com/treedoc/treedoc/internal/transport"
	"github.com/treedoc/treedoc/internal/vclock"
)

const (
	quiesceTimeout = 20 * time.Second
	joinTimeout    = 10 * time.Second
)

// replica is one Doc + Engine attached through the hub.
type replica struct {
	site treedoc.SiteID
	app  *applier
	eng  *transport.Engine
	link *meterLink
	sent uint64 // ops this replica broadcast (owned by the driving goroutine)
}

// group is the replicas of one document; the first writers of them write.
type group struct {
	name    string
	reps    []*replica
	writers int
	notify  chan struct{} // poked by every replica's applier
}

// fleet is one in-process hub on loopback TCP and everything attached to it.
type fleet struct {
	rec      *recorder
	hub      *transport.Hub
	addr     string
	sessions []*transport.Session
	groups   []*group
	stopped  transport.EngineStats // counters of the engines already stopped
	logRoot  string                // "" unless writers are durable
	attachMS *[]float64            // every Session.Attach, in milliseconds (owned by the pass)
	nextSite treedoc.SiteID
}

func newFleet(rec *recorder, logRoot string, attachMS *[]float64) (*fleet, error) {
	hub, err := transport.ListenHub("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen hub: %w", err)
	}
	return &fleet{rec: rec, hub: hub, addr: hub.Addr().String(), logRoot: logRoot, attachMS: attachMS}, nil
}

// session returns the shared connection of slot i: slot i of every document
// rides the same Session, so doc envelopes and kindSyncBatch are exercised.
func (f *fleet) session(i int) *transport.Session {
	for len(f.sessions) <= i {
		f.sessions = append(f.sessions, transport.DialSession(f.addr))
	}
	return f.sessions[i]
}

// addGroup attaches n fresh replicas to document name, slot i through
// session i. The first writers replicas are the document's writers; with a
// log root each of them gets a durable oplog with the default FsyncBatch.
func (f *fleet) addGroup(name string, n, writers int) (*group, error) {
	g := &group{name: name, writers: writers, notify: make(chan struct{}, 1)}
	f.groups = append(f.groups, g)
	for i := 0; i < n; i++ {
		f.nextSite++
		site := f.nextSite
		doc, err := treedoc.New(treedoc.WithSite(site))
		if err != nil {
			return nil, err
		}
		app := f.rec.newApplier(doc, site, g.notify)
		var opts []transport.Option
		if f.logRoot != "" && i < writers {
			opts = append(opts,
				transport.WithLogDir(filepath.Join(f.logRoot, fmt.Sprintf("%s-s%d", name, site))),
				transport.WithFsync(transport.FsyncBatch))
		}
		eng, err := transport.NewEngine(site, app, opts...)
		if err != nil {
			return nil, fmt.Errorf("engine s%d: %w", site, err)
		}
		r := &replica{site: site, app: app, eng: eng}
		g.reps = append(g.reps, r)
		t := time.Now()
		link, err := f.session(i).Attach(name)
		if err != nil {
			return nil, fmt.Errorf("attach %s slot %d: %w", name, i, err)
		}
		*f.attachMS = append(*f.attachMS, float64(time.Since(t))/1e6)
		r.link = f.rec.meter(link, name, i < writers)
		app.link = r.link
		eng.Connect(r.link)
	}
	return g, nil
}

// stopEngines shuts the engines of quiesced replicas down, folds their
// counters into the fleet's and lets them go; the documents stay. The links
// are closed first: an engine stopped over a live link arms a
// stopDrainTimeout timer in each peer writer, and until that timer expires
// two seconds later the runtime's timer heap pins the stopped engine and
// its whole retained log (hundreds of megabytes after a bulk round), which
// would ride into the next round's collections and into the heap metric.
// Everything was delivered before this is called, so there is nothing to
// drain.
func (f *fleet) stopEngines(reps []*replica) {
	for _, r := range reps {
		if r.eng != nil {
			r.link.Close()
		}
	}
	time.Sleep(5 * time.Millisecond) // peer writers see the dead link and exit
	for _, r := range reps {
		if r.eng == nil {
			continue
		}
		r.eng.Stop()
		addStats(&f.stopped, r.eng.Stats())
		r.eng = nil
	}
}

// retire stops replicas' engines and drops their documents.
func (f *fleet) retire(reps ...*replica) {
	f.stopEngines(reps)
	for _, r := range reps {
		r.app.retire()
	}
}

func (f *fleet) stopGroup(g *group) {
	f.retire(g.reps...)
	g.reps = nil
}

// engineStats sums the counters of every engine the fleet has run.
func (f *fleet) engineStats() transport.EngineStats {
	sum := f.stopped
	for _, g := range f.groups {
		for _, r := range g.reps {
			if r.eng != nil {
				addStats(&sum, r.eng.Stats())
			}
		}
	}
	return sum
}

// addStats folds the counters the per-layer metrics use into sum.
func addStats(sum *transport.EngineStats, s transport.EngineStats) {
	sum.Drops += s.Drops
	sum.Applied += s.Applied
	sum.DigestsSent += s.DigestsSent
	sum.DigestsSuppressed += s.DigestsSuppressed
	sum.ReplayOps += s.ReplayOps
}

func (f *fleet) close() {
	for _, g := range f.groups {
		f.stopGroup(g)
	}
	for _, s := range f.sessions {
		s.Close()
	}
	f.hub.Close()
	if f.logRoot != "" {
		os.RemoveAll(f.logRoot)
	}
}

// expected is the clock every replica of g must reach: each writer's
// broadcast count.
func (g *group) expected() vclock.VC {
	vc := vclock.New()
	for _, r := range g.reps[:g.writers] {
		if r.sent > 0 {
			vc[r.site] = r.sent
		}
	}
	return vc
}

// quiesce waits until every replica's delivered clock equals want and
// returns the largest number of operations any replica still lacks.
func (g *group) quiesce(want vclock.VC, timeout time.Duration) (missing uint64) {
	deadline := time.Now().Add(timeout)
	for {
		missing = 0
		for _, r := range g.reps {
			clock := r.eng.Clock()
			var lack uint64
			for s, n := range want {
				if c := clock.Get(s); c < n {
					lack += n - c
				}
			}
			missing = max(missing, lack)
		}
		if missing == 0 || time.Now().After(deadline) {
			return missing
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// oracle checks one quiesced group: equal clocks, byte-identical content,
// tree invariants; wantContent, when non-nil, is the reference document
// (stamps stripped). It returns the number of replicas that fail.
func (g *group) oracle(want vclock.VC, wantContent []string) (bad int, why string) {
	var first string
	for i, r := range g.reps {
		fail := func(format string, args ...any) {
			bad++
			if why == "" {
				why = fmt.Sprintf("%s s%d: ", g.name, r.site) + fmt.Sprintf(format, args...)
			}
		}
		if clock := r.eng.Clock(); clock.Compare(want) != vclock.Equal {
			fail("clock %v, want %v", clock, want)
			continue
		}
		if err := r.app.Check(); err != nil {
			fail("check: %v", err)
			continue
		}
		if err := r.eng.Err(); err != nil {
			fail("engine: %v", err)
			continue
		}
		content := r.app.ContentString()
		if i == 0 {
			first = content
			if wantContent != nil {
				if got := stripStamps(r.app.Content()); !slices.Equal(got, wantContent) {
					fail("content differs from the trace's final version (%d vs %d atoms)", len(got), len(wantContent))
				}
			}
		} else if content != first {
			fail("content differs from s%d", g.reps[0].site)
		}
	}
	return bad, why
}

func stripStamps(atoms []string) []string {
	out := make([]string, len(atoms))
	for i, a := range atoms {
		out[i] = a[strings.IndexByte(a, '|')+1:]
	}
	return out
}

// docHeapPerAtom measures what the groups' documents alone cost: engines
// are stopped (their retained logs are transport state, and how much of
// one is left depends on when the last compaction ticked), the heap is
// measured with the documents live and again with them dropped, and the
// difference is divided by their live atoms. The groups are gone afterwards.
func (f *fleet) docHeapPerAtom(groups []*group) float64 {
	atoms := 0
	for _, g := range groups {
		f.stopEngines(g.reps)
		for _, r := range g.reps {
			atoms += r.app.Len()
		}
	}
	with := heapAfterGC()
	for _, g := range groups {
		f.stopGroup(g)
	}
	if atoms == 0 {
		return 0
	}
	return (with - heapAfterGC()) / float64(atoms)
}

// joinResult is one timed late join.
type joinResult struct {
	ms       float64
	ops      int64
	snapshot bool
	rep      *replica
}

// join dials a fresh replica into document name and times dial → delivered
// clock equal to want. The joiner stays attached; the caller stops it.
func (f *fleet) join(name string, want vclock.VC) (joinResult, error) {
	f.nextSite++
	site := f.nextSite
	doc, err := treedoc.New(treedoc.WithSite(site))
	if err != nil {
		return joinResult{}, err
	}
	app := f.rec.newApplier(doc, site, make(chan struct{}, 1))
	start := time.Now()
	app.dueFixed = f.rec.now()
	link, err := transport.DialDoc(f.addr, name)
	if err != nil {
		return joinResult{}, fmt.Errorf("join dial: %w", err)
	}
	eng, err := transport.NewEngine(site, app)
	if err != nil {
		link.Close()
		return joinResult{}, err
	}
	r := &replica{site: site, app: app, eng: eng, link: f.rec.meter(link, name, false)}
	app.link = r.link
	eng.Connect(r.link)
	var total int64
	for _, n := range want {
		total += int64(n)
	}
	deadline := time.NewTimer(joinTimeout)
	defer deadline.Stop()
	for app.applied.Load() < total || eng.Clock().Compare(want) != vclock.Equal {
		select {
		case <-app.notify:
		case <-time.After(time.Millisecond):
		case <-deadline.C:
			return joinResult{rep: r}, fmt.Errorf("join of %s timed out at %d of %d ops", name, app.applied.Load(), total)
		}
	}
	return joinResult{
		ms:       float64(time.Since(start)) / 1e6,
		ops:      total,
		snapshot: app.snaps.Load() > 0,
		rep:      r,
	}, nil
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// heapAfterGC is HeapAlloc once collections stop finding garbage: stopped
// engines and closed connections let go of their buffers over a few
// collections (pools, finalizers, goroutines still unwinding), so collect
// until two readings agree within half a percent.
func heapAfterGC() float64 {
	var ms runtime.MemStats
	prev := -1.0
	for i := 0; i < 8; i++ {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		h := float64(ms.HeapAlloc)
		if prev >= 0 && prev-h <= 0.005*prev {
			return h
		}
		prev = h
		time.Sleep(10 * time.Millisecond)
	}
	return prev
}
