package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/treedoc/treedoc"
	"github.com/treedoc/treedoc/internal/loadstats"
	"github.com/treedoc/treedoc/internal/trace"
	"github.com/treedoc/treedoc/internal/transport"
)

// metrics is the run-wide measurement sink shared by every client:
// recording is wait-free, so thousands of engine goroutines write into it
// directly.
type metrics struct {
	base     time.Time // stamp epoch: all clients share this process clock
	hist     *loadstats.Hist
	timeline *loadstats.Timeline

	sends      atomic.Uint64 // ops broadcast by all writers
	deliveries atomic.Uint64 // remote ops measured on apply

	mu     sync.Mutex
	perDoc map[string]*atomic.Uint64 // guarded by mu (map shape only; counters are atomic)
}

func newMetrics(duration time.Duration) *metrics {
	// One window per second, with slack past the write window for the
	// quiesce tail (late deliveries land there instead of the last write
	// second, keeping recovery windows honest).
	n := int(duration/time.Second) + 120
	return &metrics{
		base:     time.Now(),
		hist:     loadstats.New(),
		timeline: loadstats.NewTimeline(time.Second, n),
		perDoc:   make(map[string]*atomic.Uint64),
	}
}

// stamp returns the monotonic nanosecond timestamp embedded in atoms.
func (m *metrics) stamp() int64 { return int64(time.Since(m.base)) }

// docCounter interns the per-doc delivery counter.
func (m *metrics) docCounter(doc string) *atomic.Uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.perDoc[doc]
	if c == nil {
		c = &atomic.Uint64{}
		m.perDoc[doc] = c
	}
	return c
}

// record is the deliver-side measurement point.
func (m *metrics) record(sentAt int64, docDeliveries *atomic.Uint64) {
	d := time.Duration(m.stamp() - sentAt)
	m.hist.Record(d)
	m.timeline.Record(time.Now(), d)
	m.deliveries.Add(1)
	docDeliveries.Add(1)
}

// measuredDoc wraps a client's replica: remote inserts carry a stamp
// prefix in their atom, parsed and recorded on apply. The embedded Doc
// keeps the rest of the engine's replica contract, so a client installs
// snapshots and takes part in flatten rounds like any other replica.
type measuredDoc struct {
	*treedoc.Doc
	site treedoc.SiteID
	m    *metrics
	docC *atomic.Uint64
}

var _ transport.Replica = (*measuredDoc)(nil)

// observe parses the stamp prefix of a remote insert's atom. Deletes
// carry no atom and local ops are the sender's own.
func (d *measuredDoc) observe(op treedoc.Op) {
	if op.Site == d.site || op.Atom == "" {
		return
	}
	i := strings.IndexByte(op.Atom, '|')
	if i <= 0 {
		return
	}
	sentAt, err := strconv.ParseInt(op.Atom[:i], 10, 64)
	if err != nil {
		return
	}
	d.m.record(sentAt, d.docC)
}

// ApplyBatch is the one apply path. Atoms arriving inside an installed
// snapshot skip it, so their latency is not measured — catch-up state
// transfer is not per-op delivery.
func (d *measuredDoc) ApplyBatch(ops []treedoc.Op) (int, error) {
	for i := range ops {
		d.observe(ops[i])
	}
	return d.Doc.ApplyBatch(ops)
}

// watchedLink wraps a doc link so the client's supervisor hears about
// link death (the engine itself just marks the peer dead and moves on).
type watchedLink struct {
	transport.Link
	dead chan struct{}
	once sync.Once
}

func watchLink(l transport.Link) *watchedLink {
	return &watchedLink{Link: l, dead: make(chan struct{})}
}

func (w *watchedLink) note() { w.once.Do(func() { close(w.dead) }) }

// RoutesReplay forwards the wrapped link's directed-answer capability:
// embedding the Link interface hides the concrete link's methods, and
// without this the engine would fall back to broadcast answers — the
// exact hot-doc amplification the load harness exists to measure.
func (w *watchedLink) RoutesReplay() bool {
	rr, ok := w.Link.(transport.ReplayRouter)
	return ok && rr.RoutesReplay()
}

func (w *watchedLink) Recv() ([]byte, error) {
	f, err := w.Link.Recv()
	if err != nil {
		w.note()
		return f, fmt.Errorf("treedoc-load: watched link recv: %w", err)
	}
	return f, nil
}

func (w *watchedLink) Send(f []byte) error {
	if err := w.Link.Send(f); err != nil {
		w.note()
		return fmt.Errorf("treedoc-load: watched link send: %w", err)
	}
	return nil
}

// sessionPool is the bounded dial pool: a growable slice of Sessions with
// primaries round-robined across the fleet. A Session carries at most one
// link per document, so the pool's effective bound is the client count of
// the hottest document — attach probes forward from the client's slot
// until a session takes the doc.
type sessionPool struct {
	addrs []string
	max   int

	mu       sync.Mutex
	sessions []*transport.Session // guarded by mu
}

func newSessionPool(addrs []string, max int) *sessionPool {
	return &sessionPool{addrs: addrs, max: max}
}

// session returns pool slot i, creating it (and any gap below) lazily.
func (p *sessionPool) session(i int) *transport.Session {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.sessions) <= i {
		primary := p.addrs[len(p.sessions)%len(p.addrs)]
		p.sessions = append(p.sessions, transport.DialSession(primary))
	}
	return p.sessions[i]
}

// attach finds a session for doc starting at slot start: the slot itself
// first (a reattaching client's old slot is free again once its dead link
// closed), then forward probes for a session without the doc and with a
// reachable hub. Extra probes past max cover the case where start's
// primary is the faulted hub.
func (p *sessionPool) attach(doc string, start int) (transport.Link, *transport.Session, error) {
	probes := p.max + len(p.addrs)
	var lastErr error
	for off := 0; off < probes; off++ {
		i := (start + off) % probes
		s := p.session(i)
		link, err := s.Attach(doc)
		if err == nil {
			return link, s, nil
		}
		lastErr = err
	}
	return nil, nil, fmt.Errorf("treedoc-load: no session slot for doc %q after %d probes: %w", doc, probes, lastErr)
}

func (p *sessionPool) size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.sessions)
}

func (p *sessionPool) closeAll() {
	p.mu.Lock()
	sessions := p.sessions
	p.sessions = nil
	p.mu.Unlock()
	for _, s := range sessions {
		s.Close()
	}
}

// client is one simulated editor: a Doc replica, an Engine, an edit
// stream, and a supervisor that reattaches through the pool when its hub
// connection dies.
type client struct {
	id      int
	site    treedoc.SiteID
	doc     string
	slot    int // pool slot (per-doc index)
	replica *treedoc.Doc
	md      *measuredDoc
	eng     *transport.Engine
	stream  *trace.Stream

	sent       atomic.Uint64 // ops broadcast (the no-lost-ops expectation)
	reconnects atomic.Uint64
}

// fleetClients builds, attaches and wires every client. Attaches run on a
// small worker pool: each is a hello round trip (possibly with redirect
// hops), and thousands of them sequentially would dominate startup.
// Supervisors run until supStop closes — which must happen only after the
// quiesce phase, because post-heal convergence depends on crashed-hub
// clients reattaching.
func fleetClients(cfg *config, pool *sessionPool, m *metrics, supStop <-chan struct{}, verbose bool) ([]*client, error) {
	docNames := make([]string, cfg.docs)
	for i := range docNames {
		docNames[i] = fmt.Sprintf("load-%03d", i)
	}
	picker, err := trace.NewDocPicker(docNames, cfg.skew, cfg.seed)
	if err != nil {
		return nil, err
	}

	clients := make([]*client, cfg.sessions)
	slots := make(map[string]int, cfg.docs)
	for i := range clients {
		doc := picker.Pick()
		slot := slots[doc]
		slots[doc]++
		if slots[doc] > cfg.pool {
			return nil, fmt.Errorf("treedoc-load: doc %q needs %d sessions but -pool is %d (raise -pool or -docs, or lower -skew)",
				doc, slots[doc], cfg.pool)
		}
		site := treedoc.SiteID(i + 1)
		replica, err := treedoc.New(treedoc.WithSite(site))
		if err != nil {
			return nil, err
		}
		stream, err := trace.NewStream(cfg.mix, cfg.seed+int64(i)*7919, fmt.Sprintf("c%d", i))
		if err != nil {
			return nil, err
		}
		md := &measuredDoc{Doc: replica, site: site, m: m, docC: m.docCounter(doc)}
		eng, err := transport.NewEngine(site, md,
			transport.WithSyncInterval(cfg.sync),
			transport.WithQueueDepth(cfg.queue))
		if err != nil {
			return nil, err
		}
		clients[i] = &client{
			id: i, site: site, doc: doc, slot: slot,
			replica: replica, md: md, eng: eng, stream: stream,
		}
	}

	var (
		wg      sync.WaitGroup
		sem     = make(chan struct{}, 32)
		errOnce sync.Once
		firstEr error
	)
	for _, c := range clients {
		wg.Add(1)
		sem <- struct{}{}
		go func(c *client) {
			defer wg.Done()
			defer func() { <-sem }()
			link, _, err := pool.attach(c.doc, c.slot)
			if err != nil {
				errOnce.Do(func() { firstEr = err })
				return
			}
			w := watchLink(link)
			c.eng.Connect(w)
			go c.supervise(w, pool, supStop, verbose)
		}(c)
	}
	wg.Wait()
	if firstEr != nil {
		return nil, firstEr
	}
	return clients, nil
}

// supervise reattaches the client after link death: close the dead link
// (freeing the session's doc slot), back off with jitter, probe the pool
// for a new attach — possibly landing on a different hub or on a
// forwarded path while the owner is down — and hand the engine the new
// link. The engine's own anti-entropy then repairs whatever the outage
// dropped. Runs until stop closes (after quiesce, before Engine.Stop).
func (c *client) supervise(w *watchedLink, pool *sessionPool, stop <-chan struct{}, verbose bool) {
	rng := rand.New(rand.NewSource(int64(c.id)*104729 + 17))
	for {
		select {
		case <-w.dead:
		case <-stop:
			return
		}
		select {
		case <-stop:
			return
		default:
		}
		w.Link.Close()
		c.reconnects.Add(1)
		for attempt := 0; ; attempt++ {
			delay := time.Duration(200+rng.Intn(400))*time.Millisecond + time.Duration(attempt)*100*time.Millisecond
			if delay > 2*time.Second {
				delay = 2 * time.Second
			}
			select {
			case <-stop:
				return
			case <-time.After(delay):
			}
			link, _, err := pool.attach(c.doc, c.slot)
			if err != nil {
				if verbose && attempt%10 == 0 {
					log.Printf("client %d: reattach %q failed (attempt %d): %v", c.id, c.doc, attempt+1, err)
				}
				continue
			}
			w = watchLink(link)
			c.eng.Connect(w)
			break
		}
	}
}

// write runs the client's open-loop edit clock until ctx is done: every
// tick generates the next trace action against the live replica and
// broadcasts the resulting ops with a stamp embedded in each inserted
// atom. Ticks fire on the client's own schedule regardless of delivery
// progress; only the engine's bounded inbox can exert backpressure, at
// which point the generator degrades toward closed-loop instead of
// growing unbounded memory.
func (c *client) write(ctx context.Context, cfg *config, m *metrics) {
	interval := time.Duration(float64(time.Second) / cfg.rate)
	// Jittered start de-phases the fleet so ticks don't stampede.
	jitter := time.Duration(rand.New(rand.NewSource(int64(c.id))).Int63n(int64(interval)))
	select {
	case <-ctx.Done():
		return
	case <-time.After(jitter):
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		edit := c.stream.Next(c.replica.Len())
		var ops []treedoc.Op
		for i := 0; i < edit.Del; i++ {
			op, err := c.replica.DeleteAt(edit.Pos)
			if err != nil {
				break // a concurrent remote delete shrank the doc under us
			}
			ops = append(ops, op)
		}
		if len(edit.Ins) > 0 {
			atoms := make([]string, len(edit.Ins))
			stamp := m.stamp()
			for i, a := range edit.Ins {
				atoms[i] = strconv.FormatInt(stamp, 10) + "|" + a
			}
			pos := edit.Pos
			if l := c.replica.Len(); pos > l {
				pos = l
			}
			ins, err := c.replica.InsertRunAt(pos, atoms)
			if err == nil {
				ops = append(ops, ins...)
			}
		}
		if len(ops) == 0 {
			continue
		}
		if err := c.eng.Broadcast(ops...); err != nil {
			return // engine stopped
		}
		c.sent.Add(uint64(len(ops)))
		m.sends.Add(uint64(len(ops)))
	}
}
