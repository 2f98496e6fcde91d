package treedoc

import (
	"fmt"
	"io"
	"time"

	"github.com/treedoc/treedoc/internal/simnet"
	"github.com/treedoc/treedoc/internal/transport"
)

// ClusterOption configures a simulated replica group.
type ClusterOption func(*clusterConfig) error

type clusterConfig struct {
	net  simnet.Config
	mode Mode
}

// WithLatency bounds the simulated network's uniform random message delay
// in virtual milliseconds (default 5..50).
func WithLatency(min, max int64) ClusterOption {
	return func(c *clusterConfig) error {
		if min < 0 || max < min {
			return fmt.Errorf("treedoc: invalid latency bounds [%d,%d]", min, max)
		}
		c.net.MinLatency, c.net.MaxLatency = min, max
		return nil
	}
}

// WithSeed fixes the network randomness for reproducible runs.
func WithSeed(seed int64) ClusterOption {
	return func(c *clusterConfig) error {
		c.net.Seed = seed
		return nil
	}
}

// WithLoss makes the simulated network drop each live operation frame with
// the given probability (0..1). Lost operations are recovered by
// anti-entropy: the engines' own keepalive digests as virtual time passes,
// or Replica.SyncWith on demand. Digests, their answers and flatten acks
// model a reliable channel and are never dropped.
func WithLoss(p float64) ClusterOption {
	return func(c *clusterConfig) error {
		if p < 0 || p > 1 {
			return fmt.Errorf("treedoc: loss probability %v out of [0,1]", p)
		}
		c.net.Loss = p
		return nil
	}
}

// WithClusterMode sets every replica's disambiguator scheme.
func WithClusterMode(m Mode) ClusterOption {
	return func(c *clusterConfig) error {
		switch m {
		case SDIS, UDIS:
			c.mode = m
			return nil
		default:
			return fmt.Errorf("treedoc: invalid mode %v", m)
		}
	}
}

// Cluster is a simulated cooperative-editing group: n replicas, each a Doc
// wrapped by the same replication Engine that runs in production, wired in
// a full mesh over a deterministic discrete-event network. Nothing here
// implements a protocol: causal delivery, anti-entropy and the flatten
// round are the engine's, and the frames on the simulated wire are
// the ones it encodes for TCP. The cluster only drives — it steps each
// engine when a frame reaches it or a sync tick is due on the virtual
// clock, and moves what the engine sends through the network's event heap
// — so a seed fixes the whole schedule, faults included. It is the
// environment the paper targets — peers editing optimistically and
// synchronising in the background — packaged for tests, benchmarks and
// examples.
type Cluster struct {
	net      *simnet.Network
	mode     Mode
	replicas []*Replica // replicas[i] is site i+1
	// tick is the engines' sync interval in virtual milliseconds — the
	// network's maximum latency, so "older than a tick" means "no longer in
	// flight", which is what the engine's settle horizon (its delivered
	// clock two ticks back) assumes — and nextTick the next one's instant.
	tick, nextTick int64
	// work counts the frames sent that were not digests, and idledAt is its
	// value when Run last let the clock idle: see Run.
	work, idledAt int
	// sent, when set, observes every frame an engine hands the network.
	sent func(at int64, from, to SiteID, frame []byte)
}

// NewCluster creates a group with site identifiers 1..sites.
func NewCluster(sites int, opts ...ClusterOption) (*Cluster, error) {
	cfg := clusterConfig{mode: SDIS}
	for _, o := range opts {
		if err := o(&cfg); err != nil {
			return nil, err
		}
	}
	if sites < 1 {
		return nil, fmt.Errorf("treedoc: new cluster: need at least one site")
	}
	c := &Cluster{net: simnet.New(cfg.net), mode: cfg.mode, tick: cfg.net.MaxLatency, idledAt: -1}
	if c.tick == 0 {
		c.tick = 50 // simnet's default latency bound
	}
	c.nextTick = c.tick
	c.replicas = make([]*Replica, sites)
	for i := range c.replicas {
		r, err := c.newReplica(SiteID(i + 1))
		if err != nil {
			return nil, fmt.Errorf("treedoc: new cluster: %w", err)
		}
		c.replicas[i] = r
	}
	return c, nil
}

// newReplica builds site's document and stepped engine and links the
// engine to every other site. Links are addressed by site id, so a replica
// rebuilt over the same log directory (opts) takes over its predecessor's
// place in the mesh.
func (c *Cluster) newReplica(site SiteID, opts ...EngineOption) (*Replica, error) {
	doc, err := New(WithSite(site), WithMode(c.mode))
	if err != nil {
		return nil, err
	}
	tick := time.Duration(c.tick) * time.Millisecond
	opts = append([]EngineOption{WithSyncInterval(tick), WithFlattenTimeout(10 * tick)}, opts...)
	now := func() time.Time { return time.UnixMilli(c.net.Now()) }
	step, err := transport.NewStepper(site, doc, now, opts...)
	if err != nil {
		return nil, err
	}
	r := &Replica{c: c, site: site, doc: doc, step: step, eng: step.Engine(), from: make(map[SiteID]func([]byte))}
	for peer := SiteID(1); int(peer) <= len(c.replicas); peer++ {
		if peer != site {
			r.from[peer] = step.Connect(simLink{c, site, peer})
		}
	}
	return r, nil
}

// simLink is one direction of a mesh edge, as the sending engine sees it:
// Send puts the encoded frame on the simulated network. It routes replays
// because it is point to point, which also keeps digest answers apart
// from live operation frames on the wire (see simFrame).
type simLink struct {
	c        *Cluster
	from, to SiteID
}

func (l simLink) Send(frame []byte) error {
	if l.c.sent != nil {
		l.c.sent(l.c.net.Now(), l.from, l.to, frame)
	}
	if !transport.IsRecurring(frame) {
		l.c.work++
	}
	l.c.net.Send(l.from, l.to, simFrame(frame))
	return nil
}
func (simLink) Recv() ([]byte, error) { return nil, io.EOF }
func (simLink) Close() error          { return nil }
func (simLink) RoutesReplay() bool    { return true }

// simFrame is a frame in flight. Only live operation gossip — a flatten
// round's intent and decision included — may be lost; digests, their
// (replay-wrapped) answers and flatten acks are the reliable channel.
type simFrame []byte

func (f simFrame) Lossy() bool { return transport.IsLiveOps(f) }

// Replica is one member of a Cluster. Local edits broadcast automatically;
// delivery happens as the cluster Runs.
type Replica struct {
	c    *Cluster
	site SiteID
	doc  *Doc
	step *transport.Stepper
	eng  *Engine
	// from holds, per peer site, the engine's entry point for frames
	// arriving from it.
	from map[SiteID]func(frame []byte)
}

// Replica returns the replica with the given site id (1-based).
func (c *Cluster) Replica(site SiteID) (*Replica, error) {
	if site < 1 || int(site) > len(c.replicas) {
		return nil, fmt.Errorf("treedoc: no replica with site %d", site)
	}
	return c.replicas[site-1], nil
}

// Sites returns the member site ids.
func (c *Cluster) Sites() []SiteID {
	sites := make([]SiteID, len(c.replicas))
	for i := range sites {
		sites[i] = SiteID(i + 1)
	}
	return sites
}

// InsertAt edits locally and broadcasts. Like every local edit it fails
// with an error wrapping ErrRegionLocked while a flatten round has the
// region frozen.
func (r *Replica) InsertAt(i int, atom string) error {
	op, err := r.doc.InsertAt(i, atom)
	if err != nil {
		return err
	}
	return r.broadcast(op)
}

// broadcast hands locally generated operations to the replica's engine.
func (r *Replica) broadcast(ops ...Op) error {
	if err := r.eng.Broadcast(ops...); err != nil {
		return fmt.Errorf("treedoc: site %d: %w", r.site, err)
	}
	return nil
}

// Append inserts at the end of the document.
func (r *Replica) Append(atom string) error { return r.InsertAt(r.doc.Len(), atom) }

// InsertRunAt inserts a consecutive run locally and broadcasts.
func (r *Replica) InsertRunAt(i int, atoms []string) error {
	ops, err := r.doc.InsertRunAt(i, atoms)
	if err != nil {
		return err
	}
	return r.broadcast(ops...)
}

// DeleteAt edits locally and broadcasts.
func (r *Replica) DeleteAt(i int) error {
	op, err := r.doc.DeleteAt(i)
	if err != nil {
		return err
	}
	return r.broadcast(op)
}

// Len returns the replica's current document length.
func (r *Replica) Len() int { return r.doc.Len() }

// Content returns the replica's current document.
func (r *Replica) Content() []string { return r.doc.Content() }

// ContentString joins the document with newlines.
func (r *Replica) ContentString() string { return r.doc.ContentString() }

// Stats measures the replica's overheads.
func (r *Replica) Stats() Stats { return r.doc.Stats() }

// EndRevision advances the replica's revision clock (used by the cold-
// subtree heuristics).
func (r *Replica) EndRevision() { r.doc.EndRevision() }

// ProposeFlatten starts a flatten round to compact the whole document, with
// this replica as author. Concurrent edits are flattened with it; the round
// aborts harmlessly if a member cannot ack before the deadline.
func (r *Replica) ProposeFlatten() { _ = r.eng.ProposeFlatten() }

// ProposeFlattenCold proposes compacting the largest subtree quiet for the
// given number of revisions. It reports whether a candidate existed.
func (r *Replica) ProposeFlattenCold(revisions int) bool {
	ok, _ := r.eng.ProposeFlattenCold(revisions)
	return ok
}

// FlattensApplied counts the flattens applied at this replica.
func (r *Replica) FlattensApplied() int { return int(r.eng.FlattensApplied()) }

// SyncWith starts one anti-entropy exchange with a peer: this replica
// sends its vector-clock digest and the peer retransmits the operations
// the digest does not cover (including third-party operations it relayed)
// — except those it delivered within its last two ticks, which it
// presumes still in flight. The engines also do this on their own as
// virtual time passes; redundant syncs are cheap no-ops.
func (r *Replica) SyncWith(peer SiteID) {
	if peer == r.site || peer < 1 || int(peer) > len(r.c.replicas) {
		return
	}
	if f, err := transport.EncodeSyncReq(r.site, r.eng.Clock()); err == nil {
		_ = simLink{r.c, r.site, peer}.Send(f)
	}
}

// Run delivers network messages until quiescence (maxSteps 0) or until
// maxSteps messages have been delivered; it returns the number delivered.
// An engine never falls silent — its keepalive digest recurs forever, and
// so do its acks of a pending flatten intent — so quiescence is: nothing
// in flight, and nothing but those sent since the virtual clock last
// idled. Whenever the network drains with other frames sent since, the
// clock idles two sync ticks forward: the engines' timers (keepalives,
// flatten deadlines) get their turn, and what was sent last is no longer
// presumed in flight when the next digest asks for it. A round still
// waiting on a member then stays open; idle past its deadline to see it
// abort.
func (c *Cluster) Run(maxSteps int) int {
	steps := 0
	for maxSteps == 0 || steps < maxSteps {
		if c.deliverNext() {
			steps++
			continue
		}
		if c.idledAt == c.work {
			break
		}
		c.idledAt = c.work
		c.syncTick()
		c.syncTick()
	}
	return steps
}

// deliverNext hands the earliest in-flight frame to its destination
// engine, after running every sync tick that falls due before it arrives
// (a tick may itself send a frame that arrives earlier still). It reports
// false when nothing is in flight.
func (c *Cluster) deliverNext() bool {
	for {
		at, ok := c.net.NextAt()
		if !ok {
			return false
		}
		if c.nextTick > at {
			break
		}
		c.syncTick()
	}
	env, _ := c.net.DeliverNext()
	c.replicas[env.To-1].from[env.From](env.Payload.(simFrame))
	return true
}

// syncTick advances the virtual clock to the next tick instant and runs
// every engine's sync-interval duties there, in site order.
func (c *Cluster) syncTick() {
	c.net.AdvanceTo(c.nextTick)
	c.nextTick += c.tick
	for _, r := range c.replicas {
		r.step.Tick()
	}
}

// Converged reports whether all replicas hold identical content.
func (c *Cluster) Converged() bool {
	want := c.replicas[0].doc.ContentString()
	for _, r := range c.replicas[1:] {
		if r.doc.ContentString() != want {
			return false
		}
	}
	return true
}

// Partition severs the network between two sites (messages are held and
// delivered after healing, modelling disconnected operation).
func (c *Cluster) Partition(a, b SiteID) error { return c.net.Partition(a, b) }

// HealAll removes all partitions.
func (c *Cluster) HealAll() { c.net.HealAll() }

// Now returns the simulated clock in virtual milliseconds.
func (c *Cluster) Now() int64 { return c.net.Now() }

// Check verifies every replica's structural invariants and that no engine
// has latched an apply error.
func (c *Cluster) Check() error {
	for _, r := range c.replicas {
		if err := r.doc.Check(); err != nil {
			return fmt.Errorf("site %d: %w", r.site, err)
		}
		if err := r.eng.Err(); err != nil {
			return fmt.Errorf("site %d: %w", r.site, err)
		}
	}
	return nil
}
