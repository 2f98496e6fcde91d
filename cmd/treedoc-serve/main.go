// Treedoc-serve is the replication hub: a relay server that accepts framed
// TCP connections from Treedoc replicas and fans frames out within
// per-document relay groups. Clients attach to documents with the
// kindHello handshake (treedoc.DialDoc / treedoc.DialSession); a
// connection that sends an un-scoped data frame (an engine wired with
// treedoc.Dial) is logged and closed. The hub holds no document state;
// causal buffering at the edges orders, deduplicates and — via each
// engine's periodic anti-entropy exchange — repairs any frames a slow
// client's queue had to drop.
//
// With -log, the hub additionally runs one archivist per owned document:
// an in-process replica backed by a durable operation log under
// <log>/<doc>/ that absorbs everything relayed on that document, compacts
// it behind snapshots, and serves snapshot catch-up to late joiners — so
// a client that connects long after everyone else left still recovers its
// document, without any long-lived peer online.
//
// With -flatten-every, each archivist also acts as its document's flatten
// janitor: on that period it authors a flatten round for the coldest
// subtree (Engine.ProposeFlattenCold). The round's intent locks the region
// at every member, and the janitor flattens once every member has acked —
// an edit concurrent with the round is flattened with it. A round a member
// cannot ack before the deadline aborts harmlessly and is retried next
// period; an archivist that stops aborts the round it has pending.
//
// With -peers (and -self), N hub processes split the document space by
// consistent hashing: an attach for a document another process owns is
// answered with an epoch-stamped redirect, which DialDoc and Session
// clients follow transparently; a client that cannot reach the owner is
// served through hub-to-hub forwarding. Archivists run on the owner.
//
// Ring membership is live. A new hub joins a running ring with -join
// (naming any live member); the ring's epoch advances, every hub adopts
// the announced membership, and each document the change relocates is
// handed off online: attached clients — the old archivist among them —
// are re-pointed to the new owner via an epoch-stamped redirect, and the
// new owner's archivist catches up by digest like any late joiner. The
// old archivist keeps serving until the new one has acknowledged every
// operation it held, so no process restarts and no op is lost; one whose
// successor runs no archivist serves until exit. With -leave, SIGTERM
// hands every owned document off (Hub.Resign) and waits up to 30 s for
// the archivists' hand-overs before the process exits.
//
// Usage:
//
//	treedoc-serve -addr :9707 -queue 256 -v
//	treedoc-serve -addr :9707 -log /var/lib/treedoc -docs default,notes,wiki
//	treedoc-serve -addr :9707 -self hub1:9707 -peers hub1:9707,hub2:9707
//	treedoc-serve -addr :9708 -self hub3:9708 -join hub1:9707 -log /var/lib/treedoc -leave
//	treedoc-serve -addr :9707 -stats 127.0.0.1:9780   # hub counters at /debug/vars
//
// Wire a replica to it:
//
//	buf, _ := treedoc.NewTextBuffer(treedoc.WithSite(site))
//	eng, _ := treedoc.NewEngine(site, buf)
//	link, _ := treedoc.DialDoc("host:9707", "notes")
//	eng.Connect(link)
package main

import (
	"errors"
	"expvar"
	"flag"
	"hash/fnv"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/treedoc/treedoc"
	"github.com/treedoc/treedoc/internal/ident"
	"github.com/treedoc/treedoc/internal/transport"
	"github.com/treedoc/treedoc/internal/vclock"
)

// archivist is one document's durable replica and (optionally) flatten
// janitor.
type archivist struct {
	doc  string
	site treedoc.SiteID
	buf  *treedoc.TextBuffer
	eng  *treedoc.Engine
	stop chan struct{} // closed as the archivist stops: ends the janitor and the hand-over wait
	// epoch is the highest ring epoch this archivist was (re)acquired at
	// (guarded by archivists.mu): a release at an older epoch is stale, and
	// a re-acquisition cancels a hand-over in progress.
	epoch uint64
}

// handOverPoll is how often a released archivist checks whether its
// successor has acknowledged everything it held.
const handOverPoll = 100 * time.Millisecond

// archConfig is the shared archivist configuration.
type archConfig struct {
	hubAddr       string
	logDir        string
	self          string
	compactEvery  int
	snapThreshold int
	flattenEvery  time.Duration
	flattenCold   int
	verbose       bool
}

// archivists manages the per-document archivist lifecycle: static startup
// for owned -docs, and dynamic start/stop as the ring hands documents to
// and from this hub (the Hub's ownership callback).
type archivists struct {
	// ready is closed once cfg and hub are populated: the ownership
	// callback can fire from hub goroutines as soon as the listener
	// accepts (a peer's ring announce during a rolling restart), so it
	// must wait out main's setup window instead of racing it.
	ready chan struct{}
	cfg   archConfig

	mu  sync.Mutex
	hub *treedoc.Hub
	m   map[string]*archivist
}

// ownership is the Hub callback: an acquired document gets a local
// archivist, which catches up by digest; a released one begins its
// archivist's hand-over.
func (am *archivists) ownership(doc string, epoch uint64, acquired bool) {
	<-am.ready
	if am.cfg.logDir == "" {
		return
	}
	if acquired {
		log.Printf("treedoc-serve: acquired doc %q at ring epoch %d", doc, epoch)
		am.ensure(doc, epoch)
		return
	}
	log.Printf("treedoc-serve: released doc %q at ring epoch %d", doc, epoch)
	am.release(doc, epoch)
}

// ensure starts doc's archivist if none runs, raising its acquisition
// epoch either way.
func (am *archivists) ensure(doc string, epoch uint64) {
	am.mu.Lock()
	defer am.mu.Unlock()
	if a := am.m[doc]; a != nil {
		if epoch > a.epoch {
			a.epoch = epoch
		}
		return
	}
	site := archiveSite(am.cfg.self, doc)
	buf, err := treedoc.NewTextBuffer(treedoc.WithSite(site))
	if err != nil {
		log.Printf("treedoc-serve: archivist for %q: %v", doc, err)
		return
	}
	eng, err := treedoc.NewEngine(site, buf,
		treedoc.WithLogDir(filepath.Join(am.cfg.logDir, doc)),
		treedoc.WithCompactEvery(am.cfg.compactEvery),
		treedoc.WithSnapshotThreshold(am.cfg.snapThreshold),
		treedoc.WithSyncInterval(500*time.Millisecond))
	if err != nil {
		log.Printf("treedoc-serve: archivist for %q: %v", doc, err)
		return
	}
	// The loopback attach is the one transient failure point (the hub may
	// be saturated mid-handoff); retry briefly rather than leaving an
	// owned document silently without durability.
	var link treedoc.Link
	for attempt := 0; ; attempt++ {
		link, err = treedoc.DialDoc(am.cfg.hubAddr, doc)
		if err == nil {
			break
		}
		if attempt >= 2 {
			eng.Stop()
			log.Printf("treedoc-serve: archivist for %q attach failed after %d attempts: %v (document is NOT archived here)",
				doc, attempt+1, err)
			return
		}
		log.Printf("treedoc-serve: archivist for %q attach: %v (retrying)", doc, err)
		time.Sleep(time.Second)
	}
	eng.Connect(link)
	a := &archivist{doc: doc, site: site, buf: buf, eng: eng, stop: make(chan struct{}), epoch: epoch}
	am.m[doc] = a
	log.Printf("treedoc-serve: archivist s%d for doc %q persisting to %s (%d runes restored)",
		site, doc, filepath.Join(am.cfg.logDir, doc), buf.Len())
	if am.cfg.flattenEvery > 0 {
		go janitor(a, am.cfg.flattenEvery, am.cfg.flattenCold, am.cfg.verbose)
	}
}

// release begins handing doc's archivist over to the document's new
// owner. Its link was re-pointed with the clients, so it answers the
// successor archivist's digests like any member; it keeps serving until
// that successor's acknowledged clock dominates the clock it holds now,
// and only then stops (handOver). The durable log directory stays on
// disk: if the document ever comes back, an archivist resumes from it.
func (am *archivists) release(doc string, epoch uint64) {
	am.mu.Lock()
	a := am.m[doc]
	am.mu.Unlock()
	if a != nil {
		go am.handOver(a, epoch, a.eng.Clock())
	}
}

// handOver waits until the successor archivist — its site derived from the
// current owner's address, so a ring that moved on is followed — has
// acknowledged held, then stops a. Ownership coming back cancels the wait:
// an acquisition at a newer epoch than the release's (which also makes a
// late release of an older epoch stale), or a ring that names this hub
// again. A successor that runs no archivist never acknowledges: a then
// serves until the process exits.
func (am *archivists) handOver(a *archivist, epoch uint64, held vclock.VC) {
	tick := time.NewTicker(handOverPoll)
	defer tick.Stop()
	for {
		select {
		case <-a.stop:
			return
		case <-tick.C:
		}
		am.mu.Lock()
		reacquired := a.epoch > epoch
		am.mu.Unlock()
		owner, owned := am.hub.DocOwner(a.doc)
		if reacquired || owned {
			log.Printf("treedoc-serve: hand-over of doc %q (release at epoch %d) cancelled: owned here again", a.doc, epoch)
			return
		}
		if a.eng.Acked(archiveSite(owner, a.doc)).Dominates(held) {
			am.stop(a, "handed over to "+owner)
			return
		}
	}
}

// stop stops an archivist that is still in the set; whoever removes it
// stops it, so racing callers stop it once.
func (am *archivists) stop(a *archivist, why string) {
	am.mu.Lock()
	mine := am.m[a.doc] == a
	if mine {
		delete(am.m, a.doc)
	}
	am.mu.Unlock()
	if !mine {
		return
	}
	close(a.stop)
	a.eng.Stop()
	st := a.eng.Stats()
	log.Printf("treedoc-serve: archivist for %q stopped, %s (%d ops applied, %d snapshots served)",
		a.doc, why, st.Applied, st.SnapshotsSent)
	if err := a.eng.Err(); err != nil {
		log.Printf("treedoc-serve: archivist for %q error: %v", a.doc, err)
	}
}

// awaitHandOvers waits until every archivist has stopped, at most timeout,
// and reports how many still run.
func (am *archivists) awaitHandOvers(timeout time.Duration) int {
	deadline := time.Now().Add(timeout)
	for {
		n := len(am.all())
		if n == 0 || time.Now().After(deadline) {
			return n
		}
		time.Sleep(handOverPoll)
	}
}

// all snapshots the current archivist set.
func (am *archivists) all() []*archivist {
	am.mu.Lock()
	defer am.mu.Unlock()
	out := make([]*archivist, 0, len(am.m))
	for _, a := range am.m {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].doc < out[j].doc })
	return out
}

// archiveSite derives the site id of the archivist the hub advertised as
// self runs for doc: two hubs that archive one document across a handoff
// never stamp under one site id, and a predecessor finds its successor's
// acknowledgements under the site derived from the new owner's address.
func archiveSite(self, doc string) treedoc.SiteID {
	h := fnv.New64a()
	h.Write([]byte(self))
	h.Write([]byte{0})
	h.Write([]byte(doc))
	// High site ids keep archivists far away from interactively assigned
	// editor sites; 2^24 derived slots make a collision between the
	// handful of hubs archiving one document negligible.
	return treedoc.SiteID(uint64(ident.MaxSiteID) - h.Sum64()%(1<<24))
}

func main() {
	addr := flag.String("addr", ":9707", "listen address")
	queue := flag.Int("queue", 256, "per-client outbound queue depth")
	verbose := flag.Bool("v", false, "log client connects, disconnects, slow-client drops and handoffs")
	docs := flag.String("docs", "default", "comma-separated documents to archive (with -log); clients may attach to any document regardless")
	self := flag.String("self", "", "this hub's advertised address in the shard ring (required with -peers or -join)")
	peers := flag.String("peers", "", "comma-separated advertised addresses of every hub in the shard ring, including this one (empty disables sharding)")
	join := flag.String("join", "", "advertised address of any live ring member: fetch its ring, add this hub at the next epoch, and announce (live reshard; requires -self)")
	leave := flag.Bool("leave", false, "on SIGTERM, hand every owned document off to the surviving ring (Hub.Resign) and wait up to 30s for the archivists' hand-overs before exiting")
	logDir := flag.String("log", "", "archivist log directory; each document persists under <log>/<doc>/ (empty disables archivists)")
	compactEvery := flag.Int("compact", 16384, "archivist: retained ops before snapshot+truncate")
	snapThreshold := flag.Int("snap-threshold", 8192, "archivist: digest gap that triggers snapshot catch-up")
	flattenEvery := flag.Duration("flatten-every", 0, "archivist: period between cold-subtree flatten proposals per document (0 disables; requires -log)")
	flattenCold := flag.Int("flatten-cold", 2, "archivist: revisions a subtree must be quiet before it is proposed")
	statsAddr := flag.String("stats", "", "HTTP listen address for the expvar stats endpoint (/debug/vars serves hub counters as JSON; empty disables)")
	flag.Parse()

	if *flattenEvery > 0 && *logDir == "" {
		log.Fatal("treedoc-serve: -flatten-every requires -log (the archivist authors the rounds)")
	}
	if *peers != "" && *self == "" {
		log.Fatal("treedoc-serve: -peers requires -self (this hub's advertised address)")
	}
	if *join != "" && *self == "" {
		log.Fatal("treedoc-serve: -join requires -self (this hub's advertised address)")
	}
	if *join != "" && *peers != "" {
		log.Fatal("treedoc-serve: -join and -peers are mutually exclusive (join fetches the ring)")
	}

	docList := splitList(*docs)
	for _, d := range docList {
		if err := transport.ValidateDocID(d); err != nil {
			log.Fatal(err)
		}
	}

	am := &archivists{ready: make(chan struct{}), m: make(map[string]*archivist)}
	opts := []transport.HubOption{
		transport.WithHubQueueDepth(*queue),
		transport.WithHubOwnership(am.ownership),
	}
	if *verbose {
		opts = append(opts, transport.WithHubLogger(log.Printf))
	}
	if *peers != "" {
		opts = append(opts, transport.WithHubShards(*self, splitList(*peers)))
	} else if *self != "" {
		opts = append(opts, transport.WithHubSelf(*self))
	}

	hub, err := transport.ListenHub(*addr, opts...)
	if err != nil {
		log.Fatal(err)
	}
	am.hub = hub
	am.cfg = archConfig{
		hubAddr:       hub.Addr().String(),
		logDir:        *logDir,
		self:          *self,
		compactEvery:  *compactEvery,
		snapThreshold: *snapThreshold,
		flattenEvery:  *flattenEvery,
		flattenCold:   *flattenCold,
		verbose:       *verbose,
	}
	if am.cfg.self == "" {
		am.cfg.self = am.cfg.hubAddr
	}
	close(am.ready)

	// Stats endpoint: the stdlib expvar handler over a dedicated listener
	// (never the relay port), publishing Hub.Stats under "treedoc.hub".
	// GET /debug/vars returns one JSON object; see docs/OPERATIONS.md for
	// reading the counters.
	if *statsAddr != "" {
		expvar.Publish("treedoc.hub", expvar.Func(func() any { return hub.Stats() }))
		// One EngineStats per live archivist document: the digest
		// suppression and replay counters live on the engine, not the hub.
		expvar.Publish("treedoc.engines", expvar.Func(func() any {
			am.mu.Lock()
			defer am.mu.Unlock()
			out := make(map[string]treedoc.EngineStats, len(am.m))
			for doc, a := range am.m {
				out[doc] = a.eng.Stats()
			}
			return out
		}))
		sln, err := net.Listen("tcp", *statsAddr)
		if err != nil {
			log.Fatalf("treedoc-serve: stats listener: %v", err)
		}
		log.Printf("stats endpoint on http://%s/debug/vars", sln.Addr())
		go func() {
			mux := http.NewServeMux()
			mux.Handle("/debug/vars", expvar.Handler())
			srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
			if err := srv.Serve(sln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("treedoc-serve: stats server: %v", err)
			}
		}()
	}

	// Joining a live ring: Hub.Join fetches the current membership from the
	// named member and installs it with this hub added at the next epoch;
	// every member adopts the announce and hands off the documents the
	// change relocates.
	if *join != "" {
		if err := hub.Join(*join, 5*time.Second); err != nil {
			log.Fatalf("treedoc-serve: %v", err)
		}
		log.Printf("treedoc-serve: joined ring at epoch %d via %s", hub.RingEpoch(), *join)
	}

	if epoch := hub.RingEpoch(); epoch > 0 {
		log.Printf("treedoc-serve: relaying on %s as shard %s (ring epoch %d)", hub.Addr(), *self, epoch)
	} else {
		log.Printf("treedoc-serve: relaying on %s", hub.Addr())
	}

	// Static archivists for the configured documents this hub owns; the
	// ownership callback grows and shrinks the set as the ring changes.
	if *logDir != "" {
		for _, doc := range docList {
			if owner, owned := hub.DocOwner(doc); !owned {
				log.Printf("treedoc-serve: doc %q owned by %s, skipping local archivist", doc, owner)
				continue
			}
			am.ensure(doc, hub.RingEpoch())
		}
		if *flattenEvery > 0 {
			log.Printf("treedoc-serve: flatten janitors proposing every %v", *flattenEvery)
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig

	if *leave && hub.RingEpoch() > 0 {
		log.Printf("treedoc-serve: leaving the ring: handing off %d archived documents", len(am.all()))
		if err := hub.Resign(); err != nil {
			log.Printf("treedoc-serve: resign: %v (surviving hubs heal via anti-entropy)", err)
		} else if n := am.awaitHandOvers(30 * time.Second); n > 0 {
			log.Printf("treedoc-serve: %d archivists not acknowledged by a successor after 30s; stopping them anyway", n)
		}
	}

	hs := hub.Stats()
	log.Printf("treedoc-serve: shutting down (%d frames relayed, %d dropped, %d unrouted, %d forwarded, %d handoffs out, %d in)",
		hs.Relays, hs.Drops, hs.Unrouted, hs.Forwards, hs.HandoffsOut, hs.HandoffsIn)
	stats := hs.PerDoc
	docsSeen := make([]string, 0, len(stats))
	for doc := range stats {
		docsSeen = append(docsSeen, doc)
	}
	sort.Strings(docsSeen)
	for _, doc := range docsSeen {
		st := stats[doc]
		log.Printf("treedoc-serve: doc %q: %d clients, %d relayed, %d dropped", doc, st.Clients, st.Relays, st.Drops)
	}
	for _, a := range am.all() {
		am.stop(a, "shutting down")
	}
	if err := hub.Close(); err != nil {
		log.Fatal(err)
	}
}

// janitor periodically proposes flattening the coldest subtree of one
// archivist's document, until the archivist is released.
func janitor(a *archivist, every time.Duration, cold int, verbose bool) {
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		select {
		case <-a.stop:
			return
		case <-ticker.C:
		}
		a.buf.EndRevision()
		ok, err := a.eng.ProposeFlattenCold(cold)
		if err != nil {
			if !errors.Is(err, transport.ErrStopped) {
				log.Printf("treedoc-serve: doc %q flatten proposal: %v", a.doc, err)
			}
			return
		}
		if ok && verbose {
			log.Printf("treedoc-serve: doc %q proposed a cold flatten round (%d flattened, %d aborted or refused so far)",
				a.doc, a.eng.Stats().FlattensCommitted, a.eng.Stats().FlattensAborted)
		}
	}
}

// splitList splits a comma-separated flag, trimming blanks.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
