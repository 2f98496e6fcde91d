package serve

import (
	"cmp"
	"errors"
	"hash/fnv"
	"log"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"github.com/treedoc/treedoc"
	"github.com/treedoc/treedoc/internal/ident"
	"github.com/treedoc/treedoc/internal/transport"
	"github.com/treedoc/treedoc/internal/vclock"
)

// Archivist is one document's durable replica and (optionally) flatten
// janitor.
type Archivist struct {
	Doc  string
	Site treedoc.SiteID
	Buf  *treedoc.TextBuffer
	Eng  *treedoc.Engine
	done chan struct{} // closed as the archivist stops: ends the janitor and the hand-over wait
	// epoch is the highest ring epoch this archivist was (re)acquired at
	// (guarded by Archive.mu): a release at an older epoch is stale, and a
	// re-acquisition cancels a hand-over in progress.
	epoch uint64
	// held and acked record the hand-over that stopped the archivist: the
	// clock it held at release and the successor's acknowledgement that
	// covered it. Both are written before done is closed.
	held, acked vclock.VC
}

// Done is closed once the archivist has stopped.
func (a *Archivist) Done() <-chan struct{} { return a.done }

// HandOver returns the clock the archivist held when its document was
// released and the successor's acknowledgement that let it stop; both are
// nil unless it stopped by a hand-over. Read it once Done is closed.
func (a *Archivist) HandOver() (held, acked vclock.VC) { return a.held, a.acked }

// handOverPoll is how often a released archivist checks whether its
// successor has acknowledged everything it held.
const handOverPoll = 100 * time.Millisecond

// Archive is one hub process's set of archivists: Acquire starts those of
// the documents the hub owns at start, and the hub's ownership callback
// (Ownership) grows and shrinks the set as the ring hands documents to and
// from this hub — a released archivist stopping only once its successor
// has acknowledged every operation it held (handOver).
type Archive struct {
	cfg  Config // LogDir, and the janitors' FlattenEvery, FlattenCold and Verbose
	opts []treedoc.EngineOption
	// ready is closed by Bind once hub and self are set: the ownership
	// callback can fire from hub goroutines as soon as the listener
	// accepts (a peer's ring announce during a rolling restart), so it
	// must wait out the setup window instead of racing it.
	ready chan struct{}
	hub   *transport.Hub
	self  string

	mu sync.Mutex
	m  map[string]*Archivist
}

// NewArchive returns an archive persisting each document under
// cfg.LogDir/<doc>. Every archivist's engine takes a 500 ms sync interval,
// then opts. With cfg.FlattenEvery set each archivist also runs a flatten
// janitor.
func NewArchive(cfg Config, opts ...treedoc.EngineOption) *Archive {
	return &Archive{cfg: cfg, ready: make(chan struct{}), m: make(map[string]*Archivist),
		opts: append([]treedoc.EngineOption{treedoc.WithSyncInterval(500 * time.Millisecond)}, opts...)}
}

// Bind completes the archive with the hub whose ownership callback it is
// and the address the hub advertises as self ("": its listen address).
func (am *Archive) Bind(hub *transport.Hub, self string) {
	am.hub, am.self = hub, cmp.Or(self, hub.Addr().String())
	close(am.ready)
}

// Ownership is the Hub callback: an acquired document gets a local
// archivist, which catches up by digest; a released one begins its
// archivist's hand-over.
func (am *Archive) Ownership(doc string, epoch uint64, acquired bool) {
	<-am.ready
	if acquired {
		log.Printf("treedoc-serve: acquired doc %q at ring epoch %d", doc, epoch)
		am.Acquire(doc, epoch)
		return
	}
	log.Printf("treedoc-serve: released doc %q at ring epoch %d", doc, epoch)
	am.release(doc, epoch)
}

// Acquire starts doc's archivist if none runs, raising its acquisition
// epoch either way, and returns it (nil if it could not start).
func (am *Archive) Acquire(doc string, epoch uint64) *Archivist {
	am.mu.Lock()
	defer am.mu.Unlock()
	if a := am.m[doc]; a != nil {
		a.epoch = max(a.epoch, epoch)
		return a
	}
	site := archiveSite(am.self, doc)
	buf, err := treedoc.NewTextBuffer(treedoc.WithSite(site))
	if err != nil {
		log.Printf("treedoc-serve: archivist for %q: %v", doc, err)
		return nil
	}
	eng, err := treedoc.NewEngine(site, buf, append([]treedoc.EngineOption{
		treedoc.WithLogDir(filepath.Join(am.cfg.LogDir, doc))}, am.opts...)...)
	if err != nil {
		log.Printf("treedoc-serve: archivist for %q: %v", doc, err)
		return nil
	}
	// The loopback attach is the one transient failure point (the hub may
	// be saturated mid-handoff); retry briefly rather than leaving an
	// owned document silently without durability.
	link, err := treedoc.DialDoc(am.hub.Addr().String(), doc)
	for attempt := 1; err != nil && attempt < 3; attempt++ {
		log.Printf("treedoc-serve: archivist for %q attach: %v (retrying)", doc, err)
		time.Sleep(time.Second)
		link, err = treedoc.DialDoc(am.hub.Addr().String(), doc)
	}
	if err != nil {
		eng.Stop()
		log.Printf("treedoc-serve: archivist for %q attach failed after 3 attempts: %v (document is NOT archived here)", doc, err)
		return nil
	}
	eng.Connect(link)
	a := &Archivist{Doc: doc, Site: site, Buf: buf, Eng: eng, done: make(chan struct{}), epoch: epoch}
	am.m[doc] = a
	log.Printf("treedoc-serve: archivist s%d for doc %q persisting to %s (%d runes restored)",
		site, doc, filepath.Join(am.cfg.LogDir, doc), buf.Len())
	if am.cfg.FlattenEvery > 0 {
		go am.janitor(a)
	}
	return a
}

// release begins handing doc's archivist over to the document's new
// owner. Its link was re-pointed with the clients, so it answers the
// successor archivist's digests like any member; it keeps serving until
// that successor's acknowledged clock dominates the clock it holds now,
// and only then stops (handOver). The durable log directory stays on
// disk: if the document ever comes back, an archivist resumes from it.
func (am *Archive) release(doc string, epoch uint64) {
	if a := am.Get(doc); a != nil {
		go am.handOver(a, epoch, a.Eng.Clock())
	}
}

// handOver waits until the successor archivist — its site derived from the
// current owner's address, so a ring that moved on is followed — has
// acknowledged held, then stops a. Ownership coming back cancels the wait:
// an acquisition at a newer epoch than the release's (which also makes a
// late release of an older epoch stale), or a ring that names this hub
// again. A successor that runs no archivist never acknowledges: a then
// serves until the process exits.
func (am *Archive) handOver(a *Archivist, epoch uint64, held vclock.VC) {
	tick := time.NewTicker(handOverPoll)
	defer tick.Stop()
	for {
		select {
		case <-a.done:
			return
		case <-tick.C:
		}
		am.mu.Lock()
		reacquired := a.epoch > epoch
		am.mu.Unlock()
		owner, owned := am.hub.DocOwner(a.Doc)
		if reacquired || owned {
			log.Printf("treedoc-serve: hand-over of doc %q (release at epoch %d) cancelled: owned here again", a.Doc, epoch)
			return
		}
		if acked := a.Eng.Acked(archiveSite(owner, a.Doc)); acked.Dominates(held) {
			am.stop(a, "handed over to "+owner, held, acked)
			return
		}
	}
}

// stop stops an archivist that is still in the set; whoever removes it
// stops it, so racing callers stop it once. held and acked are the
// hand-over that stopped it, if one did.
func (am *Archive) stop(a *Archivist, why string, held, acked vclock.VC) {
	am.mu.Lock()
	mine := am.m[a.Doc] == a
	if mine {
		delete(am.m, a.Doc)
	}
	am.mu.Unlock()
	if !mine {
		return
	}
	a.held, a.acked = held, acked
	close(a.done)
	a.Eng.Stop()
	st := a.Eng.Stats()
	log.Printf("treedoc-serve: archivist for %q stopped, %s (%d ops applied, %d snapshots served)",
		a.Doc, why, st.Applied, st.SnapshotsSent)
	if err := a.Eng.Err(); err != nil {
		log.Printf("treedoc-serve: archivist for %q error: %v", a.Doc, err)
	}
}

// StopAll stops every archivist, logging why.
func (am *Archive) StopAll(why string) {
	for _, a := range am.all() {
		am.stop(a, why, nil, nil)
	}
}

// Get returns doc's running archivist, or nil.
func (am *Archive) Get(doc string) *Archivist {
	am.mu.Lock()
	defer am.mu.Unlock()
	return am.m[doc]
}

// all snapshots the current archivist set.
func (am *Archive) all() []*Archivist {
	am.mu.Lock()
	defer am.mu.Unlock()
	out := make([]*Archivist, 0, len(am.m))
	for _, a := range am.m {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Doc < out[j].Doc })
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

// janitor is one archivist's flatten janitor: every FlattenEvery it
// authors a flatten round for the coldest subtree of its document
// (Engine.ProposeFlattenCold). The round's intent locks the region at
// every member, and the janitor flattens once every member has acked — an
// edit concurrent with the round is flattened with it. A round a member
// cannot ack before the deadline aborts harmlessly and is retried next
// period; an archivist that stops aborts the round it has pending.
func (am *Archive) janitor(a *Archivist) {
	ticker := time.NewTicker(am.cfg.FlattenEvery)
	defer ticker.Stop()
	for {
		select {
		case <-a.done:
			return
		case <-ticker.C:
		}
		a.Buf.EndRevision()
		ok, err := a.Eng.ProposeFlattenCold(am.cfg.FlattenCold)
		if err != nil {
			if !errors.Is(err, transport.ErrStopped) {
				log.Printf("treedoc-serve: doc %q flatten proposal: %v", a.Doc, err)
			}
			return
		}
		if ok && am.cfg.Verbose {
			log.Printf("treedoc-serve: doc %q proposed a cold flatten round (%d flattened, %d aborted or refused so far)",
				a.Doc, a.Eng.Stats().FlattensCommitted, a.Eng.Stats().FlattensAborted)
		}
	}
}
