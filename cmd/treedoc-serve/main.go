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
// With -log, the hub also runs one archivist per owned document: a durable
// in-process replica under <log>/<doc>/ that serves snapshot catch-up to
// late joiners, so a document outlives its editors. With -flatten-every,
// each archivist also authors a flatten round for its document's coldest
// subtree on that period.
//
// With -peers (and -self), N hub processes split the document space by
// consistent hashing: an attach for a document another process owns is
// answered with an epoch-stamped redirect, which DialDoc and Session
// clients follow transparently; a client that cannot reach the owner is
// served through hub-to-hub forwarding. A hub joins a running ring with
// -join, and each document the change relocates is handed off online, its
// archivist with it (internal/serve's Archive): no process restarts and no
// op is lost. With -leave, SIGTERM hands every owned document off and
// waits up to 30 s for the archivists' hand-overs before the process exits.
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
//
// Once its listeners are live the process prints one line on stdout,
// "READY addr=<relay address> stats=<stats address>". The process is
// internal/serve's Main.
package main

import (
	"os"

	"github.com/treedoc/treedoc/internal/serve"
)

func main() { serve.Main(os.Args[0], os.Args[1:]) }
