package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/treedoc/treedoc/internal/simnet"
	"github.com/treedoc/treedoc/internal/transport"
)

// hubProc is one fleet member: a re-exec'd child process listening on a
// pre-picked loopback port, fronted by a chaos proxy in this process. The
// proxy's address is the hub's advertised ring identity, so every client
// dial and every hub-to-hub mesh connection traverses the proxy — which
// is what lets Partition and SetLatency isolate the hub from both planes
// without the hub's cooperation.
type hubProc struct {
	idx   int
	addr  string // real listen address (stable across restarts)
	adv   string // advertised = proxy address
	proxy *simnet.Proxy

	mu    sync.Mutex
	cmd   *exec.Cmd // guarded by mu: replaced on restart
	stats string    // guarded by mu: expvar endpoint, changes on restart
}

// fleet manages the hub processes and their proxies.
type fleet struct {
	cfg     *config
	hubs    []*hubProc
	joiner  *hubProc // set by the reshard scenario
	verbose bool
}

// newHubProc reserves a loopback port for hub idx by binding and
// immediately releasing it, and fronts it with a chaos proxy. The tiny
// reuse race is acceptable in a harness and buys a stable hub address
// known before the child exists — which the proxy (and every peer's ring
// config) needs up front.
func newHubProc(idx int) (*hubProc, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("treedoc-load: reserve port: %w", err)
	}
	addr := ln.Addr().String()
	ln.Close()
	proxy, err := simnet.NewProxy(addr)
	if err != nil {
		return nil, err
	}
	return &hubProc{idx: idx, addr: addr, adv: proxy.Addr(), proxy: proxy}, nil
}

// startFleet brings up cfg.hubs hubs behind proxies, all sharing one
// static ring at epoch 1 (advertised = proxy addresses).
func startFleet(cfg *config) (*fleet, error) {
	f := &fleet{cfg: cfg, verbose: cfg.verbose}
	for i := 0; i < cfg.hubs; i++ {
		h, err := newHubProc(i)
		if err != nil {
			return nil, err
		}
		f.hubs = append(f.hubs, h)
	}
	for _, h := range f.hubs {
		if err := f.spawn(h, f.peers(), ""); err != nil {
			f.stop()
			return nil, err
		}
	}
	return f, nil
}

// spawn starts (or restarts) a hub child, treedoc-serve without -log (the
// clients are the replicas), and waits for its READY line. With -leave,
// SIGTERM resigns the hub from the ring — the reshard scenario's "leave"
// leg; the crash scenario's SIGKILL skips that.
func (f *fleet) spawn(h *hubProc, peers, join string) error {
	args := []string{serveCmd, "-addr", h.addr, "-self", h.adv, "-queue", fmt.Sprint(f.cfg.queue),
		"-stats", "127.0.0.1:0", "-leave"}
	if peers != "" {
		args = append(args, "-peers", peers)
	}
	if join != "" {
		args = append(args, "-join", join)
	}
	if f.verbose {
		args = append(args, "-v")
	}
	cmd := exec.Command(os.Args[0], args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return fmt.Errorf("treedoc-load: hub %d stdout: %w", h.idx, err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("treedoc-load: hub %d start: %w", h.idx, err)
	}

	ready := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "READY "); ok {
				select {
				case ready <- rest:
				default:
				}
				continue
			}
			if f.verbose {
				log.Printf("hub %d: %s", h.idx, line)
			}
		}
	}()

	select {
	case rest := <-ready:
		var addr, stats string
		if n, _ := fmt.Sscanf(rest, "addr=%s stats=%s", &addr, &stats); n != 2 {
			cmd.Process.Kill()
			return fmt.Errorf("treedoc-load: hub %d READY line missing stats address: %q", h.idx, rest)
		}
		h.mu.Lock()
		h.cmd = cmd
		h.stats = stats
		h.mu.Unlock()
		if f.verbose {
			log.Printf("hub %d up: relay %s (via proxy %s), stats http://%s/debug/vars", h.idx, h.addr, h.adv, stats)
		}
		return nil
	case <-time.After(20 * time.Second):
		cmd.Process.Kill()
		return fmt.Errorf("treedoc-load: hub %d did not report READY within 20s", h.idx)
	}
}

// addJoiner spawns one extra hub that joins the live ring via the first
// hub's advertised address (the reshard scenario's join leg).
func (f *fleet) addJoiner() (*hubProc, error) {
	h, err := newHubProc(len(f.hubs))
	if err != nil {
		return nil, err
	}
	if err := f.spawn(h, "", f.hubs[0].adv); err != nil {
		h.proxy.Close()
		return nil, err
	}
	f.joiner = h
	return h, nil
}

// leave SIGTERMs a hub and waits for it to resign and exit (the reshard
// scenario's leave leg: owned documents hand off before the process
// dies).
func (f *fleet) leave(h *hubProc, timeout time.Duration) error {
	h.mu.Lock()
	cmd := h.cmd
	h.mu.Unlock()
	if cmd == nil || cmd.Process == nil {
		return fmt.Errorf("treedoc-load: hub %d not running", h.idx)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("treedoc-load: hub %d SIGTERM: %w", h.idx, err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case <-done:
		return nil
	case <-time.After(timeout):
		cmd.Process.Kill()
		return fmt.Errorf("treedoc-load: hub %d did not exit within %v of SIGTERM", h.idx, timeout)
	}
}

// crash SIGKILLs a hub — no resign, no handoff, queued frames lost. The
// proxy stays up so the advertised address remains dialable-and-failing,
// exactly like a crashed server behind a stable VIP.
func (f *fleet) crash(h *hubProc) error {
	h.mu.Lock()
	cmd := h.cmd
	h.mu.Unlock()
	if cmd == nil || cmd.Process == nil {
		return fmt.Errorf("treedoc-load: hub %d not running", h.idx)
	}
	if err := cmd.Process.Kill(); err != nil {
		return fmt.Errorf("treedoc-load: hub %d kill: %w", h.idx, err)
	}
	cmd.Wait()
	return nil
}

// restart re-spawns a crashed hub on its original address with the
// original static ring.
func (f *fleet) restart(h *hubProc) error { return f.spawn(h, f.peers(), "") }

// peers is the fleet's static ring as a -peers value: empty for one hub,
// which then runs unsharded.
func (f *fleet) peers() string {
	if len(f.hubs) == 1 {
		return ""
	}
	return strings.Join(f.advertised(), ",")
}

// stop tears the whole fleet down: children killed, proxies closed.
func (f *fleet) stop() {
	all := f.hubs
	if f.joiner != nil {
		all = append(append([]*hubProc{}, f.hubs...), f.joiner)
	}
	for _, h := range all {
		h.mu.Lock()
		cmd := h.cmd
		h.mu.Unlock()
		if cmd != nil && cmd.Process != nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
		h.proxy.Close()
	}
}

// advertised returns the fleet's client-facing (proxy) addresses.
func (f *fleet) advertised() []string {
	out := make([]string, len(f.hubs))
	for i, h := range f.hubs {
		out[i] = h.adv
	}
	return out
}

// pollStats fetches one hub's expvar endpoint and extracts the
// treedoc.hub variable. A hub that is down (crash window) returns an
// error; callers treat that as a gap, not a failure.
func (h *hubProc) pollStats() (transport.HubStats, error) {
	h.mu.Lock()
	statsAddr := h.stats
	h.mu.Unlock()
	var hs transport.HubStats
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + statsAddr + "/debug/vars")
	if err != nil {
		return hs, fmt.Errorf("treedoc-load: hub %d stats: %w", h.idx, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return hs, fmt.Errorf("treedoc-load: hub %d stats read: %w", h.idx, err)
	}
	var vars struct {
		Hub *transport.HubStats `json:"treedoc.hub"`
	}
	if err := json.Unmarshal(body, &vars); err != nil {
		return hs, fmt.Errorf("treedoc-load: hub %d stats decode: %w", h.idx, err)
	}
	if vars.Hub == nil {
		return hs, fmt.Errorf("treedoc-load: hub %d stats missing treedoc.hub", h.idx)
	}
	return *vars.Hub, nil
}
