// Command clamd runs a CLAM server: the dynamic-loading, RPC and
// distributed-upcall engine with the window-management and protocol-stack
// class libraries available for loading. The server binary itself
// contains no application behavior until a client loads a class (§2).
//
// Usage:
//
//	clamd -listen unix:/tmp/clam.sock
//	clamd -listen tcp:127.0.0.1:7047 -width 640 -height 480
//	clamd -listen tcp:0.0.0.0:7047 -heartbeat 2s -liveness 10s \
//	      -max-sessions 64 -slow-consumer-limit 3
//	clamd -listen unix:/tmp/mid.sock -upstream unix:/tmp/clam.sock \
//	      -import framer,transport
//	clamd -listen tcp:10.0.0.1:7047 -mesh-name a \
//	      -mesh-peer b=tcp:10.0.0.2:7047,c=tcp:10.0.0.3:7047
//	clamd -listen tcp:10.0.0.4:7047 -mesh-name d -mesh-seed tcp:10.0.0.1:7047
//
// The -upstream form runs a middle tier: the server stacks on a lower
// CLAM server, re-exports the named objects as proxies, relays calls on
// them down, and relays the lower server's upcalls up into its own
// clients. The -mesh-* forms join a federated mesh instead: N peer
// servers share one consistent-hash object space, any member routes
// calls to the owner, and a joiner may learn the membership from a
// single live seed member's roster.
//
// See OPERATIONS.md for tuning guidance on the robustness flags and the
// middle-tier deployment notes.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"clam"
	"clam/internal/benchlib"
	"clam/internal/proto"
	"clam/internal/wm"
)

func main() {
	listen := flag.String("listen", "unix:/tmp/clam.sock", "address to serve, as network:address (unix:PATH or tcp:HOST:PORT)")
	width := flag.Int("width", 640, "simulated display width")
	height := flag.Int("height", 480, "simulated display height")
	quiet := flag.Bool("quiet", false, "suppress per-session diagnostics")
	upTimeout := flag.Duration("upcall-timeout", 0, "bound on each distributed-upcall wait (0 = default 30s)")
	heartbeat := flag.Duration("heartbeat", 0, "interval between liveness pings to each client (0 = disabled)")
	liveness := flag.Duration("liveness", 0, "silence window after which a client is evicted (0 = 3x -heartbeat)")
	maxSessions := flag.Int("max-sessions", 0, "cap on concurrent client sessions (0 = unlimited)")
	slowLimit := flag.Int("slow-consumer-limit", 0, "evict a client after this many consecutive upcall failures (0 = disabled)")
	resumeWindow := flag.Duration("resume-window", 0, "grace period a disconnected session is parked for resumption instead of evicted (0 = disabled)")
	journalDir := flag.String("journal", "", "directory for the write-ahead journal; parked sessions then survive a server crash-restart (empty = disabled)")
	breakerThreshold := flag.Int("breaker-threshold", 0, "open the upstream circuit after this many consecutive failed reconnects (0 = disabled)")
	breakerCooldown := flag.Duration("breaker-cooldown", 0, "how long an opened upstream circuit stays open (0 = default 5s)")
	maxUpcalls := flag.Int("max-client-upcalls", 0, "concurrent upcalls allowed per client (0 = the paper's limit of 1)")
	dispatchWorkers := flag.Int("dispatch-workers", 0, "bound on concurrently running call handlers (0 = max(2, GOMAXPROCS))")
	fanoutShards := flag.Int("fanout-shards", 0, "shard count for the multicast subscription table, rounded up to a power of two (0 = default 32)")
	serialDispatch := flag.Bool("serial-dispatch", false, "run the dispatch executor's serial ablation: each session's calls in arrival order, one handler at a time")
	upstream := flag.String("upstream", "", "lower CLAM server to stack on, as network:address; this server relays calls down and upcalls up")
	imports := flag.String("import", "", "comma-separated named objects to re-export from the -upstream server as proxies")
	meshName := flag.String("mesh-name", "", "this server's unique name in a federated mesh; enables JoinMesh")
	meshPeers := flag.String("mesh-peer", "", "comma-separated mesh members as name=network:address; requires -mesh-name")
	meshSeed := flag.String("mesh-seed", "", "one live mesh member as network:address; its roster supplies the membership (alternative to -mesh-peer)")
	shmOn := flag.Bool("shm", false, "offer same-host clients the shared-memory ring transport (unix listeners only; clients fall back to the socket)")
	shmRing := flag.Int("shm-ring", 0, "per-direction shm ring size in bytes, rounded up to a power of two (0 = 1 MiB default); requires -shm")
	maxQueueDelay := flag.Duration("max-queue-delay", 0, "refuse synchronous calls whose estimated dispatch-queue wait exceeds this, or would exhaust their deadline budget (0 = disabled)")
	noShed := flag.Bool("no-shed", false, "disable expired-budget shedding (ablation: doomed calls execute anyway; cancels still shed)")
	flag.Parse()

	network, addr, ok := strings.Cut(*listen, ":")
	if !ok || (network != "unix" && network != "tcp") {
		log.Fatalf("clamd: bad -listen %q; want unix:PATH or tcp:HOST:PORT", *listen)
	}
	if *imports != "" && *upstream == "" {
		log.Fatal("clamd: -import requires -upstream")
	}
	if (*meshPeers != "" || *meshSeed != "") && *meshName == "" {
		log.Fatal("clamd: -mesh-peer/-mesh-seed require -mesh-name")
	}
	if *shmRing != 0 && !*shmOn {
		log.Fatal("clamd: -shm-ring requires -shm")
	}
	if *shmOn && network != "unix" {
		log.Fatal("clamd: -shm requires a unix -listen address (the rendezvous broker lives next to the socket)")
	}

	lib := clam.NewLibrary()
	wm.MustRegister(lib, wm.Config{Width: int16(*width), Height: int16(*height)})
	proto.MustRegister(lib)
	if err := benchlib.Register(lib); err != nil {
		log.Fatal(err)
	}
	if err := clam.RegisterStatsClass(lib); err != nil {
		log.Fatal(err)
	}

	opts := []clam.ServerOption{}
	if *quiet {
		opts = append(opts, clam.WithServerLog(func(string, ...any) {}))
	}
	if *upTimeout > 0 {
		opts = append(opts, clam.WithUpcallTimeout(*upTimeout))
	}
	if *heartbeat > 0 {
		opts = append(opts, clam.WithHeartbeat(*heartbeat, *liveness))
	}
	if *maxSessions > 0 {
		opts = append(opts, clam.WithMaxSessions(*maxSessions))
	}
	if *slowLimit > 0 {
		opts = append(opts, clam.WithSlowConsumerLimit(*slowLimit))
	}
	if *maxUpcalls > 0 {
		opts = append(opts, clam.WithMaxClientUpcalls(*maxUpcalls))
	}
	if *dispatchWorkers > 0 {
		opts = append(opts, clam.WithDispatchWorkers(*dispatchWorkers))
	}
	if *serialDispatch {
		opts = append(opts, clam.WithPerObjectDispatch(false))
	}
	if *fanoutShards > 0 {
		opts = append(opts, clam.WithFanoutShards(*fanoutShards))
	}
	if *resumeWindow > 0 {
		opts = append(opts, clam.WithResumeWindow(*resumeWindow))
	}
	if *journalDir != "" {
		opts = append(opts, clam.WithJournal(*journalDir))
	}
	if *breakerThreshold > 0 {
		opts = append(opts, clam.WithUpstreamBreaker(*breakerThreshold, *breakerCooldown))
	}
	if *shmOn {
		opts = append(opts, clam.WithSharedMemory(*shmRing))
	}
	if *maxQueueDelay > 0 {
		opts = append(opts, clam.WithMaxQueueDelay(*maxQueueDelay))
	}
	if *noShed {
		opts = append(opts, clam.WithoutDeadlineShedding())
	}
	srv := clam.NewServer(lib, opts...)

	// Bootstrap the base abstractions clients expect, per §4.2.
	sobj, _, err := srv.CreateInstance("screen", 0, nil)
	if err != nil {
		log.Fatal(err)
	}
	srv.SetNamed("screen", sobj)
	wobj, _, err := srv.CreateInstance("window", 0, nil)
	if err != nil {
		log.Fatal(err)
	}
	srv.SetNamed("basewindow", wobj)
	fobj, _, err := srv.CreateInstance("framer", 0, nil)
	if err != nil {
		log.Fatal(err)
	}
	srv.SetNamed("framer", fobj)
	tobj, _, err := srv.CreateInstance("transport", 0, nil)
	if err != nil {
		log.Fatal(err)
	}
	srv.SetNamed("transport", tobj)
	aobj, _, err := srv.CreateInstance("assembler", 0, nil)
	if err != nil {
		log.Fatal(err)
	}
	srv.SetNamed("assembler", aobj)
	eobj, _, err := srv.CreateInstance("echo", 0, nil)
	if err != nil {
		log.Fatal(err)
	}
	srv.SetNamed("echo", eobj)
	pobj, _, err := srv.CreateInstance("pinger", 0, nil)
	if err != nil {
		log.Fatal(err)
	}
	srv.SetNamed("pinger", pobj)

	// Middle-tier placement (§1's layering across address spaces): dial a
	// lower CLAM server and re-export selected base instances as proxies.
	// Calls on them relay down; their upcalls relay back up through this
	// server into our clients.
	if *upstream != "" {
		unet, uaddr, ok := strings.Cut(*upstream, ":")
		if !ok || (unet != "unix" && unet != "tcp") {
			log.Fatalf("clamd: bad -upstream %q; want unix:PATH or tcp:HOST:PORT", *upstream)
		}
		up, err := srv.DialUpstream(unet, uaddr)
		if err != nil {
			log.Fatalf("clamd: dialing upstream: %v", err)
		}
		if *imports != "" {
			names := strings.Split(*imports, ",")
			for i := range names {
				names[i] = strings.TrimSpace(names[i])
			}
			if err := srv.ImportNamed(up, names...); err != nil {
				log.Fatalf("clamd: importing from upstream: %v", err)
			}
			fmt.Printf("clamd: stacked on %s, re-exporting: %s\n", *upstream, strings.Join(names, ", "))
		} else {
			fmt.Printf("clamd: stacked on %s\n", *upstream)
		}
	}

	if network == "unix" {
		os.Remove(addr) // stale socket from a previous run
	}
	ln, err := srv.Listen(network, addr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("clamd: serving on %s:%s (display %dx%d); classes: %s\n",
		network, ln.Addr(), *width, *height, strings.Join(lib.Names(), ", "))

	// Federated mesh membership (DESIGN.md §6.6): join a horizontal peer
	// mesh sharing one consistent-hash object space. Joined after Listen so
	// peers handling our announce can dial us back immediately.
	if *meshName != "" {
		peers, err := parseMeshPeers(*meshPeers)
		if err != nil {
			log.Fatalf("clamd: %v", err)
		}
		if *meshSeed != "" {
			snet, saddr, ok := strings.Cut(*meshSeed, ":")
			if !ok || (snet != "unix" && snet != "tcp") {
				log.Fatalf("clamd: bad -mesh-seed %q; want unix:PATH or tcp:HOST:PORT", *meshSeed)
			}
			more, err := fetchRoster(snet, saddr, *meshName)
			if err != nil {
				log.Fatalf("clamd: seeding mesh from %s: %v", *meshSeed, err)
			}
			peers = append(peers, more...)
		}
		self := clam.MeshPeer{Name: *meshName, Network: network, Addr: addr}
		if err := srv.JoinMesh(self, peers...); err != nil {
			log.Fatalf("clamd: joining mesh: %v", err)
		}
		fmt.Printf("clamd: mesh member %q with %d peers\n", *meshName, len(peers))
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	m := srv.Metrics()
	fmt.Printf("clamd: shutting down — %d sync + %d async calls in %d batches, %d upcalls (%d failed, %d timed out), %d loads, %d faults\n",
		m.SyncCalls, m.AsyncCalls, m.Batches, m.Upcalls, m.UpcallFailures, m.UpcallTimeouts, m.Loads, m.Faults)
	if m.Evictions > 0 || m.RejectedSessions > 0 {
		fmt.Printf("clamd: robustness — %d clients evicted, %d sessions rejected\n",
			m.Evictions, m.RejectedSessions)
	}
	if m.HeartbeatsSent > 0 {
		fmt.Printf("clamd: heartbeats — %d sent, %d received\n",
			m.HeartbeatsSent, m.HeartbeatsReceived)
	}
	if f := m.Forwarding; f.CallsRelayedDown > 0 || f.UpcallsRelayedUp > 0 || f.ProxyHandlesLive > 0 {
		fmt.Printf("clamd: forwarding — %d calls relayed down, %d upcalls relayed up, %d proxy handles live\n",
			f.CallsRelayedDown, f.UpcallsRelayedUp, f.ProxyHandlesLive)
	}
	if ms := m.Mesh; ms.Enabled {
		fmt.Printf("clamd: mesh — member %q, %d/%d peers up, %d named resolutions routed, %d peer-down refusals\n",
			ms.Self, ms.PeersUp, ms.Peers, ms.RoutedNamed, ms.PeerDownFailures)
	}
	if r := m.Resilience; r.Reconnects > 0 || r.ReplayedCalls > 0 || r.DedupDrops > 0 || r.RetransmitDrops > 0 || r.BreakerOpens > 0 {
		fmt.Printf("clamd: resilience — %d reconnects, %d calls replayed, %d duplicates dropped, %d retransmit drops, %d breaker opens\n",
			r.Reconnects, r.ReplayedCalls, r.DedupDrops, r.RetransmitDrops, r.BreakerOpens)
	}
	if j := m.Journal; j.Enabled {
		fmt.Printf("clamd: journal — %d appends (%d synced, %d fsyncs), %d compactions, %d bytes; recovered %d sessions / %d handles / %d subs%s\n",
			j.Appends, j.SyncAppends, j.Fsyncs, j.Compactions, j.SizeBytes,
			j.RecoveredSessions, j.RecoveredHandles, j.RecoveredSubs,
			map[bool]string{true: " (torn tail truncated)", false: ""}[j.TornTailTruncated])
	}
	if fo := m.Fanout; fo.EventsPublished > 0 || fo.SubscribersLive > 0 {
		fmt.Printf("clamd: fanout — %d subscribers on %d topics (%d shards), %d published + %d relayed, %d delivered (%d failed), %d coalesced, drops %d oldest / %d newest / %d closed\n",
			fo.SubscribersLive, fo.Topics, fo.Shards, fo.EventsPublished, fo.EventsRelayed,
			fo.EventsDelivered, fo.DeliveryFailures, fo.EventsCoalesced,
			fo.QueueDropsOldest, fo.QueueDropsNewest, fo.QueueDropsClosed)
	}
	if tr := m.Transport; tr.ShmEnabled || tr.WritevFlushes > 0 {
		fmt.Printf("clamd: transport — %d shm sessions, %d socket fallbacks, %d doorbell wakeups (%d parks), ring high-water %d B, %d writev flushes carrying %d frames\n",
			tr.ShmSessions, tr.SocketFallbacks, tr.DoorbellWakeups, tr.DoorbellSleeps,
			tr.RingHighWater, tr.WritevFlushes, tr.WritevFrames)
	}
	if o := m.Overload; o.BudgetedCalls > 0 || o.ShedExpired > 0 || o.ShedCancelled > 0 || o.ShedAdmission > 0 || o.CancelsReceived > 0 {
		fmt.Printf("clamd: overload — %d budgeted calls, shed %d expired / %d cancelled / %d at admission, %d cancels received (%d mid-handler, %d propagated), queue-wait EWMA %s\n",
			o.BudgetedCalls, o.ShedExpired, o.ShedCancelled, o.ShedAdmission,
			o.CancelsReceived, o.HandlerCancels, o.CancelsPropagated,
			time.Duration(o.QueueDelayEWMANanos))
	}
	if d := m.Dispatch; d.PerObject {
		fmt.Printf("clamd: dispatch — %d workers, peak parallelism %d, %d queued, %d worker stalls\n",
			d.Workers, d.Parallelism, d.QueueDepth, d.WorkerStalls)
	}
	if top := m.TopCalls(5); len(top) > 0 {
		fmt.Printf("clamd: busiest methods: %v\n", top)
	}
	if err := srv.Close(); err != nil {
		log.Fatal(err)
	}
	if network == "unix" {
		os.Remove(addr)
	}
}

// parseMeshPeers parses the -mesh-peer list: comma-separated entries of
// the form name=network:address.
func parseMeshPeers(spec string) ([]clam.MeshPeer, error) {
	if spec == "" {
		return nil, nil
	}
	var peers []clam.MeshPeer
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		name, where, ok := strings.Cut(entry, "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("bad -mesh-peer entry %q; want name=network:address", entry)
		}
		pnet, paddr, ok := strings.Cut(where, ":")
		if !ok || (pnet != "unix" && pnet != "tcp") {
			return nil, fmt.Errorf("bad -mesh-peer address %q; want unix:PATH or tcp:HOST:PORT", where)
		}
		peers = append(peers, clam.MeshPeer{Name: name, Network: pnet, Addr: paddr})
	}
	return peers, nil
}

// fetchRoster dials one live mesh member and reads its membership view
// (the "mesh" class's Roster), so a joining server needs only a single
// seed address instead of the full peer list.
func fetchRoster(network, addr, self string) ([]clam.MeshPeer, error) {
	c, err := clam.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	r, err := c.New("mesh", 1)
	if err != nil {
		return nil, err
	}
	var roster string
	if err := r.CallInto("Roster", []any{&roster}); err != nil {
		return nil, err
	}
	var peers []clam.MeshPeer
	for _, line := range strings.Split(strings.TrimSpace(roster), "\n") {
		f := strings.Fields(line)
		if len(f) != 4 || f[0] == self {
			continue
		}
		peers = append(peers, clam.MeshPeer{Name: f[0], Network: f[1], Addr: f[2]})
	}
	return peers, nil
}
