// Package clam is a Go reproduction of CLAM, the server structuring
// system of "Distributed Upcalls: A Mechanism for Layering Asynchronous
// Abstractions" (Cohrs, Miller & Call, ICDCS 1988).
//
// CLAM pairs two mechanisms. Remote procedure calls give clients
// synchronous, downward access through layers of abstraction that may
// live in another address space; distributed upcalls let a lower layer —
// typically inside a server — call upward through those same layers,
// crossing back into client address spaces, so servers can initiate
// asynchronous, independent action. Around this core the system provides
// dynamic loading of class modules into a running server, object handles
// (capabilities) for pointers that cross address spaces, automatic and
// programmer-defined parameter bundlers, batched asynchronous calls, and
// non-preemptive tasks.
//
// A minimal server:
//
//	lib := clam.NewLibrary()
//	lib.MustRegister(clam.Class{
//		Name: "counter", Version: 1, Type: reflect.TypeOf(&Counter{}),
//		New:  func(env any) (any, error) { return &Counter{}, nil },
//	})
//	srv := clam.NewServer(lib)
//	ln, _ := srv.Listen("unix", "/tmp/clam.sock")
//	defer srv.Close()
//
// And a client that loads the class, calls it, and receives upcalls:
//
//	c, _ := clam.Dial("unix", "/tmp/clam.sock")
//	obj, _ := c.New("counter", 0)
//	obj.Call("Add", int64(2))                       // synchronous RPC
//	obj.Async("Add", int64(3))                      // batched, no reply
//	var total int64
//	obj.CallInto("Total", []any{&total})            // results
//	obj.Call("OnChange", func(n int64) {            // distributed upcall
//		fmt.Println("counter is now", n)            // runs in this client
//	})
//
// A func passed as an RPC argument becomes a remote procedure pointer:
// the server receives an ordinary func value whose invocation performs a
// distributed upcall back into the registering client. A pointer to a
// loaded class instance returned by the server becomes a *Remote handle
// on the client, whose method calls are RPCs back into the server.
//
// The subsystems live in internal packages (see DESIGN.md for the map);
// this package re-exports the public surface.
package clam

import (
	"clam/internal/bundle"
	"clam/internal/core"
	"clam/internal/dynload"
	"clam/internal/handle"
	"clam/internal/task"
	"clam/internal/upcall"
	"clam/internal/wire"
)

// Core client/server types.
type (
	// Server hosts dynamically loaded classes and serves CLAM clients.
	Server = core.Server
	// ServerOption configures NewServer.
	ServerOption = core.ServerOption
	// Client is a CLAM client process with its two channels.
	Client = core.Client
	// DialOption configures Dial.
	DialOption = core.DialOption
	// Remote is a client-held handle to a server object.
	Remote = core.Remote
	// Env is what loaded class constructors receive.
	Env = core.Env
	// FaultReport is the error-report upcall payload.
	FaultReport = core.FaultReport
)

// Dynamic loading types.
type (
	// Library is the set of classes available for loading.
	Library = dynload.Library
	// Class describes one loadable, versioned module.
	Class = dynload.Class
	// Loaded is a class loaded into a server.
	Loaded = dynload.Loaded
	// Fault is the error produced when loaded code panics.
	Fault = dynload.Fault
)

// Bundling types.
type (
	// MethodSpec refines parameter bundling for one method.
	MethodSpec = bundle.MethodSpec
	// ParamSpec configures one parameter's mode and bundler.
	ParamSpec = bundle.ParamSpec
	// Mode is a parameter transfer direction.
	Mode = bundle.Mode
	// Registry holds custom bundlers.
	Registry = bundle.Registry
)

// Parameter modes, as in the paper's const / out / inout specifiers.
const (
	In    = bundle.In
	Out   = bundle.Out
	InOut = bundle.InOut
)

// Handle is the capability type for objects that cross address spaces.
type Handle = handle.Handle

// Task types, for servers and modules that start asynchronous activities.
type (
	// Sched is the non-preemptive task scheduler.
	Sched = task.Sched
	// Task is one lightweight process.
	Task = task.Task
	// TaskEvent is a condition tasks block on.
	TaskEvent = task.Event
)

// UpcallRegistry is the local registration/dispatch state a lower-level
// object keeps (queue/discard policies included).
type UpcallRegistry = upcall.Registry

// Upcall policies for events with no registered handler.
const (
	// UpcallDiscard throws unclaimed events away.
	UpcallDiscard = upcall.Discard
	// UpcallQueue keeps unclaimed events for later replay; posting to a
	// full queue is an error.
	UpcallQueue = upcall.Queue
	// UpcallDropOldest queues like UpcallQueue but a full queue evicts
	// its oldest event instead of rejecting the new one.
	UpcallDropOldest = upcall.DropOldest
	// UpcallBlock queues like UpcallQueue but a Post against a full queue
	// waits for a Drain, Replay or Register — backpressure, not loss.
	UpcallBlock = upcall.Block
)

// NewUpcallRegistry returns an empty upcall registry.
func NewUpcallRegistry(opts ...upcall.Option) *UpcallRegistry {
	return upcall.NewRegistry(opts...)
}

// WithUpcallPolicy sets a registry's no-handler policy.
// Example: clam.NewUpcallRegistry(clam.WithUpcallPolicy(clam.UpcallDropOldest)).
var WithUpcallPolicy = upcall.WithPolicy

// WithUpcallMaxQueue bounds each event queue of a registry.
// Example: clam.NewUpcallRegistry(clam.WithUpcallMaxQueue(256)).
var WithUpcallMaxQueue = upcall.WithMaxQueue

// SimLink wraps a net.Conn with propagation latency and a bandwidth
// ceiling, for emulating wide-area links.
type SimLink = wire.SimLink

// NewServer returns a server drawing loadable classes from lib.
func NewServer(lib *Library, opts ...ServerOption) *Server {
	return core.NewServer(lib, opts...)
}

// Dial connects to a CLAM server, establishing the RPC and upcall
// channels.
func Dial(network, addr string, opts ...DialOption) (*Client, error) {
	return core.Dial(network, addr, opts...)
}

// SelfDial connects a client to srv inside the same process over an
// in-memory pipe — the degenerate layer placement, useful for tests and
// for separating protocol cost from IPC cost.
func SelfDial(srv *Server, opts ...DialOption) (*Client, error) {
	return core.SelfDial(srv, opts...)
}

// SelfDialUpstream stacks srv on lower inside one process: srv dials
// lower over an in-memory pipe and attaches the connection for
// forwarding, exactly as Server.DialUpstream does across machines. Use
// Server.ImportNamed afterwards to re-export the lower server's base
// instances as proxies.
func SelfDialUpstream(srv, lower *Server, opts ...DialOption) (*Client, error) {
	return core.SelfDialUpstream(srv, lower, opts...)
}

// NewLibrary returns an empty class library.
func NewLibrary() *Library { return dynload.NewLibrary() }

// NewSched returns a non-preemptive task scheduler with reuse enabled.
func NewSched(opts ...task.Option) *Sched { return task.New(opts...) }

// Guard runs fn, converting a panic in loaded code into a *Fault error.
func Guard(fn func() error) error { return dynload.Guard(fn) }

// RegisterStatsClass adds the built-in "stats" class (remote access to
// Server.Metrics) to a library.
func RegisterStatsClass(lib *Library) error { return core.RegisterStatsClass(lib) }

// MetricsSnapshot is a point-in-time copy of a server's counters.
type MetricsSnapshot = core.MetricsSnapshot

// ClientMetricsSnapshot is a point-in-time copy of a client's
// robustness counters (retries, timeouts, heartbeats), from
// Client.Metrics.
type ClientMetricsSnapshot = core.ClientMetricsSnapshot

// LinkStats is the per-endpoint transport health block (retries,
// timeouts, heartbeats) shared by MetricsSnapshot and
// ClientMetricsSnapshot — one vocabulary for both ends of a link.
type LinkStats = core.LinkStats

// ForwardingStats counts a middle tier's relay activity: calls relayed
// to the upstream server, upcalls relayed up into clients, and live
// proxy handles (see Server.DialUpstream).
type ForwardingStats = core.ForwardingStats

// DispatchStats describes a server's dispatch engine: worker bound,
// per-object mode, observed parallelism high-water mark, live queue
// depth, and worker stalls (handler blocks that released a slot).
type DispatchStats = core.DispatchStats

// ResilienceStats counts session-resurrection events: reconnects
// completed, asynchronous calls replayed after them, duplicate frames
// suppressed by the receive window, and circuit-breaker trips. Appears
// in both MetricsSnapshot and ClientMetricsSnapshot.
type ResilienceStats = core.ResilienceStats

// FanoutStats counts a server's multicast activity: live subscribers,
// declared topics, events published/relayed/delivered, coalesced pending
// events, and queue drops split by cause (see Server.RegisterMulticast).
type FanoutStats = core.FanoutStats

// JournalStats describes a server's write-ahead journal (WithJournal):
// append/fsync/compaction counters, file size, and what the last restart
// recovered. Enabled is false when the server runs without a journal.
type JournalStats = core.JournalStats

// TransportStats describes the byte-transport fast paths: shared-memory
// ring sessions vs. socket fallbacks, doorbell wakeups and ring occupancy
// (WithSharedMemory), and vectored socket write batching. Appears in
// MetricsSnapshot.
type TransportStats = core.TransportStats

// OverloadStats counts deadline-budget and cancellation activity: calls
// carrying budgets, calls shed before execution (budget spent, cancelled,
// or refused at admission), cancels received/propagated, and the
// admission layer's queue-wait estimate. Appears in MetricsSnapshot.
type OverloadStats = core.OverloadStats

// MulticastOption configures a topic declared with
// Server.RegisterMulticast.
type MulticastOption = core.MulticastOption

// Multicast topic options.
var (
	// WithCoalesce makes a topic last-event-wins: a newly published
	// event replaces a subscriber's pending tail instead of queueing
	// behind it — right for state-valued events where only the latest
	// matters.
	// Example: srv.RegisterMulticast("damage", (func(int64))(nil), clam.WithCoalesce()).
	WithCoalesce = core.WithCoalesce
	// WithFanoutQueue bounds each subscriber's pending-event queue.
	// Example: srv.RegisterMulticast("ev", (func(int64))(nil), clam.WithFanoutQueue(64)).
	WithFanoutQueue = core.WithFanoutQueue
	// WithFanoutPolicy selects the full-queue behaviour per subscriber:
	// UpcallDropOldest (default), UpcallBlock (backpressure) or
	// UpcallQueue (reject newest).
	// Example: srv.RegisterMulticast("ev", (func(int64))(nil), clam.WithFanoutPolicy(clam.UpcallBlock)).
	WithFanoutPolicy = core.WithFanoutPolicy
)

// RegisterFanoutClass adds the built-in "fanout" class (remote multicast
// subscription management) to a library. NewServer registers it
// automatically; exported for libraries shared across servers.
func RegisterFanoutClass(lib *Library) error { return core.RegisterFanoutClass(lib) }

// MeshPeer names one member of a federated server mesh for
// Server.JoinMesh: its unique mesh name and where it listens. Client may
// carry an already-dialed connection; when nil, JoinMesh dials Addr.
type MeshPeer = core.MeshPeer

// MeshStats describes a server's mesh membership: self name, member and
// up counts, named resolutions routed to owning peers, and calls refused
// fast because the owner was down. Appears in MetricsSnapshot.
type MeshStats = core.MeshStats

// ErrPeerDown marks a call routed to a mesh member currently believed
// dead: the call fails fast instead of queueing behind the dead link,
// and the object stays where its handles live until the owner rejoins.
var ErrPeerDown = core.ErrPeerDown

// IsPeerDown reports whether err is ErrPeerDown, including the remote
// form a routed call returns after crossing a hop.
func IsPeerDown(err error) bool { return core.IsPeerDown(err) }

// RetryPolicy shapes client-side retries of idempotent-marked calls:
// attempt budget, exponential backoff with a ceiling, and jitter.
type RetryPolicy = core.RetryPolicy

// DefaultRetryPolicy is the policy WithRetry uses when given a zero
// Attempts count: 3 attempts, 50ms base backoff doubling to 1s, ±20%
// jitter.
var DefaultRetryPolicy = core.DefaultRetryPolicy

// Call-failure sentinels, testable with errors.Is.
var (
	// ErrCallTimeout marks a synchronous call abandoned at its deadline;
	// the only error the retry layer considers retryable.
	ErrCallTimeout = core.ErrCallTimeout
	// ErrServerUnresponsive marks a call failed because the client-side
	// liveness window (WithClientHeartbeat) expired.
	ErrServerUnresponsive = core.ErrServerUnresponsive
	// ErrDisconnected marks a call failed because the link dropped while
	// a session resume is (or may be) in progress; retryable for methods
	// marked idempotent (see Remote.MarkIdempotent and WithRetry).
	ErrDisconnected = core.ErrDisconnected
	// ErrReplayGap marks a resume abandoned because the bounded replay
	// buffer had already dropped unacknowledged calls the server never
	// executed; not retryable — the session's at-most-once ledger cannot
	// be made whole, so the client fails definitively instead of silently
	// losing calls.
	ErrReplayGap = core.ErrReplayGap
	// ErrDeadlineExceeded marks a call the server refused without
	// executing because its deadline budget was spent (or a cancel
	// reached it first) — a definitive "did not run", retryable under
	// WithRetry for methods marked idempotent. Calls that were already
	// executing when their deadline passed return it too, via the
	// handler's context.
	ErrDeadlineExceeded = core.ErrDeadlineExceeded
)

// Server options.
var (
	// WithUpcallTimeout bounds distributed-upcall waits.
	// Example: clam.NewServer(lib, clam.WithUpcallTimeout(5*time.Second)).
	WithUpcallTimeout = core.WithUpcallTimeout
	// WithServerLog directs server diagnostics.
	// Example: clam.NewServer(lib, clam.WithServerLog(log.Printf)).
	WithServerLog = core.WithServerLog
	// WithScheduler substitutes the server's task scheduler.
	// Example: clam.NewServer(lib, clam.WithScheduler(clam.NewSched())).
	WithScheduler = core.WithScheduler
	// WithMaxClientUpcalls relaxes the one-active-upcall-per-client
	// limit, the future-work extension §4.4 anticipates.
	// Example: clam.NewServer(lib, clam.WithMaxClientUpcalls(4)).
	WithMaxClientUpcalls = core.WithMaxClientUpcalls
	// WithHeartbeat pings each session every interval on both channels
	// and evicts clients silent for longer than the liveness window;
	// zero interval (the default) disables heartbeats.
	// Example: clam.NewServer(lib, clam.WithHeartbeat(2*time.Second, 10*time.Second)).
	WithHeartbeat = core.WithHeartbeat
	// WithMaxSessions caps concurrent client sessions; excess dials are
	// refused at the handshake. Zero (the default) means unlimited.
	// Example: clam.NewServer(lib, clam.WithMaxSessions(64)).
	WithMaxSessions = core.WithMaxSessions
	// WithSlowConsumerLimit evicts a client after n consecutive upcall
	// transport failures (timeouts or disconnects). Zero disables.
	// Example: clam.NewServer(lib, clam.WithSlowConsumerLimit(3)).
	WithSlowConsumerLimit = core.WithSlowConsumerLimit
	// WithDispatchWorkers bounds the per-object executor's worker pool
	// (default max(2, GOMAXPROCS)); blocked handlers release their slot.
	// Example: clam.NewServer(lib, clam.WithDispatchWorkers(8)).
	WithDispatchWorkers = core.WithDispatchWorkers
	// WithPerObjectDispatch selects the dispatch executor's policy: true
	// (default) serializes calls per target object and runs distinct
	// objects concurrently; false is the serial ablation, which runs each
	// session's calls in arrival order on one worker.
	// Example: clam.NewServer(lib, clam.WithPerObjectDispatch(false)).
	WithPerObjectDispatch = core.WithPerObjectDispatch
	// WithResumeWindow parks a disconnected session for the given grace
	// period instead of evicting it: handles, upcall registrations and
	// the duplicate-suppression window survive, and a client presenting
	// the session's resume token reattaches transparently. Zero (the
	// default) disables resurrection entirely.
	// Example: clam.NewServer(lib, clam.WithResumeWindow(30*time.Second)).
	WithResumeWindow = core.WithResumeWindow
	// WithJournal records grants, handle mints, registrations and receive
	// marks in an append-only journal under dir, and replays it on the
	// next start so parked sessions survive a server crash-restart —
	// durable session resurrection. Implies a 30s resume window unless
	// WithResumeWindow says otherwise.
	// Example: clam.NewServer(lib, clam.WithJournal("/var/lib/clamd")).
	WithJournal = core.WithJournal
	// WithUpstreamBreaker arms a circuit breaker on each upstream link:
	// after threshold consecutive failed reconnect attempts the circuit
	// opens for cooldown, failing forwarded calls fast instead of
	// queueing behind a flapping upstream.
	// Example: clam.NewServer(lib, clam.WithUpstreamBreaker(5, 10*time.Second)).
	WithUpstreamBreaker = core.WithUpstreamBreaker
	// WithFanoutShards sets the multicast subscription table's shard
	// count (rounded up to a power of two); raise it when subscribe/
	// unsubscribe churn contends with publishing.
	// Example: clam.NewServer(lib, clam.WithFanoutShards(128)).
	WithFanoutShards = core.WithFanoutShards
	// WithSharedMemory offers same-host clients the shared-memory ring
	// transport: each unix Listen also starts an shm rendezvous broker at
	// <addr>.shm, and clients fall back to the socket transparently (see
	// internal/shm). ringBytes is the per-direction ring size; 0 selects
	// the 1 MiB default. No-op on platforms without the transport.
	// Example: clam.NewServer(lib, clam.WithSharedMemory(0)).
	WithSharedMemory = core.WithSharedMemory
	// WithMaxQueueDelay arms the admission layer: synchronous calls whose
	// estimated dispatch-queue wait exceeds d — or would alone exhaust
	// the call's deadline budget — are refused at the read loop with
	// ErrDeadlineExceeded instead of queueing. Zero (the default)
	// disables admission control.
	// Example: clam.NewServer(lib, clam.WithMaxQueueDelay(50*time.Millisecond)).
	WithMaxQueueDelay = core.WithMaxQueueDelay
	// WithoutDeadlineShedding disables expired-budget shedding — the
	// ablation baseline for the overload goodput matrix (clambench
	// -overload). Cancelled calls are still shed: a cancelled call must
	// never run.
	// Example: clam.NewServer(lib, clam.WithoutDeadlineShedding()).
	WithoutDeadlineShedding = core.WithoutDeadlineShedding
)

// Dial options.
var (
	// WithDialFunc substitutes the connection dialer.
	// Example: clam.Dial("unix", path, clam.WithDialFunc(myDial)).
	WithDialFunc = core.WithDialFunc
	// WithoutClientBatching disables asynchronous call batching.
	// Example: clam.Dial("unix", path, clam.WithoutClientBatching()).
	WithoutClientBatching = core.WithoutClientBatching
	// WithMaxBatch sets the batch auto-flush threshold.
	// Example: clam.Dial("unix", path, clam.WithMaxBatch(64)).
	WithMaxBatch = core.WithMaxBatch
	// WithCallTimeout bounds synchronous call round trips; an expired
	// call fails with ErrCallTimeout. Per-call deadlines come from
	// Remote.CallCtx / Remote.CallIntoCtx.
	// Example: clam.Dial("unix", path, clam.WithCallTimeout(3*time.Second)).
	WithCallTimeout = core.WithCallTimeout
	// WithClientLog directs client diagnostics.
	// Example: clam.Dial("unix", path, clam.WithClientLog(log.Printf)).
	WithClientLog = core.WithClientLog
	// WithUpcallHandlers runs concurrent upcall-handler workers,
	// pairing with WithMaxClientUpcalls.
	// Example: clam.Dial("unix", path, clam.WithUpcallHandlers(4)).
	WithUpcallHandlers = core.WithUpcallHandlers
	// WithRetry re-sends calls to methods marked idempotent (see
	// Remote.MarkIdempotent) when they time out, with exponential
	// backoff; a zero-Attempts policy selects DefaultRetryPolicy.
	// Example: clam.Dial("unix", path, clam.WithRetry(clam.RetryPolicy{Attempts: 3, Backoff: 50 * time.Millisecond})).
	WithRetry = core.WithRetry
	// WithClientHeartbeat pings the server every interval and fails all
	// pending calls with ErrServerUnresponsive when nothing (pong or
	// traffic) arrives within the liveness window; zero interval (the
	// default) disables it.
	// Example: clam.Dial("unix", path, clam.WithClientHeartbeat(2*time.Second, 10*time.Second)).
	WithClientHeartbeat = core.WithClientHeartbeat
	// WithoutSharedMemory dials the socket directly even when the server
	// offers a same-host shm rendezvous — the transport ablation switch.
	// Example: clam.Dial("unix", path, clam.WithoutSharedMemory()).
	WithoutSharedMemory = core.WithoutSharedMemory
)

// WithoutTaskReuse disables the scheduler's task pool (the reuse
// ablation's baseline).
// Example: clam.NewSched(clam.WithoutTaskReuse()).
var WithoutTaskReuse = task.WithoutReuse
