package core

import (
	"errors"
	"fmt"
	"log"
	"math/rand/v2"
	"net"
	"reflect"
	"runtime"
	"sync"
	"time"

	"clam/internal/bundle"
	"clam/internal/dynload"
	"clam/internal/handle"
	"clam/internal/journal"
	"clam/internal/rpc"
	"clam/internal/ruc"
	"clam/internal/shm"
	"clam/internal/task"
	"clam/internal/wire"
)

// Server is a CLAM server: it accepts client connections, dynamically
// loads modules on request, dispatches remote procedure calls into loaded
// classes, and carries distributed upcalls back to clients. The server
// itself "contains no code specific to window management" or any other
// application — all application code arrives by loading classes (§2).
type Server struct {
	lib     *dynload.Library
	loader  *dynload.Loader
	handles *handle.Table
	reg     *bundle.Registry
	sched   *task.Sched
	rucs    *ruc.Table

	mu        sync.Mutex
	sessions  map[uint64]*session
	nextSess  uint64
	listeners []net.Listener
	named     map[string]any
	stubs     map[uint32]*rpc.ClassStubs // class id → compiled stubs
	peers     []*peerLink                // peer servers this server dialed (peerlink.go)
	closed    bool

	wg sync.WaitGroup // accept loops, connection readers, heartbeat loops

	upcallTimeout    time.Duration
	maxClientUpcalls int
	logf             func(format string, args ...any)

	// Robustness knobs: heartbeat cadence and liveness window (zero
	// disables heartbeats), the session-count ceiling, and how many
	// consecutive upcall failures mark a client a slow consumer.
	hbInterval        time.Duration
	hbWindow          time.Duration
	maxSessions       int
	slowConsumerLimit int

	// Session resurrection (WithResumeWindow): how long a session whose
	// link died is parked — handle table, RUC registrations and receive
	// window retained — awaiting a resume, before it is evicted. Zero
	// (the default) disables resurrection entirely.
	resumeWindow time.Duration

	// Upstream circuit breaker (WithUpstreamBreaker): after this many
	// consecutive failed reconnect attempts to an upstream, hold attempts
	// for the cooldown. Zero threshold disables the breaker.
	breakerThreshold int
	breakerCooldown  time.Duration

	// Overload shedding (§6.8). maxQueueDelay, when nonzero, arms the
	// admission layer: sole-call frames whose estimated queue wait exceeds
	// the ceiling — or would alone exhaust the call's budget — are refused
	// at the read loop with StatusDeadline. noShed is the ablation switch
	// (WithoutDeadlineShedding): it disables expired-budget shedding so
	// doomed work executes anyway, for goodput comparison. Cancellation
	// (MsgCancel) is never disabled — a cancelled call must not run.
	maxQueueDelay time.Duration
	noShed        bool

	// The dispatch executor (executor.go); serialDispatch selects its
	// serial ablation policy.
	dispatchWorkers int
	serialDispatch  bool
	exec            *executor

	// Multicast fan-out (fanout.go): declared topics and the sharded
	// subscription table behind Publish/RegisterMulticast.
	fanoutShards int
	fan          *fanoutState

	// Federated mesh membership (mesh.go): nil until JoinMesh. Guarded by
	// its own lock inside, not s.mu.
	mesh *meshState

	// Shared-memory transport (WithSharedMemory): when enabled, Listen on
	// a unix address also starts an shm rendezvous broker at
	// <addr>.shm, and same-host clients ride mmap'd rings instead of the
	// socket. shmRing is the per-direction ring size in bytes (0 =
	// shm.DefaultRing).
	shmEnabled bool
	shmRing    int

	// Write-ahead journal (WithJournal, journal.go): the durable record of
	// grants, mints, registrations and receive marks that lets parked
	// sessions survive a server crash. journalErr is a deferred open
	// failure surfaced by Serve/Listen; recoverOnce gates phase-2 replay.
	journalDir  string
	journal     *journal.Journal
	journalErr  error
	jstate      *journal.State
	recoverOnce sync.Once
	recov       journalRecovery

	metrics *metrics
}

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithUpcallTimeout bounds how long a distributed upcall waits for the
// client task to complete (default 30s).
func WithUpcallTimeout(d time.Duration) ServerOption {
	return func(s *Server) { s.upcallTimeout = d }
}

// WithMaxClientUpcalls raises the bound on concurrently active upcalls to
// one client. The default of 1 is the paper's design ("we allow only one
// upcall to be active per client process", §4.4); raising it implements
// the relaxation the paper anticipates for "future designs". Values < 1
// are treated as 1. Note that a client's upcall task handles upcalls
// sequentially regardless, so concurrency beyond 1 pays off when upcall
// handlers themselves block (e.g. on reentrant calls) or when clients
// enable concurrent handling.
func WithMaxClientUpcalls(n int) ServerOption {
	return func(s *Server) {
		if n < 1 {
			n = 1
		}
		s.maxClientUpcalls = n
	}
}

// WithServerLog directs server diagnostics; default log.Printf.
func WithServerLog(f func(string, ...any)) ServerOption {
	return func(s *Server) { s.logf = f }
}

// WithScheduler substitutes the task scheduler, e.g. one built with
// task.WithoutReuse for the reuse ablation.
func WithScheduler(sched *task.Sched) ServerOption {
	return func(s *Server) { s.sched = sched }
}

// WithFanoutShards sets how many independently locked shards the
// multicast subscription table uses (default ruc.DefaultShards, rounded
// up to a power of two). Raise it when profiles show subscribe/
// unsubscribe churn contending with publish snapshots; shard count does
// not affect delivery throughput, only registration concurrency.
func WithFanoutShards(n int) ServerOption {
	return func(s *Server) { s.fanoutShards = n }
}

// WithHeartbeat enables liveness checking on both per-client streams: the
// server pings every interval and evicts a session once no traffic has
// arrived on one of its channels for the given window. The eviction
// cancels any server task parked on an upcall to that client (counted as
// an upcall failure) and sends the client a final FaultReport notice.
// window values below interval are raised to 3×interval. A zero interval
// (the default) disables heartbeats, preserving the paper's
// cooperative-client trust model.
func WithHeartbeat(interval, window time.Duration) ServerOption {
	return func(s *Server) {
		if interval <= 0 {
			s.hbInterval, s.hbWindow = 0, 0
			return
		}
		if window < interval {
			window = 3 * interval
		}
		s.hbInterval, s.hbWindow = interval, window
	}
}

// WithMaxSessions caps concurrently connected clients; further connection
// attempts are refused at the handshake (counted in
// MetricsSnapshot.RejectedSessions). Zero, the default, means unlimited.
func WithMaxSessions(n int) ServerOption {
	return func(s *Server) {
		if n < 0 {
			n = 0
		}
		s.maxSessions = n
	}
}

// WithSlowConsumerLimit evicts a client after n consecutive failed
// distributed upcalls (timeouts or transport errors) — the graceful-
// degradation guard against a client whose upcall task has wedged while
// its connections stay up. Zero, the default, disables the guard.
func WithSlowConsumerLimit(n int) ServerOption {
	return func(s *Server) {
		if n < 0 {
			n = 0
		}
		s.slowConsumerLimit = n
	}
}

// WithResumeWindow enables session resurrection: when a client's link
// dies, its session is parked — exported handles, RUC procedure
// registrations and the receive-sequence window retained — for d, during
// which the client may reconnect and present the resume token granted at
// hello. A resumed session replays unacknowledged batched calls; the
// receive window suppresses duplicates, preserving at-most-once execution
// (DESIGN.md §6.3). Zero (the default) keeps the immediate-eviction
// behavior.
func WithResumeWindow(d time.Duration) ServerOption {
	return func(s *Server) {
		if d < 0 {
			d = 0
		}
		s.resumeWindow = d
	}
}

// WithUpstreamBreaker arms a circuit breaker on every upstream link this
// server dials (DialUpstream/AttachUpstream): after threshold consecutive
// failed reconnect attempts, further attempts are held for cooldown, and
// forwarded calls fail fast while the circuit is open — so a flapping
// lower server cannot melt the dispatcher with reconnect storms. A
// cooldown <= 0 defaults to 5s; threshold <= 0 disables the breaker.
func WithUpstreamBreaker(threshold int, cooldown time.Duration) ServerOption {
	return func(s *Server) {
		if threshold < 0 {
			threshold = 0
		}
		if cooldown <= 0 {
			cooldown = 5 * time.Second
		}
		s.breakerThreshold = threshold
		s.breakerCooldown = cooldown
	}
}

// WithMaxQueueDelay arms the admission layer (§6.8): when the dispatch
// queue's estimated wait exceeds d — or, for a budgeted call, when the
// wait alone would exhaust the call's remaining budget — synchronous
// sole-call frames are refused at the read loop with a StatusDeadline
// reply, before they ever occupy a dispatch lane. Under WithRetry the
// client sees ErrDeadlineExceeded, which is retryable for idempotent
// calls — admission control composes with retry and the breaker rather
// than fighting them. Zero (the default) disables admission control.
func WithMaxQueueDelay(d time.Duration) ServerOption {
	return func(s *Server) {
		if d < 0 {
			d = 0
		}
		s.maxQueueDelay = d
	}
}

// WithoutDeadlineShedding disables expired-budget shedding — doomed calls
// execute anyway and their replies are discarded by a caller that already
// gave up. This is the ablation baseline for the overload goodput matrix
// (clambench -overload); production servers should not use it. Explicit
// cancellation (MsgCancel) still sheds: a cancelled call must never run
// regardless of ablation.
func WithoutDeadlineShedding() ServerOption {
	return func(s *Server) { s.noShed = true }
}

// shedExpired reports whether expired-budget shedding is active.
func (s *Server) shedExpired() bool { return !s.noShed }

// WithDispatchWorkers bounds the per-object executor's worker pool: at
// most n handlers run simultaneously (blocked handlers — distributed
// upcalls, forwarded calls — release their slot and do not count). The
// default is max(2, GOMAXPROCS). Values < 1 are treated as 1; note that
// one worker still differs from the serial ablation — calls on distinct
// objects may still run out of arrival order. The serial ablation fixes
// the pool at one worker and ignores this option.
func WithDispatchWorkers(n int) ServerOption {
	return func(s *Server) {
		if n < 1 {
			n = 1
		}
		s.dispatchWorkers = n
	}
}

// WithPerObjectDispatch selects the executor's ordering policy. On (the
// default), incoming calls are serialized per target object and run
// concurrently across objects on a bounded worker pool (executor.go). Off
// is the serial ablation, the paper's one-dispatcher-per-session
// discipline: each session's calls run in arrival order, on a pool of one
// worker, so one handler runs at a time; a handler that blocks for the
// wire (or in task.Wait) hands the slot on and takes it back afterwards.
func WithPerObjectDispatch(on bool) ServerOption {
	return func(s *Server) { s.serialDispatch = !on }
}

// WithSharedMemory offers the same-host shared-memory transport: every
// Listen on a unix address also starts an shm rendezvous broker at
// <addr>.shm, and clients dialing that address ride a pair of mmap'd
// rings (internal/shm) instead of the socket, with the socket kept as the
// transparent fallback. ringBytes is the per-direction ring size; 0
// selects shm.DefaultRing (1 MiB), other values are clamped and rounded
// up to a power of two. No-op on platforms without the transport.
func WithSharedMemory(ringBytes int) ServerOption {
	return func(s *Server) {
		s.shmEnabled = shm.Supported()
		s.shmRing = ringBytes
	}
}

// NewServer returns a server drawing loadable classes from lib.
func NewServer(lib *dynload.Library, opts ...ServerOption) *Server {
	s := &Server{
		lib:              lib,
		handles:          handle.NewTable(),
		reg:              bundle.NewRegistry(),
		sessions:         make(map[uint64]*session),
		named:            make(map[string]any),
		stubs:            make(map[uint32]*rpc.ClassStubs),
		upcallTimeout:    30 * time.Second,
		maxClientUpcalls: 1,
		logf:             log.Printf,
		metrics:          newMetrics(),
	}
	s.loader = dynload.NewLoader(lib)
	s.rucs = ruc.NewTable(func(e *ruc.Entry, err error) {
		s.logf("clam: upcall through RUC %d failed: %v", e.ID, err)
	})
	for _, o := range opts {
		o(s)
	}
	s.fan = newFanoutState(s, s.fanoutShards)
	// Every server speaks multicast: the fanout class is how remote
	// clients subscribe, so it rides along in the library unless the
	// application registered its own version.
	if err := RegisterFanoutClass(lib); err != nil && !errors.Is(err, dynload.ErrDuplicate) {
		s.logf("clam: registering fanout class: %v", err)
	}
	// Likewise the mesh class: peers announce themselves, read the roster
	// and route named-object creation through it (mesh.go).
	if err := RegisterMeshClass(lib); err != nil && !errors.Is(err, dynload.ErrDuplicate) {
		s.logf("clam: registering mesh class: %v", err)
	}
	if s.sched == nil {
		s.sched = task.New()
	}
	switch {
	case s.serialDispatch:
		s.dispatchWorkers = 1
	case s.dispatchWorkers == 0:
		s.dispatchWorkers = max(2, runtime.GOMAXPROCS(0))
	}
	s.exec = newExecutor(s, s.dispatchWorkers, s.serialDispatch)
	s.openJournal()
	return s
}

// Registry exposes the server's bundler registry so applications can
// register custom (typedef-style and named) bundlers, as in Figure 3.1.
func (s *Server) Registry() *bundle.Registry { return s.reg }

// Loader exposes dynamic loading for server-side bootstrap (built-in
// classes loaded before any client connects).
func (s *Server) Loader() *dynload.Loader { return s.loader }

// Handles exposes the server's handle table (primarily for tests and
// diagnostics).
func (s *Server) Handles() *handle.Table { return s.handles }

// Sched exposes the task scheduler, for modules that start their own
// asynchronous activities (§4.3's input tasks).
func (s *Server) Sched() *task.Sched { return s.sched }

// Rucs exposes the remote-upcall table for diagnostics.
func (s *Server) Rucs() *ruc.Table { return s.rucs }

// Load loads a class server-side (bootstrap use; clients load via the
// wire protocol) and compiles its method stubs.
func (s *Server) Load(name string, minVersion uint32) (*dynload.Loaded, error) {
	loaded, err := s.loader.Load(name, minVersion)
	if err != nil {
		return nil, err
	}
	if err := s.ensureStubs(loaded); err != nil {
		return nil, err
	}
	return loaded, nil
}

func (s *Server) ensureStubs(loaded *dynload.Loaded) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.stubs[loaded.ID]; ok {
		return nil
	}
	cs, err := rpc.CompileClass(s.reg, loaded.Type, loaded.Specs)
	if err != nil {
		return fmt.Errorf("clam: compiling stubs for %s v%d: %w", loaded.Name, loaded.Version, err)
	}
	s.stubs[loaded.ID] = cs
	return nil
}

// LoadExact loads a specific class version server-side and compiles its
// stubs.
func (s *Server) LoadExact(name string, version uint32) (*dynload.Loaded, error) {
	loaded, err := s.loader.LoadExact(name, version)
	if err != nil {
		return nil, err
	}
	if err := s.ensureStubs(loaded); err != nil {
		return nil, err
	}
	return loaded, nil
}

func (s *Server) stubsFor(classID uint32) (*rpc.ClassStubs, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cs, ok := s.stubs[classID]
	return cs, ok
}

// CreateInstance loads (if needed) and instantiates a class server-side,
// registering the instance in the handle table. Used at bootstrap, e.g.
// to create the screen and base window instances before clients arrive
// (§4.2: "When the server begins execution, it creates an instance, S, of
// the screen class and an instance, BaseW, of the window class").
func (s *Server) CreateInstance(name string, minVersion uint32, env any) (any, handle.Handle, error) {
	loaded, err := s.Load(name, minVersion)
	if err != nil {
		return nil, handle.Nil, err
	}
	return s.instantiate(loaded, env)
}

// CreateInstanceExact is CreateInstance pinned to one class version.
func (s *Server) CreateInstanceExact(name string, version uint32, env any) (any, handle.Handle, error) {
	loaded, err := s.LoadExact(name, version)
	if err != nil {
		return nil, handle.Nil, err
	}
	return s.instantiate(loaded, env)
}

func (s *Server) instantiate(loaded *dynload.Loaded, env any) (any, handle.Handle, error) {
	if env == nil {
		env = &Env{Server: s}
	}
	var obj any
	gerr := dynload.Guard(func() error {
		var nerr error
		obj, nerr = loaded.New(env)
		return nerr
	})
	if gerr != nil {
		return nil, handle.Nil, fmt.Errorf("clam: constructing %s: %w", loaded.Name, gerr)
	}
	if reflect.TypeOf(obj) != loaded.Type {
		return nil, handle.Nil, fmt.Errorf("clam: %s constructor returned %T, want %s", loaded.Name, obj, loaded.Type)
	}
	var sessID uint64
	if e, ok := env.(*Env); ok {
		sessID = e.SessionID
	}
	h, err := s.putHandle(obj, loaded, sessID)
	if err != nil {
		return nil, handle.Nil, err
	}
	return obj, h, nil
}

// SetNamed publishes obj under a well-known name so clients (and other
// modules) can find base instances such as the screen. If obj already has
// a handle, the name binding is journaled so recovery re-binds the
// journaled capability to the re-registered object of the same name.
func (s *Server) SetNamed(name string, obj any) {
	s.mu.Lock()
	s.named[name] = obj
	s.mu.Unlock()
	if s.journal != nil {
		if h, ok := s.handles.Lookup(obj); ok {
			if err := s.journal.BindName(name, uint64(h.ID)); err != nil && !errors.Is(err, journal.ErrClosed) {
				s.logf("clam: journal: recording name %q for %v: %v", name, h, err)
			}
		}
	}
}

// Named retrieves a published instance.
func (s *Server) Named(name string) (any, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	obj, ok := s.named[name]
	return obj, ok
}

// Env is what a dynamically loaded class constructor receives: access to
// the server's facilities and to other loaded modules' instances, the
// analogue of the loaded module's links into the server image.
type Env struct {
	// Server is the hosting server.
	Server *Server
	// SessionID identifies the loading client's session; zero for
	// server-side bootstrap loads.
	SessionID uint64
}

// Named finds a published instance by name.
func (e *Env) Named(name string) (any, bool) {
	return e.Server.Named(name)
}

// Sched exposes the server's task scheduler to loaded modules, so classes
// that turn device input into tasks (§4.3) can reach it without importing
// server internals.
func (e *Env) Sched() *task.Sched {
	return e.Server.Sched()
}

// Serve accepts CLAM connections on ln until the server closes. It
// returns after the listener fails or Close is called.
func (s *Server) Serve(ln net.Listener) error {
	if s.journalErr != nil {
		return s.journalErr
	}
	s.ensureRecovered()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("clam: server closed")
	}
	s.listeners = append(s.listeners, ln)
	s.mu.Unlock()

	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("clam: accept: %w", err)
		}
		if s.shmEnabled {
			// Transport accounting: ring sessions vs. socket fallbacks
			// while shm is on offer.
			if conn.RemoteAddr().Network() == "shm" {
				s.metrics.shmConns.Add(1)
			} else {
				s.metrics.shmFallbacks.Add(1)
			}
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handleConn(wire.NewConn(conn))
		}()
	}
}

// Listen starts serving on the given network and address in a background
// goroutine and returns the bound listener.
func (s *Server) Listen(network, addr string) (net.Listener, error) {
	if s.journalErr != nil {
		return nil, s.journalErr
	}
	ln, err := net.Listen(network, addr)
	if err != nil {
		return nil, fmt.Errorf("clam: listen %s %s: %w", network, addr, err)
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		if err := s.Serve(ln); err != nil {
			s.logf("clam: serve: %v", err)
		}
	}()
	// With shared memory enabled, a unix listener gets a rendezvous broker
	// sibling: ring connections arrive through it and feed the ordinary
	// serve loop (the framing and session protocol are transport-blind).
	// Broker failure degrades to sockets-only rather than failing Listen.
	if s.shmEnabled && network == "unix" {
		bln, err := shm.Listen(shm.BrokerPath(addr), s.shmRing)
		if err != nil {
			s.logf("clam: shm broker unavailable, sockets only: %v", err)
		} else {
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				if err := s.Serve(bln); err != nil {
					s.logf("clam: shm serve: %v", err)
				}
			}()
		}
	}
	return ln, nil
}

// handleConn performs the hello handshake and runs the connection's read
// loop according to its declared role.
func (s *Server) handleConn(c *wire.Conn) {
	msg, err := c.Recv()
	if err != nil {
		msg.Release()
		c.Close()
		return
	}
	if msg.Type == wire.MsgResume {
		s.handleResume(c, msg)
		return
	}
	if msg.Type != wire.MsgHello {
		msg.Release()
		c.Close()
		return
	}
	var hello helloBody
	sc := rpc.GetScratch()
	herr := hello.bundle(sc.Decoder(msg.Body))
	sc.Release()
	seq := msg.Seq
	msg.Release()
	if herr != nil {
		c.Close()
		return
	}

	switch hello.Role {
	case roleRPC:
		sess := s.newSession(c)
		if sess == nil {
			c.Close()
			return
		}
		// The resume token must be durable before the reply hands it to the
		// client: a token the client holds but a restarted server has never
		// heard of would make resurrection a liar.
		s.journalGrant(sess)
		if err := s.sendHelloReply(c, seq, sess); err != nil {
			s.dropSession(sess)
			return
		}
		sess.startHeartbeat()
		s.runSessionRPC(sess, c)
	case roleUpcall:
		s.mu.Lock()
		sess := s.sessions[hello.Session]
		s.mu.Unlock()
		if sess == nil {
			c.Close()
			return
		}
		if !sess.attachUpcallConn(c) {
			c.Close()
			return
		}
		if err := s.sendHelloReply(c, seq, sess); err != nil {
			return
		}
		sess.upcallReadLoop(c)
		// The upcall channel is gone; any server task parked on an upcall
		// to this client would otherwise wait out the full upcall timeout.
		sess.upcallConnLost()
	default:
		c.Close()
	}
}

// runSessionRPC reads the session's RPC channel until it dies, then parks
// the session for resurrection when eligible, or drops it (the legacy and
// ablation path) when not.
func (s *Server) runSessionRPC(sess *session, c *wire.Conn) {
	sess.rpcReadLoop(c)
	if sess.park() {
		return
	}
	s.dropSession(sess)
}

// handleResume answers a MsgResume opening frame: re-pair the connection
// with the parked session the token names, then serve it like a freshly
// attached channel of the right role.
func (s *Server) handleResume(c *wire.Conn, msg *wire.Msg) {
	var req resumeBody
	sc := rpc.GetScratch()
	rerr := req.bundle(sc.Decoder(msg.Body))
	sc.Release()
	seq := msg.Seq
	msg.Release()
	if rerr != nil {
		c.Close()
		return
	}
	refuse := func(retry bool, why string) {
		s.sendResumeReply(c, seq, &resumeReplyBody{Retry: retry, ErrMsg: why})
		c.Close()
	}
	s.mu.Lock()
	sess := s.sessions[req.Session]
	s.mu.Unlock()
	if sess == nil || sess.token == 0 || sess.token != req.Token {
		refuse(false, "clam: unknown session or bad resume token")
		return
	}
	switch req.Role {
	case roleRPC:
		epoch, recvSeq, retry, err := sess.resumeRPC(c, req.Epoch)
		if err != nil {
			refuse(retry, err.Error())
			return
		}
		s.metrics.countResume()
		// The bumped fence must be durable before the reply: were the server
		// to crash after replying but journal the old epoch, a restart would
		// admit a link the fence already retired.
		s.journalEpoch(sess, epoch)
		s.logf("clam: session %d: resumed (epoch %d)", sess.id, epoch)
		// Send failure is not fatal here: a dead fresh link re-parks via
		// the read loop below.
		s.sendResumeReply(c, seq, &resumeReplyBody{OK: true, Epoch: epoch, RecvSeq: recvSeq})
		s.runSessionRPC(sess, c)
	case roleUpcall:
		if err := sess.resumeUpcall(c, req.Epoch); err != nil {
			refuse(true, err.Error())
			return
		}
		if err := s.sendResumeReply(c, seq, &resumeReplyBody{OK: true, Epoch: req.Epoch}); err != nil {
			return
		}
		// The upcall channel is back: restart any fan-out drains that
		// stood down while the session was parked.
		s.fan.resumeCaller(sess)
		sess.upcallReadLoop(c)
		sess.upcallConnLost()
	default:
		c.Close()
	}
}

func (s *Server) sendHelloReply(c *wire.Conn, seq uint64, sess *session) error {
	sc := rpc.GetScratch()
	defer sc.Release()
	reply := helloReplyBody{
		Session:     sess.id,
		Token:       sess.token,
		WindowNanos: int64(s.resumeWindow),
	}
	if err := reply.bundle(sc.Encoder()); err != nil {
		return err
	}
	return c.Send(&wire.Msg{Type: wire.MsgHelloReply, Seq: seq, Body: sc.Bytes()})
}

func (s *Server) sendResumeReply(c *wire.Conn, seq uint64, reply *resumeReplyBody) error {
	sc := rpc.GetScratch()
	defer sc.Release()
	if err := reply.bundle(sc.Encoder()); err != nil {
		return err
	}
	return c.Send(&wire.Msg{Type: wire.MsgResumeReply, Seq: seq, Body: sc.Bytes()})
}

// mintToken generates a nonzero resume token. Tokens are bearer secrets
// within the transport's trust domain, not cryptographic credentials —
// the same trust model as the rest of the protocol.
func mintToken() uint64 {
	for {
		if t := rand.Uint64(); t != 0 {
			return t
		}
	}
}

func (s *Server) newSession(c *wire.Conn) *session {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	if s.maxSessions > 0 && len(s.sessions) >= s.maxSessions {
		s.metrics.countRejected()
		s.logf("clam: refusing session: at max-sessions limit %d", s.maxSessions)
		return nil
	}
	s.nextSess++
	sess := newSession(s, s.nextSess, c)
	s.sessions[sess.id] = sess
	return sess
}

func (s *Server) dropSession(sess *session) {
	s.mu.Lock()
	delete(s.sessions, sess.id)
	s.mu.Unlock()
	sess.close()
	s.rucs.DropCaller(sess)
	// Forwarded procedure pointers are bound under the session's relay
	// identity (forward.go); drop those too so a departed client cannot
	// receive relayed upcalls.
	s.rucs.DropCaller(sess.relay)
	// Multicast subscriptions die with the session the same way its RUC
	// registrations do; parked sessions never reach here, so theirs
	// survive resurrection.
	s.fan.dropCaller(sess)
	// The end is definitive (eviction, expiry or goodbye — never a mere
	// park), so recovery must not resurrect this session.
	s.journalEndSession(sess)
}

// sessionByID returns the live (or parked) session with the given id.
func (s *Server) sessionByID(id uint64) *session {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessions[id]
}

// SessionCount reports the number of connected clients.
func (s *Server) SessionCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// Close shuts the server down: listeners stop, sessions close, the
// scheduler drains.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	lns := s.listeners
	s.listeners = nil
	var sessions []*session
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.sessions = make(map[uint64]*session)
	links := s.peers
	s.peers = nil
	s.mu.Unlock()

	for _, ln := range lns {
		ln.Close()
	}
	for _, sess := range sessions {
		sess.close()
	}
	for _, pl := range links {
		pl.c.Close()
	}
	// Retire fan-out queues and release any Block-policy publishers
	// before draining the pool, or a blocked Publish could hold a worker.
	s.fan.close()
	// Sessions and upstreams are down, so workers blocked in upcall waits
	// or forwarded calls have been cancelled; now the pool can drain.
	s.exec.close()
	s.wg.Wait()
	err := s.sched.Close()
	// Last: a final group commit flushes coalesced receive marks, so a
	// clean shutdown recovers with marks current, not one commit behind.
	if s.journal != nil {
		if jerr := s.journal.Close(); jerr != nil && err == nil {
			err = jerr
		}
	}
	return err
}

// bytesBuf is a minimal write buffer avoiding the bytes import dance in
// hot paths.
type bytesBuf struct{ b []byte }

func (w *bytesBuf) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// byteReader adapts a byte slice for the xdr decoder.
func byteReader(b []byte) *sliceReader { return &sliceReader{b: b} }

type sliceReader struct {
	b []byte
	i int
}

func (r *sliceReader) Read(p []byte) (int, error) {
	if r.i >= len(r.b) {
		return 0, errEOB
	}
	n := copy(p, r.b[r.i:])
	r.i += n
	return n, nil
}

var errEOB = errors.New("clam: message body exhausted")
