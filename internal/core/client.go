package core

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math/rand/v2"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"clam/internal/bundle"
	"clam/internal/handle"
	"clam/internal/rpc"
	"clam/internal/shm"
	"clam/internal/task"
	"clam/internal/wire"
	"clam/internal/xdr"
)

// Client is a CLAM client process: the downward-facing role wrapper over
// the shared endpoint engine. It holds the two per-client channels of
// §4.4 and runs the paper's two client tasks: the application flow (the
// caller's goroutines, which block during RPC requests) and the upcall
// task (a dedicated receive loop that is "initially blocked, and is
// unblocked on receipt of an upcall. After handling the event, any return
// value is sent back to the server, and then the task is blocked again").
// Everything channel-shaped — seq allocation, reply waits, batching,
// heartbeats, teardown — lives in the embedded endpoint; the client adds
// only what is role-specific: the call/load protocol, the upcall handler
// registry, and fault-report delivery.
type Client struct {
	endpoint

	sessionID uint64
	retry     RetryPolicy

	// Session-resurrection identity, granted by the server's hello reply
	// when it runs with WithResumeWindow. A zero token means the session
	// dies with its link (the pre-resurrection behavior). network/addr/
	// dialFn reproduce the original dial on reconnect; epoch advances on
	// each successful resume (only the resurrect goroutine writes it).
	network, addr string
	dialFn        func(network, addr string) (net.Conn, error)
	resumeToken   uint64
	resumeWindow  time.Duration
	epoch         uint32
	resuming      atomic.Bool

	// Reconnect hooks let an owner gate and observe resume attempts —
	// the forwarding layer wires its circuit breaker here.
	reconnMu       sync.Mutex
	reconnAllow    func() bool
	reconnOnResult func(ok bool)

	procMu   sync.Mutex
	procs    map[uint64]reflect.Value
	nextProc uint64

	// bctx is the client's bundling context, built once: the hooks are
	// just typed views of c and Ctx carries no per-call state, so every
	// encode/decode shares this instance instead of allocating one.
	bctx bundle.Ctx

	// fanRemote caches this client's fanout-class instance (fanout.go);
	// one per client so its handle tag anchors the subscription shard.
	fanMu     sync.Mutex
	fanRemote *Remote

	// upWork, when non-nil, fans upcalls out to concurrent handler
	// workers (the relaxation of the one-upcall-task model).
	upWork chan *wire.Msg

	faultMu sync.Mutex
	onFault func(FaultReport)

	wg sync.WaitGroup
}

// DialOption configures a client.
type DialOption func(*dialCfg)

type dialCfg struct {
	dial          func(network, addr string) (net.Conn, error)
	customDial    bool
	noShm         bool
	batching      bool
	maxBatch      int
	callTimeout   time.Duration
	retry         RetryPolicy
	hbInterval    time.Duration
	hbWindow      time.Duration
	upcallWorkers int
	logf          func(string, ...any)
}

// RetryPolicy configures client-side retry of idempotent-marked calls that
// time out. Attempts counts every try including the first; Backoff is the
// delay before the first retry, doubling each further retry up to
// MaxBackoff; Jitter (0..1) randomizes each delay by ±that fraction so a
// fleet of clients does not retry in lockstep.
type RetryPolicy struct {
	Attempts   int
	Backoff    time.Duration
	MaxBackoff time.Duration
	Jitter     float64
}

// DefaultRetryPolicy is the policy WithRetry applies when given a zero
// Attempts count: three tries, 50ms initial backoff, 1s cap, 20% jitter.
var DefaultRetryPolicy = RetryPolicy{
	Attempts:   3,
	Backoff:    50 * time.Millisecond,
	MaxBackoff: time.Second,
	Jitter:     0.2,
}

// delay returns the backoff before retry attempt a (a=1 is the first
// retry), with jitter applied.
func (p RetryPolicy) delay(a int) time.Duration {
	d := p.Backoff
	for i := 1; i < a; i++ {
		d *= 2
		if p.MaxBackoff > 0 && d >= p.MaxBackoff {
			d = p.MaxBackoff
			break
		}
	}
	if p.MaxBackoff > 0 && d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	if p.Jitter > 0 {
		f := 1 + p.Jitter*(2*rand.Float64()-1)
		d = time.Duration(float64(d) * f)
	}
	if d < 0 {
		d = 0
	}
	return d
}

// WithDialFunc substitutes the connection dialer — how the benchmarks
// insert wire.SimLink to emulate a wide-area hop.
func WithDialFunc(f func(network, addr string) (net.Conn, error)) DialOption {
	return func(c *dialCfg) { c.dial = f; c.customDial = true }
}

// WithoutSharedMemory disables the shared-memory fast path: the dial goes
// straight to the socket even when the server offers an shm rendezvous on
// the same host. Useful as an ablation and when the segment's /dev/shm
// usage is unwanted.
func WithoutSharedMemory() DialOption {
	return func(c *dialCfg) { c.noShm = true }
}

// WithoutClientBatching disables asynchronous call batching: every Async
// call is flushed immediately, one message per call. This is the baseline
// for the batching ablation (A-1).
func WithoutClientBatching() DialOption {
	return func(c *dialCfg) { c.batching = false }
}

// WithMaxBatch sets the auto-flush threshold for batched calls.
func WithMaxBatch(n int) DialOption {
	return func(c *dialCfg) {
		if n > 0 {
			c.maxBatch = n
		}
	}
}

// WithCallTimeout bounds each synchronous call round trip. A call that
// sees no reply within d fails with an error wrapping ErrCallTimeout
// (and, if marked idempotent under a WithRetry policy, is retried).
// Zero disables the per-call deadline.
func WithCallTimeout(d time.Duration) DialOption {
	return func(c *dialCfg) { c.callTimeout = d }
}

// WithRetry enables automatic retry of timed-out synchronous calls on
// methods the application marked idempotent (Remote.MarkIdempotent). Only
// timeouts are retried: an application error or dispatch error means the
// server heard the call, and a transport write failure means the
// connection is gone. A zero-Attempts policy selects DefaultRetryPolicy.
func WithRetry(p RetryPolicy) DialOption {
	return func(c *dialCfg) {
		if p.Attempts <= 0 {
			p = DefaultRetryPolicy
		}
		if p.Backoff <= 0 {
			p.Backoff = DefaultRetryPolicy.Backoff
		}
		c.retry = p
	}
}

// WithClientHeartbeat makes the client ping the server on both channels
// every interval and declare the server unresponsive — failing all pending
// and future calls with ErrServerUnresponsive — when no traffic arrives
// within the window. window values below interval are raised to
// 3×interval. Zero interval (the default) disables client heartbeats.
func WithClientHeartbeat(interval, window time.Duration) DialOption {
	return func(c *dialCfg) {
		if interval <= 0 {
			c.hbInterval, c.hbWindow = 0, 0
			return
		}
		if window < interval {
			window = 3 * interval
		}
		c.hbInterval, c.hbWindow = interval, window
	}
}

// WithClientLog directs client diagnostics.
func WithClientLog(f func(string, ...any)) DialOption {
	return func(c *dialCfg) { c.logf = f }
}

// WithUpcallHandlers runs n concurrent upcall-handler workers instead of
// the paper's single upcall task, pairing with the server-side
// WithMaxClientUpcalls relaxation. With n <= 1 the client keeps the
// paper's model: one task that handles an upcall, replies, and blocks
// again (§4.4).
func WithUpcallHandlers(n int) DialOption {
	return func(c *dialCfg) {
		if n > 1 {
			c.upcallWorkers = n
		}
	}
}

// Dial connects to a CLAM server, establishing the RPC channel and the
// upcall channel.
func Dial(network, addr string, opts ...DialOption) (*Client, error) {
	cfg := dialCfg{
		dial:        func(n, a string) (net.Conn, error) { return net.Dial(n, a) },
		batching:    true,
		maxBatch:    64,
		callTimeout: 30 * time.Second,
		logf:        log.Printf,
	}
	for _, o := range opts {
		o(&cfg)
	}

	// Same-host fast path: when dialing a unix address with the stock
	// dialer, try the server's shm rendezvous first and fall back to the
	// socket if there is no broker. The wrapper becomes the client's
	// dialFn, so session resume re-rendezvouses the same way — a ring
	// session that loses its link resumes onto a fresh ring (or onto a
	// socket, if the restarted server no longer offers shm).
	if network == "unix" && !cfg.noShm && !cfg.customDial && shm.Supported() {
		socketDial := cfg.dial
		cfg.dial = func(n, a string) (net.Conn, error) {
			if n == "unix" {
				if c, err := shm.Dial(shm.BrokerPath(a)); err == nil {
					return c, nil
				}
			}
			return socketDial(n, a)
		}
	}

	rpcRaw, err := cfg.dial(network, addr)
	if err != nil {
		return nil, fmt.Errorf("clam: dialing rpc channel: %w", err)
	}
	rpcConn := wire.NewConn(rpcRaw)
	hr, err := helloExchange(rpcConn, roleRPC, 0)
	if err != nil {
		rpcConn.Close()
		return nil, err
	}
	sessionID := hr.Session

	upRaw, err := cfg.dial(network, addr)
	if err != nil {
		rpcConn.Close()
		return nil, fmt.Errorf("clam: dialing upcall channel: %w", err)
	}
	upConn := wire.NewConn(upRaw)
	if _, err := helloExchange(upConn, roleUpcall, sessionID); err != nil {
		rpcConn.Close()
		upConn.Close()
		return nil, err
	}

	c := &Client{
		sessionID:    sessionID,
		retry:        cfg.retry,
		network:      network,
		addr:         addr,
		dialFn:       cfg.dial,
		resumeToken:  hr.Token,
		resumeWindow: time.Duration(hr.WindowNanos),
		procs:        make(map[uint64]reflect.Value),
	}
	c.bctx = bundle.Ctx{
		Objects: (*clientObjectHook)(c),
		Procs:   (*clientProcHook)(c),
	}
	e := &c.endpoint
	e.setRPCConn(rpcConn)
	e.numbered = hr.Token != 0 && hr.WindowNanos > 0
	e.reg = bundle.NewRegistry()
	e.mkCtx = c.ctx
	e.batching = cfg.batching
	e.maxBatch = cfg.maxBatch
	e.callTimeout = cfg.callTimeout
	e.hbInterval = cfg.hbInterval
	e.hbWindow = cfg.hbWindow
	e.link = &linkCounters{}
	e.closedCh = make(chan struct{})
	e.logf = cfg.logf
	e.lastRPC.Store(time.Now().UnixNano())
	e.attachUpcall(upConn) // stamps lastUp

	if cfg.upcallWorkers > 1 {
		c.upWork = make(chan *wire.Msg)
		for i := 0; i < cfg.upcallWorkers; i++ {
			c.wg.Add(1)
			go func() {
				defer c.wg.Done()
				// Workers outlive any one connection (a resumed session
				// keeps its workers), so they stop on client close, not on
				// channel close.
				for {
					select {
					case msg := <-c.upWork:
						c.handleUpcall(msg)
					case <-c.closedCh:
						return
					}
				}
			}()
		}
	}
	c.wg.Add(2)
	go func() {
		defer c.wg.Done()
		c.rpcReadLoop(rpcConn)
	}()
	go func() {
		defer c.wg.Done()
		c.upcallReadLoop(upConn)
	}()
	if e.hbInterval > 0 {
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			e.heartbeatLoop(func(reason string) {
				e.hbLost.Store(true)
				e.logf("clam: client: server unresponsive (%s) for > %v; closing", reason, e.hbWindow)
				e.shutdown(false)
			})
		}()
	}
	return c, nil
}

// SessionID identifies this client on the server.
func (c *Client) SessionID() uint64 { return c.sessionID }

// SessionStats reports the total frames sent and received across both of
// the client's channels — a direct measure of how much traffic crossed
// the address-space boundary.
func (c *Client) SessionStats() (sent, received uint64) {
	s1, r1 := c.rpcConn().Stats()
	s2, r2 := c.upcallConn().Stats()
	return s1 + s2, r1 + r2
}

// ClientMetricsSnapshot is a point-in-time copy of the client's
// robustness counters, the peer of the server's MetricsSnapshot — both
// embed the same LinkStats, because both sides run the same endpoint
// engine.
type ClientMetricsSnapshot struct {
	LinkStats
	// Resilience counts session-resurrection events on this client's
	// link: reconnects completed, calls replayed after them, and (always
	// zero here — dedup happens on the receiving side) duplicate drops.
	Resilience ResilienceStats
	// ServerUnresponsive reports whether the heartbeat declared the
	// server dead and tore the connection down.
	ServerUnresponsive bool
	// CancelsSent counts call seqs this client shipped in MsgCancel
	// frames: abandoned calls announced live plus cancels re-announced
	// during a resume — the sending side of CancelsPropagated.
	CancelsSent uint64
}

// Metrics snapshots the client's robustness counters.
func (c *Client) Metrics() ClientMetricsSnapshot {
	snap := ClientMetricsSnapshot{
		LinkStats:          c.link.snapshot(),
		ServerUnresponsive: c.hbLost.Load(),
		CancelsSent:        c.link.cancels.Load(),
	}
	snap.Resilience.foldLink(c.link, nil)
	return snap
}

// setReconnectHooks installs the gate and observer for resume attempts.
// allow is consulted before each attempt; onResult reports each attempt's
// outcome. The forwarding layer uses these to drive its circuit breaker.
func (c *Client) setReconnectHooks(allow func() bool, onResult func(ok bool)) {
	c.reconnMu.Lock()
	c.reconnAllow = allow
	c.reconnOnResult = onResult
	c.reconnMu.Unlock()
}

func (c *Client) reconnectHooks() (func() bool, func(bool)) {
	c.reconnMu.Lock()
	defer c.reconnMu.Unlock()
	return c.reconnAllow, c.reconnOnResult
}

// Registry exposes the client's bundler registry for custom bundlers.
func (c *Client) Registry() *bundle.Registry { return c.reg }

// OnFault installs the handler for server fault reports (§4.3). The
// handler runs on the upcall flow; keep it brief.
func (c *Client) OnFault(fn func(FaultReport)) {
	c.faultMu.Lock()
	c.onFault = fn
	c.faultMu.Unlock()
}

// ctx returns the client's shared bundling context (see bctx).
func (c *Client) ctx() *bundle.Ctx {
	return &c.bctx
}

// Close tears both channels down.
func (c *Client) Close() error {
	c.shutdown(true)
	c.wg.Wait()
	return nil
}

// --- read loops -------------------------------------------------------------

func (c *Client) rpcReadLoop(conn *wire.Conn) {
	defer c.linkLost(true)
	for {
		msg, err := conn.Recv()
		if err != nil {
			return
		}
		c.lastRPC.Store(time.Now().UnixNano())
		switch msg.Type {
		case wire.MsgReply, wire.MsgLoadReply, wire.MsgSyncReply:
			// A delivered reply is owned (and released) by the waiter; an
			// unclaimed one — late reply after a timeout — recycles here.
			if !c.waits.deliver(msg.Seq, msg, false) {
				msg.Release()
			}
		default:
			if handled, stop := c.demuxCommon(conn, msg); handled {
				if stop {
					return
				}
				continue
			}
			c.logf("clam: client: unexpected %v on rpc channel", msg.Type)
			msg.Release()
		}
	}
}

// upcallReadLoop is the paper's second client task: it handles upcalls one
// at a time, sends the return value back, and blocks again — unless
// concurrent handler workers were configured, in which case it only
// demultiplexes.
func (c *Client) upcallReadLoop(up *wire.Conn) {
	defer c.linkLost(false)
	for {
		msg, err := up.Recv()
		if err != nil {
			return
		}
		c.lastUp.Store(time.Now().UnixNano())
		switch msg.Type {
		case wire.MsgUpcall:
			// handleUpcall releases the message when done.
			if c.upWork != nil {
				select {
				case c.upWork <- msg:
				case <-c.closedCh:
					msg.Release()
					return
				}
			} else {
				c.handleUpcall(msg)
			}
		case wire.MsgError:
			var report FaultReport
			sc := rpc.GetScratch()
			err := report.bundle(sc.Decoder(msg.Body))
			sc.Release()
			msg.Release()
			if err != nil {
				c.logf("clam: client: bad fault report: %v", err)
				continue
			}
			c.faultMu.Lock()
			fn := c.onFault
			c.faultMu.Unlock()
			if fn != nil {
				fn(report)
			} else {
				c.logf("clam: client: server fault report: %v", report)
			}
		default:
			if handled, stop := c.demuxCommon(up, msg); handled {
				if stop {
					return
				}
				continue
			}
			c.logf("clam: client: unexpected %v on upcall channel", msg.Type)
			msg.Release()
		}
	}
}

// --- session resurrection ---------------------------------------------------

// linkLost runs when a read loop exits. Without a resume grant it keeps
// the legacy semantics: a dead RPC channel fails every armed wait and the
// client is effectively finished. With one, it marks the link down, fails
// pending waits fast with ErrDisconnected (satisfying "no waiter hangs
// until deadline"), and starts the single resurrect attempt — whichever
// channel died first wins the CAS; the loser is a no-op.
func (c *Client) linkLost(fromRPC bool) {
	if !c.resumable() || c.byeSeen.Load() {
		// No resume grant — or the server deliberately said goodbye
		// (eviction, shutdown): chasing it with resume attempts is wrong.
		if fromRPC {
			c.waits.cancelAll()
		}
		return
	}
	select {
	case <-c.closedCh:
		return
	default:
	}
	if !c.resuming.CompareAndSwap(false, true) {
		return
	}
	c.linkDown.Store(true)
	c.waits.cancelAll()
	// Close both channels so the sibling read loop exits too (its linkLost
	// loses the CAS above).
	c.rpcConn().Close()
	if up := c.upcallConn(); up != nil {
		up.Close()
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		c.resurrect()
	}()
}

// resumable reports whether the server granted this client a resume
// token, i.e. whether link loss means "resuming" rather than "finished".
func (c *Client) resumable() bool { return c.resumeToken != 0 && c.resumeWindow > 0 }

// asDisconnected classifies a send failure: on a resumable client a dead
// connection is a transient outage the resurrect loop is (or will soon
// be) repairing, so surface the retryable sentinel instead of the raw
// transport error — even when the read loop has not flipped linkDown yet.
func (c *Client) asDisconnected(err error) error {
	// A detected replay gap outranks everything: the session is dead for
	// good and "disconnected" would invite the caller to wait out a
	// resume that can never happen.
	if c.replayGap.Load() {
		return ErrReplayGap
	}
	if errors.Is(err, ErrDisconnected) {
		return err
	}
	select {
	case <-c.closedCh:
		return err // deliberate shutdown, not an outage
	default:
	}
	if c.linkDown.Load() || c.resumable() {
		return ErrDisconnected
	}
	return err
}

// resurrect re-dials and resumes the session, retrying under the client's
// backoff policy until the resume window closes. Giving up tears the
// client down — the server will have evicted the parked session by then.
func (c *Client) resurrect() {
	deadline := time.Now().Add(c.resumeWindow)
	pol := c.retry
	if pol.Backoff <= 0 {
		pol.Backoff = DefaultRetryPolicy.Backoff
		pol.MaxBackoff = DefaultRetryPolicy.MaxBackoff
		pol.Jitter = DefaultRetryPolicy.Jitter
	}
	for attempt := 1; ; attempt++ {
		select {
		case <-c.closedCh:
			return
		default:
		}
		if time.Now().After(deadline) {
			c.logf("clam: client: resume window (%v) expired; giving up on session %d", c.resumeWindow, c.sessionID)
			c.shutdown(false)
			return
		}
		allow, onResult := c.reconnectHooks()
		if allow != nil && !allow() {
			// Circuit open: hold off without consuming an attempt.
			if !c.sleepBackoff(pol.Backoff) {
				return
			}
			continue
		}
		ok, fatal := c.tryResume()
		if onResult != nil {
			onResult(ok)
		}
		if ok {
			return
		}
		if fatal {
			c.logf("clam: client: server refused resume of session %d; giving up", c.sessionID)
			c.shutdown(false)
			return
		}
		if !c.sleepBackoff(pol.delay(attempt)) {
			return
		}
	}
}

// sleepBackoff waits d or until the client closes, reporting whether the
// caller should continue.
func (c *Client) sleepBackoff(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-c.closedCh:
		return false
	}
}

// tryResume performs one resurrection attempt: dial both channels, present
// the resume token on each, install the connections, replay unacked
// batches above the server's receive mark, and restart the read loops.
// fatal reports a refusal that retrying cannot fix.
func (c *Client) tryResume() (ok, fatal bool) {
	rpcRaw, err := c.dialFn(c.network, c.addr)
	if err != nil {
		return false, false
	}
	rc := wire.NewConn(rpcRaw)
	rrep, err := resumeExchange(rc, roleRPC, c.sessionID, c.resumeToken, c.epoch)
	if err != nil {
		rc.Close()
		return false, false
	}
	if !rrep.OK {
		rc.Close()
		if rrep.ErrMsg != "" {
			c.logf("clam: client: resume refused: %s", rrep.ErrMsg)
		}
		return false, !rrep.Retry
	}
	upRaw, err := c.dialFn(c.network, c.addr)
	if err != nil {
		rc.Close()
		return false, false
	}
	uc := wire.NewConn(upRaw)
	urep, err := resumeExchange(uc, roleUpcall, c.sessionID, c.resumeToken, rrep.Epoch)
	if err != nil || !urep.OK {
		rc.Close()
		uc.Close()
		return false, err == nil && !urep.Retry
	}

	// Install under resMu so a concurrent Close cannot leave these
	// connections orphaned: either we see closedCh and abort, or shutdown
	// runs after us and closes what we installed.
	c.resMu.Lock()
	select {
	case <-c.closedCh:
		c.resMu.Unlock()
		rc.Close()
		uc.Close()
		return true, false // closed: end the resurrect loop quietly
	default:
	}
	c.epoch = rrep.Epoch
	c.setRPCConn(rc)
	c.replaceUpcall(uc)
	now := time.Now().UnixNano()
	c.lastRPC.Store(now)
	c.lastUp.Store(now)
	c.resMu.Unlock()

	// Replay every numbered batch the server never received; anything at
	// or below its receive mark executed already and must not run twice.
	c.bmu.Lock()
	c.pruneRTLocked(rrep.RecvSeq)
	if c.rtDroppedTo > rrep.RecvSeq {
		// The retransmit cap evicted frames the server never executed: the
		// replay range has a hole, and resuming anyway would silently lose
		// those calls. Fail definitively instead — at-most-once stays
		// honest, and callers get ErrReplayGap rather than a quiet gap.
		dropped := c.rtDroppedTo
		c.bmu.Unlock()
		c.replayGap.Store(true)
		c.logf("clam: client: resume impossible: frames through %d were dropped from the retransmit buffer but the server only received through %d",
			dropped, rrep.RecvSeq)
		c.shutdown(false)
		return true, false // "done": the resurrect loop must not retry
	}
	replayed := 0
	werr := error(nil)
	if len(c.cancelled) > 0 {
		// Cancels recorded against still-unacked frames ship BEFORE the
		// replay: the server notes the seqs first and sheds the replayed
		// calls instead of executing them — a cancelled numbered call never
		// runs after a resurrection.
		seqs := make([]uint64, 0, len(c.cancelled))
		for cs := range c.cancelled {
			seqs = append(seqs, cs)
		}
		if werr = rc.Write(&wire.Msg{Type: wire.MsgCancel, Body: wire.AppendCancelBody(nil, seqs...)}); werr == nil {
			c.link.cancels.Add(uint64(len(seqs)))
		}
	}
	for _, ent := range c.rt {
		if werr = rc.Write(&wire.Msg{Type: wire.MsgCall, Seq: ent.seq, Body: ent.body}); werr != nil {
			break
		}
		replayed += ent.calls
	}
	if werr == nil {
		werr = rc.Flush()
	}
	if replayed > 0 {
		c.link.replayed.Add(uint64(replayed))
	}
	c.linkDown.Store(false)
	var ferr error
	if c.batchCount > 0 {
		// Asyncs buffered during the outage ship now.
		ferr = c.flushLocked()
	}
	c.bmu.Unlock()
	if werr != nil || ferr != nil {
		// The fresh link died during replay; the new read loops below will
		// notice and trigger another round.
		c.logf("clam: client: replay after resume: %v", errors.Join(werr, ferr))
	}
	c.link.reconnects.Add(1)
	c.logf("clam: client: session %d resumed (epoch %d, %d calls replayed)", c.sessionID, c.epoch, replayed)

	// Clear resuming before starting the loops: if the new link dies
	// instantly, its linkLost must be able to win the CAS again.
	c.resuming.Store(false)
	c.wg.Add(2)
	go func() {
		defer c.wg.Done()
		c.rpcReadLoop(rc)
	}()
	go func() {
		defer c.wg.Done()
		c.upcallReadLoop(uc)
	}()
	return true, false
}

func (c *Client) handleUpcall(msg *wire.Msg) {
	defer msg.Release()
	sc := rpc.GetScratch()
	defer sc.Release()
	dec := sc.Decoder(msg.Body)
	var hdr rpc.UpcallHeader
	up := c.upcallConn()
	replyErr := func(err error) {
		esc := rpc.GetScratch()
		defer esc.Release()
		rh := rpc.ReplyHeader{Status: rpc.StatusDispatch, ErrMsg: err.Error()}
		if berr := rh.Bundle(esc.Encoder()); berr != nil {
			return
		}
		up.Send(&wire.Msg{Type: wire.MsgUpcallReply, Seq: msg.Seq, Body: esc.Bytes()})
	}
	if err := hdr.Bundle(dec); err != nil {
		replyErr(err)
		return
	}
	c.procMu.Lock()
	fn, ok := c.procs[hdr.ProcID]
	c.procMu.Unlock()
	if !ok {
		replyErr(fmt.Errorf("clam: upcall to unknown procedure %d", hdr.ProcID))
		return
	}
	ctx := c.ctx()
	args, err := rpc.DecodeFuncArgs(c.reg, ctx, dec, fn.Type())
	if err != nil {
		replyErr(err)
		return
	}

	rets, appErr := c.invokeHandler(fn, args)

	// The decode is complete, so the workspace can carry the reply.
	if err := rpc.EncodeFuncResults(c.reg, ctx, sc.Encoder(), fn.Type(), rets, appErr); err != nil {
		replyErr(err)
		return
	}
	if err := up.SendFrame(wire.MsgUpcallReply, msg.Seq, sc.Bytes()); err != nil {
		c.logf("clam: client: upcall reply: %v", err)
	}
}

// invokeHandler runs a registered upcall procedure, converting a panic
// into an application error so a buggy handler does not kill the upcall
// task.
func (c *Client) invokeHandler(fn reflect.Value, args []reflect.Value) (rets []reflect.Value, appErr error) {
	defer func() {
		if r := recover(); r != nil {
			appErr = fmt.Errorf("clam: upcall handler panicked: %v", r)
			rets = nil
		}
	}()
	out := fn.Call(args)
	if n := len(out); n > 0 && fn.Type().Out(n-1) == reflect.TypeOf((*error)(nil)).Elem() {
		if !out[n-1].IsNil() {
			appErr = out[n-1].Interface().(error)
		}
	}
	return out, appErr
}

// registerProc assigns an identifier to a local procedure so it can travel
// to the server as a procedure pointer (§3.5.2). Identifiers are never
// reused; each bundling mints a fresh one, matching the per-translation
// RUC instances on the server side.
func (c *Client) registerProc(fn reflect.Value) uint64 {
	c.procMu.Lock()
	defer c.procMu.Unlock()
	c.nextProc++
	c.procs[c.nextProc] = fn
	return c.nextProc
}

// ProcCount reports how many local procedures are registered for upcalls.
func (c *Client) ProcCount() int {
	c.procMu.Lock()
	defer c.procMu.Unlock()
	return len(c.procs)
}

// --- calls -------------------------------------------------------------------

// ErrClientClosed reports use of a closed client.
var ErrClientClosed = errors.New("clam: client closed")

// ErrCallTimeout is wrapped by errors from synchronous calls that saw no
// reply within the call timeout; errors.Is(err, ErrCallTimeout) selects
// the retryable failures.
var ErrCallTimeout = errors.New("clam: call timed out")

// ErrServerUnresponsive reports that the client's heartbeat declared the
// server dead (WithClientHeartbeat) and tore the connection down.
var ErrServerUnresponsive = errors.New("clam: server unresponsive (liveness window missed)")

// ErrDisconnected reports that the link died mid-call while the session is
// resumable: the call may or may not have executed, resurrection is in
// progress, and the failure is retryable — it composes with WithRetry on
// methods the application marked idempotent, exactly like a timeout.
var ErrDisconnected = errors.New("clam: connection lost (session resuming)")

// ErrReplayGap reports that a resume was abandoned because the bounded
// retransmit buffer had already evicted unacknowledged batches the server
// never executed: replaying would silently skip those calls, so the
// client fails definitively instead. Unlike ErrDisconnected this is not
// retryable — the lost calls cannot be recovered; the application must
// re-establish its state over a fresh session.
var ErrReplayGap = errors.New("clam: resume abandoned: unacked calls were dropped from the bounded replay buffer")

// ErrDeadlineExceeded is wrapped by errors from calls a server shed
// without executing: the call's deadline budget was already spent when a
// worker reached it, or admission control refused it under overload.
// Unlike a timeout, a shed call definitively did not run; the failure is
// retryable under WithRetry and composes with the upstream breaker.
var ErrDeadlineExceeded = errors.New("clam: deadline exceeded (call shed without executing)")

// Sync flushes the batch and performs an empty round trip, the "special
// synchronization procedure" of §3.4: when it returns, every previously
// issued asynchronous call has been executed by the server.
func (c *Client) Sync() error {
	seq := c.seq.Add(1)
	w := c.waits.arm(seq)
	defer c.waits.disarm(seq)
	// The batch and the sync frame coalesce into one kernel write.
	c.bmu.Lock()
	err := c.writeBatchLocked()
	if err == nil {
		err = c.rpcConn().SendFrame(wire.MsgSync, seq, nil)
	}
	mark := c.sendSeq
	c.bmu.Unlock()
	if err != nil {
		return c.asDisconnected(err)
	}
	msg, err := c.await(context.Background(), seq, w)
	msg.Release()
	if err == nil {
		// The sync reply proves the server received everything we sent
		// before it, so the replay buffer up to mark is ballast.
		c.ackRT(mark)
	}
	return err
}

// call performs a synchronous call on h: any batched asynchronous calls
// travel in the same message, preserving order, and the reply's
// out-parameters are applied to pointer arguments.
func (c *Client) call(h handle.Handle, method string, rets []any, args []any) error {
	return c.callRetry(context.Background(), h, method, rets, args, false)
}

// callRetry wraps callOnce in the client's retry policy. Only calls the
// application marked idempotent are retried, and only on timeout or a
// resumable disconnect: those are the failures where the caller cannot
// know whether the server executed the call, so re-execution must be
// harmless, and only the application can promise that. A cooperative task
// never retries — sleeping out a backoff while holding the scheduler's
// run token would stall every other task.
func (c *Client) callRetry(ctx context.Context, h handle.Handle, method string, rets []any, args []any, idempotent bool) error {
	attempts := 1
	if idempotent && c.retry.Attempts > 1 && task.Current() == nil {
		attempts = c.retry.Attempts
	}
	var err error
	// One timer serves every backoff in the loop, Reset between attempts
	// (the pooled call-timer pattern): the early-return branches never
	// leave it fired-but-undrained, because Reset only follows a receive.
	var backoff *time.Timer
	defer func() {
		if backoff != nil {
			backoff.Stop()
		}
	}()
	for a := 0; a < attempts; a++ {
		if a > 0 {
			c.link.retries.Add(1)
			if backoff == nil {
				backoff = time.NewTimer(c.retry.delay(a))
			} else {
				backoff.Reset(c.retry.delay(a))
			}
			select {
			case <-backoff.C:
			case <-ctx.Done():
				return ctx.Err()
			case <-c.closedCh:
				return ErrClientClosed
			}
		}
		err = c.callOnce(ctx, h, method, rets, args)
		if err == nil || !(errors.Is(err, ErrCallTimeout) || errors.Is(err, ErrDisconnected) || errors.Is(err, ErrDeadlineExceeded)) {
			return err
		}
	}
	return err
}

// callOnce performs one attempt: encode, arm, flush, wait, decode. Each
// attempt uses a fresh sequence number, so a late reply to an abandoned
// attempt is discarded rather than mistaken for the retry's answer.
func (c *Client) callOnce(ctx context.Context, h handle.Handle, method string, rets []any, args []any) error {
	if c.linkDown.Load() {
		if c.replayGap.Load() {
			// Not an outage: the replay buffer lost frames the server
			// never saw, the resume was abandoned, and no retry can help.
			return ErrReplayGap
		}
		// Fail fast mid-outage instead of arming a wait no reply can
		// reach; WithRetry's backoff rides out the resume.
		return ErrDisconnected
	}
	// The call carries the caller's remaining deadline as a microsecond
	// budget (0 = none): each hop anchors it to frame arrival, so queue
	// wait and relay time downstream count against this ctx's deadline.
	var budget uint64
	if ctx != nil {
		if dl, ok := ctx.Deadline(); ok {
			rem := time.Until(dl)
			if rem <= 0 {
				return context.DeadlineExceeded
			}
			if budget = uint64(rem / time.Microsecond); budget == 0 {
				budget = 1
			}
		}
	}
	seq := c.seq.Add(1)
	w := c.waits.arm(seq)
	defer c.waits.disarm(seq)
	c.bmu.Lock()
	err := c.appendCallLocked(seq, budget, h, method, args)
	if err != nil {
		c.bmu.Unlock()
		return err // encoding failure: the caller's arguments, not the link
	}
	err = c.flushLocked()
	mark := c.sendSeq
	c.bmu.Unlock()
	if err != nil {
		return c.asDisconnected(err)
	}
	msg, err := c.await(ctx, seq, w)
	if err != nil {
		if errors.Is(err, ErrCallTimeout) || (ctx != nil && ctx.Err() != nil && errors.Is(err, ctx.Err())) {
			// The caller abandoned the call: tell the server (and through
			// it, every hop still holding the call) to shed it.
			c.abandonCall(seq, mark)
		}
		return err
	}
	// Any reply on the in-order stream acknowledges every frame sent
	// before it; drop them from the replay buffer.
	c.ackRT(mark)
	err = c.decodeReply(msg, method, rets, args)
	msg.Release()
	return err
}

// abandonCall propagates a caller's abandonment of callSeq: the cancel is
// recorded against the numbered frame that carried the call (so a resume
// never replays it into execution) and announced to the server
// best-effort. frameSeq is 0 on unnumbered links, where only the live
// announcement applies.
func (c *Client) abandonCall(callSeq, frameSeq uint64) {
	c.bmu.Lock()
	c.noteCancelledLocked(callSeq, frameSeq)
	c.bmu.Unlock()
	c.sendCancel(callSeq)
}

// async queues an asynchronous call (no reply). Depending on batching
// configuration it is shipped immediately or when the batch flushes.
func (c *Client) async(h handle.Handle, method string, args []any) error {
	c.bmu.Lock()
	defer c.bmu.Unlock()
	if err := c.appendCallLocked(0, 0, h, method, args); err != nil {
		return err
	}
	if !c.batching || c.batchCount >= c.maxBatch || c.batch.Len() >= maxBatchBytes {
		err := c.flushLocked()
		if err != nil {
			// Classify before deciding: a raw socket error racing the read
			// loop's linkDown flip is still a disconnect on a resumable
			// session.
			err = c.asDisconnected(err)
		}
		if errors.Is(err, ErrDisconnected) && c.batch.Len() < maxBatchBytes {
			// Transparent buffering: the batch rides out the outage and
			// ships on resume. Only overflow surfaces the outage.
			return nil
		}
		return err
	}
	return nil
}

func (c *Client) decodeReply(msg *wire.Msg, method string, rets []any, args []any) error {
	sc := rpc.GetScratch()
	defer sc.Release()
	dec := sc.Decoder(msg.Body)
	var rh rpc.ReplyHeader
	if err := rh.Bundle(dec); err != nil {
		return err
	}
	if rh.Status == rpc.StatusDeadline {
		// The server shed the call without executing it; surface the
		// retryable sentinel rather than a generic remote error.
		return fmt.Errorf("%w: %s: %s", ErrDeadlineExceeded, method, rh.ErrMsg)
	}
	if err := rh.Err(); err != nil {
		return err
	}
	ctx := c.ctx()

	// Out-parameters: (index, present, value) triples applied to the
	// pointer arguments.
	var outc int
	if err := dec.Len(&outc); err != nil {
		return err
	}
	for i := 0; i < outc; i++ {
		var idx uint32
		if err := dec.Uint32(&idx); err != nil {
			return err
		}
		var present bool
		if err := dec.Bool(&present); err != nil {
			return err
		}
		if !present {
			continue
		}
		if int(idx) >= len(args) {
			return fmt.Errorf("clam: reply to %s updates parameter %d of %d", method, idx, len(args))
		}
		av := reflect.ValueOf(args[idx])
		if av.Kind() != reflect.Ptr {
			return fmt.Errorf("clam: reply to %s updates non-pointer parameter %d (%T)", method, idx, args[idx])
		}
		if av.IsNil() {
			// The server allocated an out value the caller did not ask
			// for; decode into a throwaway of the right type.
			av = reflect.New(av.Type().Elem())
		}
		if err := rpc.DecodeValue(c.reg, ctx, dec, av.Elem()); err != nil {
			return fmt.Errorf("clam: reply to %s, parameter %d: %w", method, idx, err)
		}
	}

	// Results.
	var retc int
	if err := dec.Len(&retc); err != nil {
		return err
	}
	if retc != len(rets) {
		return fmt.Errorf("clam: %s returned %d results, caller expects %d", method, retc, len(rets))
	}
	for i := 0; i < retc; i++ {
		rv := reflect.ValueOf(rets[i])
		if rv.Kind() != reflect.Ptr || rv.IsNil() {
			return fmt.Errorf("clam: result target %d for %s must be a non-nil pointer, got %T", i, method, rets[i])
		}
		if err := rpc.DecodeValue(c.reg, ctx, dec, rv.Elem()); err != nil {
			return fmt.Errorf("clam: result %d of %s: %w", i, method, err)
		}
	}
	return nil
}

// --- dynamic loading -----------------------------------------------------------

func (c *Client) loadOp(req loadBody) (*loadReplyBody, error) {
	seq := c.seq.Add(1)
	w := c.waits.arm(seq)
	defer c.waits.disarm(seq)

	sc := rpc.GetScratch()
	if err := req.bundle(sc.Encoder()); err != nil {
		sc.Release()
		return nil, err
	}
	// Queued asynchronous calls precede the load in the same kernel write,
	// preserving order while coalescing the two frames.
	c.bmu.Lock()
	err := c.writeBatchLocked()
	if err == nil {
		err = c.rpcConn().Send(&wire.Msg{Type: wire.MsgLoad, Seq: seq, Body: sc.Bytes()})
	}
	mark := c.sendSeq
	c.bmu.Unlock()
	sc.Release()
	if err != nil {
		return nil, c.asDisconnected(err)
	}
	msg, err := c.await(context.Background(), seq, w)
	if err != nil {
		return nil, err
	}
	c.ackRT(mark)
	var reply loadReplyBody
	dsc := rpc.GetScratch()
	err = reply.bundle(dsc.Decoder(msg.Body))
	dsc.Release()
	msg.Release()
	if err != nil {
		return nil, err
	}
	if !reply.OK {
		return nil, fmt.Errorf("clam: %s", reply.ErrMsg)
	}
	return &reply, nil
}

// LoadClass dynamically loads a class into the server (§2), returning its
// class identifier and the version actually loaded.
func (c *Client) LoadClass(name string, minVersion uint32) (classID, version uint32, err error) {
	reply, err := c.loadOp(loadBody{Op: loadOpLoad, Name: name, MinVersion: minVersion})
	if err != nil {
		return 0, 0, err
	}
	return reply.ClassID, reply.Version, nil
}

// New loads (if necessary) and instantiates a class in the server,
// returning a remote reference to the instance.
func (c *Client) New(name string, minVersion uint32) (*Remote, error) {
	reply, err := c.loadOp(loadBody{Op: loadOpNew, Name: name, MinVersion: minVersion})
	if err != nil {
		return nil, err
	}
	return &Remote{c: c, h: reply.Obj, classID: reply.ClassID, version: reply.Version}, nil
}

// LoadClassExact loads a specific version of a class, so different
// clients can run different versions side by side (§2.1).
func (c *Client) LoadClassExact(name string, version uint32) (classID uint32, err error) {
	reply, err := c.loadOp(loadBody{Op: loadOpLoadExact, Name: name, MinVersion: version})
	if err != nil {
		return 0, err
	}
	return reply.ClassID, nil
}

// NewExact instantiates a pinned class version in the server.
func (c *Client) NewExact(name string, version uint32) (*Remote, error) {
	reply, err := c.loadOp(loadBody{Op: loadOpNewExact, Name: name, MinVersion: version})
	if err != nil {
		return nil, err
	}
	return &Remote{c: c, h: reply.Obj, classID: reply.ClassID, version: reply.Version}, nil
}

// Unload removes a loaded class version from the server.
func (c *Client) Unload(name string, version uint32) error {
	_, err := c.loadOp(loadBody{Op: loadOpUnload, Name: name, MinVersion: version})
	return err
}

// NamedObject returns a remote reference to a server instance published
// with Server.SetNamed — how clients find base abstractions like the
// screen.
func (c *Client) NamedObject(name string) (*Remote, error) {
	reply, err := c.loadOp(loadBody{Op: loadOpNamed, Name: name})
	if err != nil {
		return nil, err
	}
	return &Remote{c: c, h: reply.Obj, classID: reply.ClassID, version: reply.Version}, nil
}

// DescribeClass resolves a class identifier on this client's server to
// its {name, version} identity — how a forwarding middle tier learns what
// class hides behind a handle it is about to proxy upward (§3.5.1 across
// hops, see forward.go).
func (c *Client) DescribeClass(classID uint32) (name string, version uint32, err error) {
	reply, err := c.loadOp(loadBody{Op: loadOpDescribe, ClassID: classID})
	if err != nil {
		return "", 0, err
	}
	return reply.Name, reply.Version, nil
}

// --- Remote ---------------------------------------------------------------------

// Remote is the client's reference to a server object: the stored handle
// of §3.5.1. "The client bundler assumes that an incoming object pointer
// is a handle, stores the handle, and returns a pointer to the stored
// handle" — a Remote is that stored handle, and performing an operation on
// it "becomes an RPC back into the server".
type Remote struct {
	c *Client
	h handle.Handle

	// Class identity behind the handle. Known immediately for references
	// minted by the load protocol; references decoded out of call results
	// arrive as bare capabilities and are resolved on demand (ensureClass)
	// when a forwarding server needs to re-export them. Guarded by infoMu
	// because that lazy resolution can race concurrent forwarders.
	infoMu  sync.Mutex
	classID uint32
	version uint32

	// idem holds the method names the application marked idempotent
	// (method string → struct{}); only those are retried under WithRetry.
	idem sync.Map
}

// Handle exposes the capability.
func (r *Remote) Handle() handle.Handle { return r.h }

// classInfo returns the resolved class identity (zero if never resolved).
func (r *Remote) classInfo() (classID, version uint32) {
	r.infoMu.Lock()
	defer r.infoMu.Unlock()
	return r.classID, r.version
}

// ClassID reports the object's class identifier, when known.
func (r *Remote) ClassID() uint32 {
	id, _ := r.classInfo()
	return id
}

// Version reports the object's class version, when known.
func (r *Remote) Version() uint32 {
	_, v := r.classInfo()
	return v
}

// ensureClass resolves the class identity behind r when it arrived as a
// bare capability (decoded from a call result rather than a load reply):
// the owning server is asked to describe the handle. Idempotent and
// cheap after the first resolution.
func (r *Remote) ensureClass() error {
	r.infoMu.Lock()
	defer r.infoMu.Unlock()
	if r.classID != 0 {
		return nil
	}
	reply, err := r.c.loadOp(loadBody{Op: loadOpDescribe, Obj: r.h})
	if err != nil {
		return err
	}
	r.classID, r.version = reply.ClassID, reply.Version
	return nil
}

// Client returns the owning client.
func (r *Remote) Client() *Client { return r.c }

// MarkIdempotent declares that the named methods may safely execute more
// than once, opting them into the client's WithRetry policy. Returns r
// for chaining: obj.MarkIdempotent("Total", "Get").
func (r *Remote) MarkIdempotent(methods ...string) *Remote {
	for _, m := range methods {
		r.idem.Store(m, struct{}{})
	}
	return r
}

func (r *Remote) isIdempotent(method string) bool {
	_, ok := r.idem.Load(method)
	return ok
}

// Call synchronously invokes method on the remote object. Pointer
// arguments receive the server's out/inout updates; results, if any, are
// discarded — use CallInto to receive them.
func (r *Remote) Call(method string, args ...any) error {
	return r.c.callRetry(context.Background(), r.h, method, nil, args, r.isIdempotent(method))
}

// CallInto synchronously invokes method, decoding each result into the
// corresponding non-nil pointer in rets.
func (r *Remote) CallInto(method string, rets []any, args ...any) error {
	return r.c.callRetry(context.Background(), r.h, method, rets, args, r.isIdempotent(method))
}

// CallCtx is Call with a per-call deadline or cancellation: the call
// fails with ctx.Err() once ctx is done, in addition to the client-wide
// WithCallTimeout bound.
func (r *Remote) CallCtx(ctx context.Context, method string, args ...any) error {
	return r.c.callRetry(ctx, r.h, method, nil, args, r.isIdempotent(method))
}

// CallIntoCtx is CallInto with a per-call context.
func (r *Remote) CallIntoCtx(ctx context.Context, method string, rets []any, args ...any) error {
	return r.c.callRetry(ctx, r.h, method, rets, args, r.isIdempotent(method))
}

// Async queues an asynchronous invocation: no reply, batched with other
// asynchronous calls until a synchronous call, Flush or Sync ships them
// (§3.4). Only methods without results and without out-parameters should
// be called this way; the server silently discards anything a batched
// call would have returned.
func (r *Remote) Async(method string, args ...any) error {
	return r.c.async(r.h, method, args)
}

// String renders the reference.
func (r *Remote) String() string {
	id, v := r.classInfo()
	return fmt.Sprintf("remote(%v class=%d v=%d)", r.h, id, v)
}

// --- client-side bundle hooks ------------------------------------------------------

// clientObjectHook treats *Remote as the client's object-pointer type: it
// bundles the stored handle out and wraps incoming handles in new Remotes.
type clientObjectHook Client

var remoteStructType = reflect.TypeOf(Remote{})

// IsClass reports whether t is the Remote struct type.
func (h *clientObjectHook) IsClass(t reflect.Type) bool { return t == remoteStructType }

// BundleObject converts between *Remote and wire handles.
func (h *clientObjectHook) BundleObject(s *xdr.Stream, v reflect.Value) error {
	c := (*Client)(h)
	switch s.Op() {
	case xdr.Encode:
		if v.IsNil() {
			nh := handle.Nil
			return nh.Bundle(s)
		}
		r := v.Interface().(*Remote)
		if r.c != nil && r.c != c {
			return fmt.Errorf("clam: remote %v belongs to another client", r)
		}
		hd := r.h
		return hd.Bundle(s)
	default:
		var hd handle.Handle
		if err := hd.Bundle(s); err != nil {
			return err
		}
		if hd.IsNil() {
			v.Set(reflect.Zero(v.Type()))
			return nil
		}
		v.Set(reflect.ValueOf(&Remote{c: c, h: hd}))
		return nil
	}
}

// clientProcHook bundles local procedures into procedure identifiers. The
// reverse direction (a server passing a procedure pointer to a client) is
// unimplemented, as in the paper.
type clientProcHook Client

// BundleProc registers the func and transmits its identifier.
func (h *clientProcHook) BundleProc(s *xdr.Stream, v reflect.Value) error {
	c := (*Client)(h)
	switch s.Op() {
	case xdr.Encode:
		if v.IsNil() {
			var zero uint64
			return s.Uint64(&zero)
		}
		id := c.registerProc(v)
		return s.Uint64(&id)
	default:
		return fmt.Errorf("clam: receiving a procedure pointer from the server is not supported (as in the paper)")
	}
}
