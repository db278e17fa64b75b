package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"clam/internal/bundle"
	"clam/internal/handle"
	"clam/internal/rpc"
	"clam/internal/task"
	"clam/internal/wire"
	"clam/internal/xdr"
)

// endpoint is the symmetric peer engine underneath both the client runtime
// and the server's per-client session. The paper describes two mirror-image
// runtimes — a client making calls down and receiving upcalls, a server
// receiving calls and making upcalls back up (§4.1, §4.4) — but the
// machinery on each side is the same: a pair of framed channels, sequence
// allocation, a table of armed reply waits, a batch buffer whose flush
// coalesces with trailing frames, reply coalescing toward the peer,
// heartbeat liveness on both channels, and teardown plumbing. Client and
// session are thin role wrappers over one endpoint, which is also what
// lets a server dial a lower server and forward calls/upcalls across hops
// (see forward.go): the middle process is simply both roles at once.
type endpoint struct {
	// rpcc holds the RPC channel. It is an atomic pointer because session
	// resurrection swaps a fresh connection in mid-life; every user goes
	// through rpcConn()/setRPCConn.
	rpcc atomic.Pointer[wire.Conn]
	reg  *bundle.Registry

	// mkCtx supplies the role's bundling hooks (client: Remote wrapping;
	// session: handle table + RUC binding). Set by the wrapper after
	// construction, since the hooks close over the wrapper itself.
	mkCtx func() *bundle.Ctx

	// The second channel of §4.4. Attached at dial time on the client,
	// when the peer's upcall connection arrives on the server — and
	// replaced wholesale when a resumed session re-pairs.
	upMu   sync.Mutex
	upConn *wire.Conn

	// seq numbers this endpoint's outgoing request stream: calls and load
	// ops on a client endpoint, upcalls on a session endpoint. waits holds
	// the armed reply slots for that stream.
	seq   atomic.Uint64
	waits waitTable

	// batch accumulates asynchronous calls (§3.4): the first four bytes
	// are a count placeholder patched at flush, so the batch body ships
	// without a copy. batchEnc is the persistent encoder writing into it.
	// All guarded by bmu.
	bmu        sync.Mutex
	batch      xdr.Buffer
	batchEnc   xdr.Stream
	batchCount int

	batching bool
	maxBatch int

	// Session-resurrection state. numbered turns on frame-level send
	// sequence numbering of MsgCall batches plus the bounded retransmit
	// buffer (rt) of unacknowledged batch bodies — both only when the
	// server granted a resume token, so the default configuration pays
	// nothing. All guarded by bmu alongside the batch they shadow.
	numbered bool
	sendSeq  uint64
	rt       []rtEntry
	rtBytes  int

	// cancelled maps a numbered call's seq to the frame seq that carried
	// it, recorded when the caller abandoned the call (ctx cancelled or
	// deadline hit) while the frame was still unacknowledged; guarded by
	// bmu. Resume re-announces these before replaying rt, so a cancelled
	// numbered call never executes after a resurrection; pruneRTLocked
	// drops entries once the covering frame is acknowledged. Only
	// populated on client endpoints with resume granted — the map stays
	// nil otherwise.
	cancelled map[uint64]uint64

	// rtDroppedTo is the highest frame sequence evicted unacknowledged
	// from rt under the maxRetransmitBytes cap (0 = none); guarded by bmu.
	// At resume time it turns the cap's silent possible-loss into a
	// definitive answer: if the peer has not received everything up to it,
	// the replay range has a hole and the resume must fail rather than
	// resurrect a session that silently lost calls. replayGap records that
	// verdict for error reporting.
	rtDroppedTo uint64
	replayGap   atomic.Bool

	// callTimeout bounds each armed wait: the client's WithCallTimeout on
	// call replies, the server's WithUpcallTimeout on upcall replies.
	callTimeout time.Duration

	// replyPending marks buffered replies awaiting a flush: a dispatch
	// burst's replies ride one kernel write instead of one per message
	// (see queueReply / flushReplies).
	replyPending atomic.Bool

	// Liveness: the arrival time (unix nanos) of the most recent frame on
	// each channel, heartbeat configuration, and whether the peer was
	// declared dead. lastUp is zero until the upcall channel attaches.
	hbInterval time.Duration
	hbWindow   time.Duration
	lastRPC    atomic.Int64
	lastUp     atomic.Int64
	hbLost     atomic.Bool

	// link counts this endpoint's channel-level robustness events. The
	// client allocates its own; sessions share the server's, so per-hop
	// traffic aggregates in one place.
	link *linkCounters

	// linkDown marks the window between losing the link and a successful
	// resume: sends fail fast with ErrDisconnected instead of hitting a
	// dead connection, and heartbeats hold their fire. resMu serializes
	// connection installs (resume, park) against shutdown, so a late
	// resume cannot smuggle a live connection past a closed endpoint.
	linkDown atomic.Bool
	resMu    sync.Mutex

	// byeSeen records a deliberate MsgBye from the peer: the link did not
	// fail, the peer left. A session whose client said goodbye is dropped,
	// never parked for resumption.
	byeSeen atomic.Bool

	closeOnce sync.Once
	closedCh  chan struct{}
	logf      func(string, ...any)
}

// rtEntry is one unacknowledged numbered batch held for replay: the frame
// sequence it shipped under, a private copy of the encoded body, and how
// many call entries it carries (for the ReplayedCalls metric).
type rtEntry struct {
	seq   uint64
	body  []byte
	calls int
}

// maxRetransmitBytes bounds the replay buffer. Past it the oldest bodies
// are dropped — a long-disconnected purely-asynchronous workload degrades
// to possible loss (logged) rather than unbounded memory.
const maxRetransmitBytes = 4 << 20

// linkCounters are the channel-level robustness counters every endpoint
// keeps, whichever role it plays. They snapshot as LinkStats, the struct
// shared by MetricsSnapshot and ClientMetricsSnapshot.
type linkCounters struct {
	retries        atomic.Uint64
	timeouts       atomic.Uint64
	heartbeatsSent atomic.Uint64
	heartbeatsRecv atomic.Uint64
	reconnects     atomic.Uint64
	replayed       atomic.Uint64
	dedups         atomic.Uint64
	rtDrops        atomic.Uint64
	// cancels counts call seqs this endpoint shipped in MsgCancel frames
	// toward its peer — the CancelsPropagated side of the cancel ledger.
	cancels atomic.Uint64
}

func (lc *linkCounters) snapshot() LinkStats {
	return LinkStats{
		Retries:            lc.retries.Load(),
		Timeouts:           lc.timeouts.Load(),
		HeartbeatsSent:     lc.heartbeatsSent.Load(),
		HeartbeatsReceived: lc.heartbeatsRecv.Load(),
	}
}

// LinkStats is a point-in-time copy of one endpoint's channel counters —
// the same struct on both sides of a hop, because both sides run the same
// engine.
type LinkStats struct {
	// Retries counts retry attempts made under the WithRetry policy
	// (not counting each call's first attempt). Always zero on a server:
	// upcalls are never auto-retried.
	Retries uint64
	// Timeouts counts armed waits that hit the endpoint's deadline: on a
	// client, synchronous calls past WithCallTimeout; on a server, upcall
	// waits past WithUpcallTimeout.
	Timeouts uint64
	// HeartbeatsSent counts MsgPing frames this endpoint sent;
	// HeartbeatsReceived counts MsgPing/MsgPong frames that arrived.
	HeartbeatsSent, HeartbeatsReceived uint64
}

// --- reply wait table -------------------------------------------------------

// waiter is one armed reply slot. Its buffered channel stays open for the
// slot's lifetime, so slots are pooled and reused.
type waiter struct {
	ch   chan *wire.Msg
	msg  *wire.Msg
	done bool

	// timer is the call-timeout timer, lazily created on the slot's first
	// timed wait and then Reset on every reuse — pooling it with the slot
	// keeps per-call timer allocation off the hot path. await always stops
	// and drains it before the slot is disarmed.
	timer *time.Timer
}

// waitTable maps in-flight sequence numbers to their reply slots. Slot
// lifetime is owned by the waiter: arm before sending, disarm (deferred)
// after the wait resolves. deliver never deletes, so a late reply racing a
// timeout is simply left unclaimed for the read loop to recycle.
type waitTable struct {
	mu   sync.Mutex
	m    map[uint64]*waiter
	pool sync.Pool // recycled goroutine waiters, each with an open buffered channel
}

// arm creates the reply slot for seq. Waiters are pooled together with
// their reply channel, so a synchronous call allocates nothing here in
// steady state.
func (t *waitTable) arm(seq uint64) *waiter {
	w, _ := t.pool.Get().(*waiter)
	if w == nil {
		w = &waiter{ch: make(chan *wire.Msg, 1)}
	}
	t.mu.Lock()
	if t.m == nil {
		t.m = make(map[uint64]*waiter)
	}
	t.m[seq] = w
	t.mu.Unlock()
	return w
}

// disarm retires the slot for seq. Waiters always return to the pool:
// cancellation delivers a nil over the (still open) channel rather
// than closing it, so a cancelled slot is as reusable as a completed one.
// A delivery the waiter never consumed (a reply racing a timeout) is
// drained and released before the slot is reused.
func (t *waitTable) disarm(seq uint64) {
	t.mu.Lock()
	w := t.m[seq]
	delete(t.m, seq)
	t.mu.Unlock()
	if w == nil {
		return
	}
	select {
	case msg := <-w.ch:
		if msg != nil {
			msg.Release()
		}
	default:
	}
	w.msg, w.done = nil, false
	t.pool.Put(w)
}

// deliver completes the slot for seq. cancel delivers a nil message
// (timeout, shutdown); seq 0 cancels every in-flight slot. It reports
// whether msg was handed to a waiter — if not (late reply after a
// timeout), the caller still owns msg and should release it.
func (t *waitTable) deliver(seq uint64, msg *wire.Msg, cancel bool) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if seq == 0 {
		for _, w := range t.m {
			completeWaiterLocked(w, nil)
		}
		return false
	}
	w, ok := t.m[seq]
	if !ok || w.done {
		return false
	}
	if cancel {
		msg = nil
	}
	completeWaiterLocked(w, msg)
	return msg != nil
}

// cancelAll fails every armed wait (connection loss, shutdown).
func (t *waitTable) cancelAll() { t.deliver(0, nil, true) }

// take reads the delivered message out of a completed slot.
func (t *waitTable) take(w *waiter) *wire.Msg {
	t.mu.Lock()
	defer t.mu.Unlock()
	return w.msg
}

// completeWaiterLocked finishes one slot; t.mu must be held.
func completeWaiterLocked(w *waiter, msg *wire.Msg) {
	if w.done {
		return
	}
	w.done = true
	w.msg = msg
	// Cancellation sends nil instead of closing: the buffered channel stays
	// usable, so the waiter can be pooled again after disarm. The done
	// guard above makes a second send impossible.
	w.ch <- msg
}

// --- channels ---------------------------------------------------------------

// rpcConn returns the current RPC channel.
func (e *endpoint) rpcConn() *wire.Conn { return e.rpcc.Load() }

// setRPCConn installs (or replaces, on resume) the RPC channel.
func (e *endpoint) setRPCConn(c *wire.Conn) { e.rpcc.Store(c) }

// attachUpcall binds the endpoint's second channel. The first attach wins
// and stamps the channel live; a second attach on a live session is
// refused (resume goes through replaceUpcall instead).
func (e *endpoint) attachUpcall(c *wire.Conn) bool {
	e.upMu.Lock()
	if e.upConn != nil {
		e.upMu.Unlock()
		return false
	}
	e.upConn = c
	e.upMu.Unlock()
	e.lastUp.Store(time.Now().UnixNano())
	return true
}

// replaceUpcall swaps in a fresh upcall channel after a resume.
func (e *endpoint) replaceUpcall(c *wire.Conn) {
	e.upMu.Lock()
	e.upConn = c
	e.upMu.Unlock()
	e.lastUp.Store(time.Now().UnixNano())
}

// upcallConn returns the attached upcall channel, or nil.
func (e *endpoint) upcallConn() *wire.Conn {
	e.upMu.Lock()
	defer e.upMu.Unlock()
	return e.upConn
}

// --- waiting for replies ----------------------------------------------------

// await waits for the reply to seq armed as w, bounded by the endpoint's
// callTimeout and an optional context. The caller disarms the slot. A
// task waits with the run token released: parked on a Go channel while
// holding it, it would freeze every task.
func (e *endpoint) await(ctx context.Context, seq uint64, w *waiter) (*wire.Msg, error) {
	if cur := task.Current(); cur != nil {
		cur.Release()
		defer cur.Acquire()
	}
	var timeout <-chan time.Time
	if e.callTimeout > 0 {
		if w.timer == nil {
			w.timer = time.NewTimer(e.callTimeout)
		} else {
			w.timer.Reset(e.callTimeout)
		}
		// Stop and drain before the slot returns to the pool: this
		// goroutine is the channel's only reader, so a fired-but-unread
		// timer is always drainable here.
		defer func() {
			if !w.timer.Stop() {
				select {
				case <-w.timer.C:
				default:
				}
			}
		}()
		timeout = w.timer.C
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	select {
	case msg := <-w.ch:
		if msg == nil {
			return nil, e.closedErr()
		}
		return msg, nil
	case <-timeout:
		e.waits.deliver(seq, nil, true)
		e.link.timeouts.Add(1)
		return nil, fmt.Errorf("clam: call %d after %v: %w", seq, e.callTimeout, ErrCallTimeout)
	case <-done:
		e.waits.deliver(seq, nil, true)
		return nil, ctx.Err()
	case <-e.closedCh:
		e.waits.deliver(seq, nil, true)
		return nil, e.closedErr()
	}
}

// closedErr names the reason an armed wait found the endpoint gone. A
// downed-but-resumable link reports ErrDisconnected — the retryable error
// that composes with WithRetry/MarkIdempotent — ahead of the terminal
// diagnoses.
func (e *endpoint) closedErr() error {
	if e.replayGap.Load() {
		return ErrReplayGap
	}
	if e.linkDown.Load() {
		return ErrDisconnected
	}
	if e.hbLost.Load() {
		return ErrServerUnresponsive
	}
	return ErrClientClosed
}

// --- batched asynchronous calls (§3.4) --------------------------------------

// maxBatchBytes auto-flushes an asynchronous batch once its encoded size
// reaches this bound, keeping batches comfortably inside the shared
// wire/xdr body limit and bounding how much memory a burst can pin.
const maxBatchBytes = 1 << 20

// appendCallLocked encodes one call entry (header + tagged arguments)
// directly into the batch buffer; bmu must be held. A mid-encode failure
// rolls the buffer back to its pre-entry mark, so the batch is never
// corrupted.
func (e *endpoint) appendCallLocked(seq, budget uint64, h handle.Handle, method string, args []any) error {
	if e.batchCount == 0 {
		// Count placeholder, patched by writeBatchLocked. xdr encodes Len
		// as one big-endian word, so four zero bytes reserve its slot.
		e.batch.Reset()
		e.batch.B = append(e.batch.B, 0, 0, 0, 0)
	}
	mark := e.batch.Len()
	e.batchEnc.ResetEncode(&e.batch)
	enc := &e.batchEnc
	hdr := rpc.CallHeader{Seq: seq, Budget: budget, Obj: h, Method: method}
	if err := hdr.Bundle(enc); err != nil {
		e.batch.Truncate(mark)
		return err
	}
	n := len(args)
	if err := enc.Len(&n); err != nil {
		e.batch.Truncate(mark)
		return err
	}
	ctx := e.mkCtx()
	for i, a := range args {
		v := reflect.ValueOf(a)
		if !v.IsValid() {
			e.batch.Truncate(mark)
			return fmt.Errorf("clam: argument %d of %s is untyped nil; pass a typed nil pointer", i, method)
		}
		if err := rpc.EncodeValue(e.reg, ctx, enc, v); err != nil {
			e.batch.Truncate(mark)
			return fmt.Errorf("clam: argument %d of %s: %w", i, method, err)
		}
	}
	e.batchCount++
	return nil
}

// writeBatchLocked queues the accumulated batch as one MsgCall without
// flushing, so a caller can coalesce it with a trailing Sync/Load frame;
// bmu must be held. The batch buffer is handed to the wire layer as-is —
// Write copies it toward the kernel before returning, so the buffer is
// immediately reusable.
func (e *endpoint) writeBatchLocked() error {
	if e.batchCount == 0 {
		return nil
	}
	if e.linkDown.Load() {
		// The batch stays intact: asynchronous calls keep accumulating
		// through the outage and ship after the resume.
		return ErrDisconnected
	}
	binary.BigEndian.PutUint32(e.batch.B[0:4], uint32(e.batchCount))
	calls := e.batchCount
	e.batchCount = 0
	var frameSeq uint64
	if e.numbered {
		// Numbered batches (resume granted): stamp the frame-level send
		// sequence — unused by the legacy path, MsgCall frames always
		// shipped Seq 0 — and keep a copy for replay until acknowledged.
		e.sendSeq++
		frameSeq = e.sendSeq
		e.rt = append(e.rt, rtEntry{
			seq:   frameSeq,
			body:  append([]byte(nil), e.batch.B...),
			calls: calls,
		})
		e.rtBytes += len(e.batch.B)
		for e.rtBytes > maxRetransmitBytes && len(e.rt) > 1 {
			e.rtBytes -= len(e.rt[0].body)
			e.logf("clam: retransmit buffer over %d bytes; dropping unacked batch %d (%d calls)",
				maxRetransmitBytes, e.rt[0].seq, e.rt[0].calls)
			e.rtDroppedTo = e.rt[0].seq
			e.link.rtDrops.Add(1)
			e.rt = e.rt[1:]
		}
	}
	err := e.rpcConn().WriteFrame(wire.MsgCall, frameSeq, e.batch.B)
	if cap(e.batch.B) > maxBatchBytes {
		e.batch.B = nil
	}
	e.batch.Reset()
	return err
}

// pruneRTLocked drops retransmit entries the peer has acknowledged
// (implicitly: any reply, or the resume handshake's RecvSeq, proves
// receipt of every frame at or below upTo on the in-order stream); bmu
// must be held.
func (e *endpoint) pruneRTLocked(upTo uint64) {
	i := 0
	for i < len(e.rt) && e.rt[i].seq <= upTo {
		e.rtBytes -= len(e.rt[i].body)
		e.rt[i].body = nil
		i++
	}
	if i > 0 {
		e.rt = e.rt[:copy(e.rt, e.rt[i:])]
	}
	// A cancel recorded against an acknowledged frame can no longer race a
	// replay; the server either executed or shed the call already.
	for cs, fs := range e.cancelled {
		if fs <= upTo {
			delete(e.cancelled, cs)
		}
	}
}

// noteCancelled records that the numbered call callSeq, carried by frame
// frameSeq, was abandoned by its caller; bmu must be held. Returns false
// when the frame is already acknowledged (nothing can replay it).
func (e *endpoint) noteCancelledLocked(callSeq, frameSeq uint64) bool {
	if !e.numbered || frameSeq == 0 {
		return false
	}
	if len(e.rt) == 0 || e.rt[0].seq > frameSeq {
		return false // frame acked and pruned: no replay possible
	}
	if e.cancelled == nil {
		e.cancelled = make(map[uint64]uint64)
	}
	e.cancelled[callSeq] = frameSeq
	return true
}

// sendCancel best-effort ships a MsgCancel naming callSeqs on the RPC
// channel. Cancels are advisory: a lost frame only means the peer does the
// work the caller no longer wants, so failures are swallowed (the resume
// path re-announces cancels that still matter).
func (e *endpoint) sendCancel(callSeqs ...uint64) {
	if len(callSeqs) == 0 || e.linkDown.Load() {
		return
	}
	conn := e.rpcConn()
	if conn == nil {
		return
	}
	body := wire.AppendCancelBody(make([]byte, 0, 4+8*len(callSeqs)), callSeqs...)
	if err := conn.WriteFrame(wire.MsgCancel, 0, body); err != nil {
		return
	}
	if err := conn.Flush(); err != nil {
		return
	}
	e.link.cancels.Add(uint64(len(callSeqs)))
}

// ackRT acknowledges every numbered frame up to mark.
func (e *endpoint) ackRT(mark uint64) {
	if !e.numbered || mark == 0 {
		return
	}
	e.bmu.Lock()
	e.pruneRTLocked(mark)
	e.bmu.Unlock()
}

// flushLocked ships the accumulated batch as one MsgCall; bmu must be held.
func (e *endpoint) flushLocked() error {
	if e.batchCount == 0 {
		return nil
	}
	if err := e.writeBatchLocked(); err != nil {
		return err
	}
	return e.rpcConn().Flush()
}

// Flush ships any batched asynchronous calls to the peer.
func (e *endpoint) Flush() error {
	e.bmu.Lock()
	defer e.bmu.Unlock()
	return e.flushLocked()
}

// --- reply coalescing -------------------------------------------------------

// queueReply buffers msg on the RPC channel without flushing: a dispatch
// burst's replies coalesce into one kernel write, flushed when the burst
// drains or the sender blocks (flushReplies).
func (e *endpoint) queueReply(msg *wire.Msg) {
	if err := e.rpcConn().Write(msg); err != nil {
		e.logf("clam: endpoint: reply: %v", err)
		return
	}
	e.replyPending.Store(true)
}

// queueReplyFrame is queueReply for callers assembling the reply from a
// scratch buffer: the wire layer copies the body before returning, so no
// Msg is constructed (and none escapes) on the dispatch hot path.
func (e *endpoint) queueReplyFrame(t wire.MsgType, seq uint64, body []byte) {
	if err := e.rpcConn().WriteFrame(t, seq, body); err != nil {
		e.logf("clam: endpoint: reply: %v", err)
		return
	}
	e.replyPending.Store(true)
}

// flushReplies pushes buffered replies to the kernel. The pending flag
// makes the common no-replies case (async batches) a single atomic load.
func (e *endpoint) flushReplies() {
	if !e.replyPending.Swap(false) {
		return
	}
	if err := e.rpcConn().Flush(); err != nil {
		e.logf("clam: endpoint: reply flush: %v", err)
	}
}

// --- common demultiplexing --------------------------------------------------

// demuxCommon handles the frame types every channel understands — the
// liveness and teardown traffic shared by both roles. It reports whether
// it consumed msg and whether the read loop should exit. Liveness
// stamping is the caller's job (the caller knows which channel it reads).
func (e *endpoint) demuxCommon(c *wire.Conn, msg *wire.Msg) (handled, stop bool) {
	switch msg.Type {
	case wire.MsgPing:
		e.link.heartbeatsRecv.Add(1)
		seq := msg.Seq
		msg.Release()
		if err := c.Send(&wire.Msg{Type: wire.MsgPong, Seq: seq}); err != nil {
			return true, true
		}
		return true, false
	case wire.MsgPong:
		e.link.heartbeatsRecv.Add(1)
		msg.Release()
		return true, false
	case wire.MsgBye:
		e.byeSeen.Store(true)
		msg.Release()
		return true, true
	}
	return false, false
}

// --- heartbeats -------------------------------------------------------------

// heartbeatLoop pings the peer on both channels every interval and calls
// onDead once the liveness window passes with no inbound traffic on a
// channel. The upcall channel only participates once attached (lastUp is
// zero until then). Both roles run this same loop; they differ only in
// what death means (client: declare the server unresponsive; session:
// evict the client).
func (e *endpoint) heartbeatLoop(onDead func(reason string)) {
	ticker := time.NewTicker(e.hbInterval)
	defer ticker.Stop()
	for {
		select {
		case <-e.closedCh:
			return
		case <-ticker.C:
		}
		if e.linkDown.Load() {
			// Mid-resume: the link is known dead and being rebuilt. Death
			// checks would only re-diagnose the outage, and pings would
			// land on closed connections; the resume window is the
			// deadline that matters now.
			continue
		}
		now := time.Now().UnixNano()
		window := e.hbWindow.Nanoseconds()
		if now-e.lastRPC.Load() > window {
			onDead("liveness window missed on rpc channel")
			return
		}
		if up := e.lastUp.Load(); up != 0 && now-up > window {
			onDead("liveness window missed on upcall channel")
			return
		}
		sent := 0
		if err := e.rpcConn().Send(&wire.Msg{Type: wire.MsgPing}); err == nil {
			sent++
		}
		if up := e.upcallConn(); up != nil {
			if err := up.Send(&wire.Msg{Type: wire.MsgPing}); err == nil {
				sent++
			}
		}
		e.link.heartbeatsSent.Add(uint64(sent))
	}
}

// --- teardown ---------------------------------------------------------------

// shutdown tears the endpoint down idempotently: closes both channels,
// fails every armed wait, and (optionally) says goodbye first.
func (e *endpoint) shutdown(sendBye bool) {
	e.closeOnce.Do(func() {
		// resMu excludes a concurrent resume's connection install: by the
		// time we hold it, either the install completed (we close the new
		// connections below) or the installer will see closedCh closed and
		// abort.
		e.resMu.Lock()
		close(e.closedCh)
		up := e.upcallConn()
		// rc is nil for a journal-recovered parked session that expired
		// before any client resumed: such an endpoint never had a connection.
		rc := e.rpcConn()
		if sendBye {
			// Best-effort goodbyes; the peer treats a dropped connection
			// the same way.
			if rc != nil {
				rc.Send(&wire.Msg{Type: wire.MsgBye})
			}
			if up != nil {
				up.Send(&wire.Msg{Type: wire.MsgBye})
			}
		}
		if rc != nil {
			rc.Close()
		}
		if up != nil {
			up.Close()
		}
		e.resMu.Unlock()
		e.waits.cancelAll()
	})
}

// --- handshake --------------------------------------------------------------

func helloExchange(c *wire.Conn, role uint32, session uint64) (helloReplyBody, error) {
	var reply helloReplyBody
	sc := rpc.GetScratch()
	defer sc.Release()
	hello := helloBody{Role: role, Session: session}
	if err := hello.bundle(sc.Encoder()); err != nil {
		return reply, err
	}
	if err := c.Send(&wire.Msg{Type: wire.MsgHello, Seq: 1, Body: sc.Bytes()}); err != nil {
		return reply, fmt.Errorf("clam: hello: %w", err)
	}
	msg, err := c.Recv()
	if err != nil {
		return reply, fmt.Errorf("clam: hello reply: %w", err)
	}
	defer msg.Release()
	if msg.Type != wire.MsgHelloReply {
		return reply, fmt.Errorf("clam: hello answered with %v", msg.Type)
	}
	if err := reply.bundle(sc.Decoder(msg.Body)); err != nil {
		return reply, err
	}
	return reply, nil
}

// resumeExchange replaces helloExchange on a reconnect: it presents the
// resume token for an existing session and returns the server's verdict.
func resumeExchange(c *wire.Conn, role uint32, session, token uint64, epoch uint32) (resumeReplyBody, error) {
	var reply resumeReplyBody
	sc := rpc.GetScratch()
	defer sc.Release()
	req := resumeBody{Role: role, Session: session, Token: token, Epoch: epoch}
	if err := req.bundle(sc.Encoder()); err != nil {
		return reply, err
	}
	if err := c.Send(&wire.Msg{Type: wire.MsgResume, Seq: 1, Body: sc.Bytes()}); err != nil {
		return reply, fmt.Errorf("clam: resume: %w", err)
	}
	msg, err := c.Recv()
	if err != nil {
		return reply, fmt.Errorf("clam: resume reply: %w", err)
	}
	defer msg.Release()
	if msg.Type != wire.MsgResumeReply {
		return reply, fmt.Errorf("clam: resume answered with %v", msg.Type)
	}
	if err := reply.bundle(sc.Decoder(msg.Body)); err != nil {
		return reply, err
	}
	return reply, nil
}
