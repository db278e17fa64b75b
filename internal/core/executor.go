package core

import (
	"encoding/binary"
	"sync"
	"sync/atomic"

	"clam/internal/task"
	"clam/internal/wire"
)

// The server's dispatch executor: the one engine that runs every session's
// incoming calls.
//
// The paper's dispatcher is one task per session draining a FIFO queue
// (§4.3): correct, but calls to two independent objects owned by the same
// client serialize behind each other, and — because every session's
// dispatcher shares one scheduler run token — so do calls from different
// clients. Under pipelined load the server runs one handler at a time on
// one core.
//
// This executor keeps CLAM's ordering contract while letting independent
// work overlap. The unit of ordering is the object (per-object
// serialization is what unguarded handler state relies on, and the handle
// table names objects server-wide), so incoming messages are chained into
// dependency lanes:
//
//   - a single-call batch targeting object O runs after the previous
//     incomplete message for O, whichever session sent it — same-object
//     calls never interleave, across sessions included;
//   - a single asynchronous call additionally runs after the session's
//     previous asynchronous call, and every call runs after the session's
//     previous async call, preserving §3.4's issue-order guarantee for one
//     client task even when batching is disabled and each call ships alone;
//   - a multi-call batch is one client task's burst: it executes as a unit
//     (intra-batch order is the paper's), and because its targets are not
//     known without decoding it, it orders as a global barrier — after
//     everything in flight, before everything later;
//   - MsgLoad and MsgSync are session barriers: they run after all of their
//     session's incomplete messages, and later messages from that session
//     run after them. Sync's §3.4 promise — every earlier asynchronous call
//     has executed — falls out directly.
//
// The lane key is peeked from the encoded batch without decoding it: a
// MsgCall body is a 4-byte big-endian count followed by the first
// CallHeader (seq uint64, budget uint64, object id uint64, tag uint64,
// method), so a single-call batch's sequence number sits at bytes [4:12),
// its deadline budget at [12:20) and its target object id at [20:28).
//
// Messages whose dependencies are settled execute on a bounded pool of
// worker goroutines — real parallelism, unlike the run-token scheduler.
// When a handler blocks for the wire (a distributed upcall waiting on the
// client task, a forwarded call waiting on a lower server) or in
// task.Wait (a loaded class waiting on its own event), it yields: the
// item completes for ordering purposes — which is what keeps the paper's
// reentrant call-during-upcall pattern working, as the paper's dispatcher
// hand-off did — and the pool grows a replacement worker so the session
// keeps draining. Replies still coalesce: each session counts its
// in-flight items and flushes its buffered replies when the count drains
// to zero, so a burst's replies ride one kernel write (wire.Conn already
// serializes writers under its own lock).
//
// The serial ablation (WithPerObjectDispatch(false)) is a policy on this
// same engine that reproduces the paper's dispatcher: every call chains on
// its session's previous call (the async edge above, taken by sync calls
// too), so each session drains in arrival order, and the pool is one
// worker, so one handler runs at a time. A handler that blocks yields as
// above, which is the paper's hand-off of dispatch duty to a fresh task;
// when its wait is over it waits for the one slot again (resume), as the
// paper's task re-acquires the run token after Block.

// itemKind classifies one queued message's ordering behaviour.
type itemKind uint8

const (
	// itemCall is a single-call batch: serialized per target object.
	itemCall itemKind = iota
	// itemSessionBarrier waits for the session's in-flight items and blocks
	// its later ones (MsgLoad, MsgSync).
	itemSessionBarrier
	// itemGlobalBarrier waits for every in-flight item and blocks every
	// later one (multi-call batches, whose targets are unknown unparsed).
	itemGlobalBarrier
)

// dispatchItem is one queued message moving through the dependency graph.
// All fields except sess/msg (set before publication) are guarded by the
// executor's mutex.
type dispatchItem struct {
	sess *session
	msg  *wire.Msg
	lane uint64 // target object id, for itemCall
	kind itemKind

	deps    int             // incomplete items this one runs after
	waiters []*dispatchItem // items running after this one
	done    bool            // order-complete: finished or yielded
	yielded bool            // handler blocked and released its worker slot
	running bool            // a worker is (or was) executing the handler
}

// classifyMsg peeks a message's ordering class from its encoded form.
func classifyMsg(msg *wire.Msg) (kind itemKind, lane uint64, async bool) {
	if msg.Type != wire.MsgCall {
		return itemSessionBarrier, 0, false // MsgLoad, MsgSync
	}
	b := msg.Body
	if len(b) < 28 || binary.BigEndian.Uint32(b[0:4]) != 1 {
		return itemGlobalBarrier, 0, false
	}
	seq := binary.BigEndian.Uint64(b[4:12])
	return itemCall, binary.BigEndian.Uint64(b[20:28]), seq == 0
}

// peekCallMeta peeks a single-call batch's seq and deadline budget (µs)
// from its encoded form, for shed decisions that must not decode the
// arguments. ok is false for multi-call batches and anything too short.
func peekCallMeta(msg *wire.Msg) (seq, budgetUS uint64, ok bool) {
	b := msg.Body
	if msg.Type != wire.MsgCall || len(b) < 28 || binary.BigEndian.Uint32(b[0:4]) != 1 {
		return 0, 0, false
	}
	return binary.BigEndian.Uint64(b[4:12]), binary.BigEndian.Uint64(b[12:20]), true
}

// itemQueue is the runnable FIFO: append-push, head-index pop. Popping
// nils the drained slot, so a drained item (and the frame it carries) is
// not kept reachable through the backing array, and a queue that never
// fully drains compacts instead of growing a dead prefix.
type itemQueue struct {
	buf  []*dispatchItem
	head int
}

func (q *itemQueue) push(it *dispatchItem) { q.buf = append(q.buf, it) }

func (q *itemQueue) len() int { return len(q.buf) - q.head }

func (q *itemQueue) pop() *dispatchItem {
	if q.head >= len(q.buf) {
		return nil
	}
	it := q.buf[q.head]
	q.buf[q.head] = nil
	q.head++
	switch {
	case q.head == len(q.buf):
		q.buf = q.buf[:0]
		q.head = 0
	case q.head > 64 && q.head*2 >= len(q.buf):
		n := copy(q.buf, q.buf[q.head:])
		for i := n; i < len(q.buf); i++ {
			q.buf[i] = nil
		}
		q.buf = q.buf[:n]
		q.head = 0
	}
	return it
}

// executor runs every session's queued messages on a bounded worker pool,
// ordered by the dependency lanes above. One executor serves the whole
// server: the frontier must be server-wide because the handle table
// dedups objects server-wide, so two sessions can name the same object.
type executor struct {
	srv     *Server
	workers int  // target count of unblocked workers
	serial  bool // the serial ablation: every call chains on its session

	mu         sync.Mutex
	cond       sync.Cond // signalled when runnable gains an item
	slot       sync.Cond // serial policy: signalled when a handler stops running
	closed     bool
	runnable   itemQueue
	frontier   map[uint64]*dispatchItem   // object id → latest incomplete item
	items      map[*dispatchItem]struct{} // every incomplete item
	lastGlobal *dispatchItem              // latest incomplete global barrier

	alive   int // live worker goroutines (running, parked or yielded)
	parked  int // workers waiting in cond.Wait
	blocked int // workers inside a yielded (blocked) handler
	waking  int // serial policy: resumed handlers waiting in slot.Wait

	running int    // items being executed right now (blocked ones too)
	peak    int    // high-water mark of handlers running unblocked
	stalls  uint64 // handler blocks that released a worker slot

	// boundN counts workers with an item bound in their task.Cell; it
	// gates the goroutine-id lookup off every path when no executor work
	// is live.
	boundN atomic.Int64

	pool sync.Pool // recycled dispatchItems
	wg   sync.WaitGroup
}

func newExecutor(srv *Server, workers int, serial bool) *executor {
	x := &executor{
		srv:      srv,
		workers:  workers,
		serial:   serial,
		frontier: make(map[uint64]*dispatchItem),
		items:    make(map[*dispatchItem]struct{}),
	}
	x.cond.L = &x.mu
	x.slot.L = &x.mu
	return x
}

func (x *executor) getItem() *dispatchItem {
	if it, _ := x.pool.Get().(*dispatchItem); it != nil {
		return it
	}
	return &dispatchItem{}
}

func (x *executor) putItem(it *dispatchItem) {
	w := it.waiters[:0]
	*it = dispatchItem{waiters: w}
	x.pool.Put(it)
}

// enqueue publishes one message into the dependency graph. Called from the
// session's RPC read goroutine, so it must never block on handler work.
func (x *executor) enqueue(sess *session, msg *wire.Msg) {
	kind, lane, async := classifyMsg(msg)
	it := x.getItem()
	it.sess, it.msg = sess, msg
	it.kind, it.lane = kind, lane
	sess.execActive.Add(1)

	x.mu.Lock()
	if x.closed {
		x.mu.Unlock()
		sess.execActive.Add(-1)
		msg.Release()
		x.putItem(it)
		return
	}
	deps := 0
	// Duplicate edges (a barrier that is both the session barrier and in
	// the session's item set, say) are harmless: each edge appends one
	// waiter entry and counts one dep, so the bookkeeping stays balanced.
	addDep := func(d *dispatchItem) {
		if d != nil && !d.done {
			d.waiters = append(d.waiters, it)
			deps++
		}
	}
	switch kind {
	case itemCall:
		addDep(x.frontier[lane])
		addDep(sess.execLastAsync)
		addDep(sess.execBarrier)
		addDep(x.lastGlobal)
		x.frontier[lane] = it
		// Later calls chain on this one: asyncs (§3.4), and every call in
		// the serial policy.
		if async || x.serial {
			sess.execLastAsync = it
		}
	case itemSessionBarrier:
		for d := range sess.execItems {
			addDep(d)
		}
		addDep(x.lastGlobal)
		sess.execBarrier = it
	case itemGlobalBarrier:
		for d := range x.items {
			addDep(d)
		}
		x.lastGlobal = it
	}
	it.deps = deps
	x.items[it] = struct{}{}
	sess.execItems[it] = struct{}{}
	if deps == 0 {
		x.makeRunnableLocked(it)
	}
	x.mu.Unlock()
}

// makeRunnableLocked queues an item whose dependencies are settled and
// makes sure a worker will pick it up; x.mu must be held.
func (x *executor) makeRunnableLocked(it *dispatchItem) {
	if x.closed {
		return
	}
	x.runnable.push(it)
	x.ensureWorkerLocked()
}

// ensureWorkerLocked guarantees one more runnable item will be serviced:
// it reserves a parked worker (decrementing parked HERE, not when the
// worker wakes — two Signals racing one still-parked worker would
// otherwise coalesce into one wake and strand an item), or grows the pool
// if it is under target. If neither applies, every worker is busy and the
// item will be picked up by whichever loops next; x.mu must be held.
func (x *executor) ensureWorkerLocked() {
	if x.closed {
		return
	}
	if x.parked > 0 {
		x.parked--
		x.cond.Signal()
	} else if x.alive-x.blocked < x.workers {
		x.alive++
		x.wg.Add(1)
		go x.worker()
	}
}

// completeLocked retires an item for ordering purposes — on handler
// completion, or early at yield — releasing its dependents; x.mu held.
func (x *executor) completeLocked(it *dispatchItem) {
	if it.done {
		return
	}
	it.done = true
	delete(x.items, it)
	delete(it.sess.execItems, it)
	if it.kind == itemCall && x.frontier[it.lane] == it {
		delete(x.frontier, it.lane)
	}
	if it.sess.execLastAsync == it {
		it.sess.execLastAsync = nil
	}
	if it.sess.execBarrier == it {
		it.sess.execBarrier = nil
	}
	if x.lastGlobal == it {
		x.lastGlobal = nil
	}
	for _, w := range it.waiters {
		w.deps--
		if w.deps == 0 && !w.done {
			x.makeRunnableLocked(w)
		}
	}
	it.waiters = it.waiters[:0]
}

// worker executes runnable items until the pool shrinks or the executor
// closes. Workers are plain goroutines, not tasks: handlers for distinct
// objects genuinely run in parallel.
func (x *executor) worker() {
	defer x.wg.Done()
	cell := task.NewCell(x.handOff)
	defer cell.Drop()
	x.mu.Lock()
	for {
		if x.closed {
			x.alive--
			x.mu.Unlock()
			return
		}
		var it *dispatchItem
		if !x.serial || x.running-x.blocked < x.workers {
			// The serial policy runs one handler at a time: while a
			// resumed handler runs (or waits to), the queue is left to it.
			it = x.runnable.pop()
		}
		if it == nil {
			if x.alive-x.blocked > x.workers {
				// A yielded handler resumed, putting the pool over target:
				// shed this worker. (Per-object dispatch sheds only on an
				// empty queue, so a surplus worker can run a transient
				// extra item but can never strand one; the serial policy
				// leaves queued items to the resumed handler's worker.)
				x.alive--
				x.mu.Unlock()
				return
			}
			x.parked++
			x.cond.Wait()
			// parked was decremented by the signaller (reservation) or
			// zeroed collectively at close; not here.
			continue
		}
		it.running = true
		x.running++
		x.notePeakLocked()
		x.mu.Unlock()

		cell.Set(it)
		x.boundN.Add(1)
		it.sess.execMsg(it.msg) // releases the message
		it.msg = nil
		cell.Set(nil)
		x.boundN.Add(-1)

		x.finish(it)
		x.mu.Lock()
	}
}

// finish retires an executed item: ordering completion (unless the handler
// already yielded), reply-flush accounting, and recycling.
func (x *executor) finish(it *dispatchItem) {
	sess := it.sess
	x.mu.Lock()
	x.running--
	yielded := it.yielded
	x.completeLocked(it)
	x.freeSlotLocked()
	x.mu.Unlock()

	if yielded {
		// The session's active count already dropped at yield, so the
		// reply this handler buffered after resuming needs its own flush.
		sess.flushReplies()
	} else if sess.execActive.Add(-1) == 0 {
		sess.flushReplies()
	}
	x.putItem(it)
}

// currentItem resolves the item the calling goroutine is executing for
// this executor, or nil when called outside its work (client goroutines,
// server-side tasks, another in-process server's workers). The atomic
// gate keeps the stack parse off every path while no handler is live.
func (x *executor) currentItem() *dispatchItem {
	if x.boundN.Load() == 0 {
		return nil
	}
	if it := task.Bound[dispatchItem](); it != nil && it.sess.srv.exec == x {
		return it
	}
	return nil
}

// notePeakLocked records the number of handlers running unblocked, for
// Dispatch.Parallelism; x.mu must be held.
func (x *executor) notePeakLocked() {
	if n := x.running - x.blocked - x.waking; n > x.peak {
		x.peak = n
	}
}

// freeSlotLocked wakes resumed handlers waiting for the serial policy's one
// slot after a handler finished or blocked; x.mu must be held.
func (x *executor) freeSlotLocked() {
	if x.waking > 0 {
		x.slot.Broadcast()
	}
}

// yieldCurrent is the executor's hand-off: a handler about to block for
// the wire (distributed upcall, forwarded synchronous call, relayed Sync)
// completes its item for ordering purposes and releases its worker slot so
// a replacement can keep the lanes draining. Returns the item to pass to
// resume, or nil when the caller is not one of this executor's workers.
func (x *executor) yieldCurrent() *dispatchItem {
	it := x.currentItem()
	if it != nil {
		x.yield(it)
	}
	return it
}

// handOff is the workers' task.Cell hand-off: a handler that blocks in
// task.Wait (a loaded class waiting on its own event, such as the window
// server's InjectMouseWait) yields exactly as a wire wait does.
func (x *executor) handOff(it *dispatchItem) func() {
	x.yield(it)
	return func() { x.resume(it) }
}

func (x *executor) yield(it *dispatchItem) {
	first := false
	x.mu.Lock()
	x.blocked++
	x.stalls++
	if !it.yielded {
		it.yielded = true
		first = true
		x.completeLocked(it)
	}
	if x.runnable.len() > 0 {
		// This yield freed one slot; hand it to a queued item.
		x.ensureWorkerLocked()
	}
	x.freeSlotLocked()
	x.mu.Unlock()
	if first && it.sess.execActive.Add(-1) == 0 {
		// Nothing else in flight for this session: push buffered replies
		// now, or a client task we are about to wait on could itself be
		// waiting on one of them.
		it.sess.flushReplies()
	}
}

// resume reverses yield's worker accounting once the blocking operation
// is over. Under per-object dispatch the surplus worker (this one, or an
// idle one) sheds itself between items. Under the serial policy the
// handler first waits until no other handler runs unblocked, as the
// paper's task re-acquires the run token after Block. Safe on a nil item.
func (x *executor) resume(it *dispatchItem) {
	if it == nil {
		return
	}
	x.mu.Lock()
	x.blocked--
	if x.serial {
		x.waking++
		for !x.closed && x.running-x.blocked-x.waking >= x.workers {
			x.slot.Wait()
		}
		x.waking--
	}
	x.notePeakLocked()
	x.mu.Unlock()
}

// close stops the pool: undelivered messages are released, workers drain
// out. Items mid-handler finish on their own; their sessions are already
// shut down, so late replies fail harmlessly at the wire.
func (x *executor) close() {
	var drop []*dispatchItem
	x.mu.Lock()
	x.closed = true
	for it := range x.items {
		if !it.running {
			drop = append(drop, it)
		}
	}
	for _, it := range drop {
		it.done = true
		delete(x.items, it)
		delete(it.sess.execItems, it)
	}
	x.parked = 0 // every parked worker wakes to exit; reservations are moot
	x.cond.Broadcast()
	x.slot.Broadcast()
	x.mu.Unlock()
	for _, it := range drop {
		it.msg.Release()
		it.msg = nil
	}
	x.wg.Wait()
}

// stats snapshots the executor counters for MetricsSnapshot.
func (x *executor) stats() DispatchStats {
	x.mu.Lock()
	defer x.mu.Unlock()
	return DispatchStats{
		Workers:      x.workers,
		PerObject:    !x.serial,
		Parallelism:  uint64(x.peak),
		QueueDepth:   uint64(len(x.items)),
		WorkerStalls: x.stalls,
	}
}
