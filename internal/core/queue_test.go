package core

import (
	"net"
	"runtime"
	"sync/atomic"
	"testing"

	"clam/internal/wire"
)

// The dispatch queue used to drain with queue = queue[1:], which kept
// every drained *wire.Msg reachable through the slice's backing array —
// pinning message bodies (and, with pooling, keeping them from being
// reused) until the whole array was collected. These tests pin the fix on
// the executor's runnable queue of messages (itemQueue): pop nils the
// drained slot and compacts a long-lived buffer.

// queued wraps a frame in the dispatch item the executor queues.
func queued(m *wire.Msg) *dispatchItem { return &dispatchItem{msg: m} }

func TestMsgQueuePopReleasesSlot(t *testing.T) {
	var q itemQueue
	msgs := []*wire.Msg{
		{Type: wire.MsgCall, Seq: 1},
		{Type: wire.MsgCall, Seq: 2},
		{Type: wire.MsgCall, Seq: 3},
	}
	for _, m := range msgs {
		q.push(queued(m))
	}
	if got := q.pop().msg; got != msgs[0] {
		t.Fatalf("pop returned %+v, want first message", got)
	}
	// The drained head slot must not keep the message reachable.
	if q.buf[0] != nil {
		t.Fatal("drained slot still references its message (backing-array pin)")
	}
	if q.len() != 2 {
		t.Fatalf("len = %d after one pop, want 2", q.len())
	}
	if got := q.pop().msg; got != msgs[1] {
		t.Fatalf("second pop returned %+v", got)
	}
	if q.buf[1] != nil {
		t.Fatal("second drained slot still references its message")
	}
}

func TestMsgQueueDrainResets(t *testing.T) {
	var q itemQueue
	for seq := uint64(1); seq <= 5; seq++ {
		q.push(queued(&wire.Msg{Type: wire.MsgCall, Seq: seq}))
	}
	for i := 0; i < 5; i++ {
		if q.pop() == nil {
			t.Fatalf("pop %d returned nil", i)
		}
	}
	if q.len() != 0 || q.head != 0 || len(q.buf) != 0 {
		t.Fatalf("drained queue not reset: len=%d head=%d buf=%d", q.len(), q.head, len(q.buf))
	}
	if q.pop() != nil {
		t.Fatal("pop on empty queue returned a message")
	}
	// Reuse after full drain keeps FIFO order.
	q.push(queued(&wire.Msg{Seq: 10}))
	q.push(queued(&wire.Msg{Seq: 11}))
	if got := q.pop().msg; got.Seq != 10 {
		t.Fatalf("pop after reset returned seq %d, want 10", got.Seq)
	}
}

// A queue that never fully drains (producer keeps it one ahead) must not
// grow a dead prefix: compaction bounds the backing array and nils the
// vacated tail slots.
func TestMsgQueueCompactionBoundsDeadPrefix(t *testing.T) {
	var q itemQueue
	next := uint64(0)
	for i := 0; i < 1000; i++ {
		q.push(queued(&wire.Msg{Type: wire.MsgCall, Seq: next}))
		q.push(queued(&wire.Msg{Type: wire.MsgCall, Seq: next + 1}))
		next += 2
		got := q.pop()
		if got == nil {
			t.Fatalf("iteration %d: pop returned nil", i)
		}
		for j := 0; j < q.head; j++ {
			if q.buf[j] != nil {
				t.Fatalf("iteration %d: drained slot %d still populated", i, j)
			}
		}
	}
	if q.head > 2*q.len()+130 {
		t.Fatalf("dead prefix grew unbounded: head=%d live=%d", q.head, q.len())
	}
	// Everything still drains in FIFO order.
	want := uint64(1000)
	for q.len() > 0 {
		got := q.pop().msg
		if got.Seq != want {
			t.Fatalf("out of order: got seq %d, want %d", got.Seq, want)
		}
		want++
	}
}

// TestMsgQueueHeadSlideInvariants drives the queue into the slide branch
// (head > 64 with a half-dead buffer) and checks the post-slide state
// directly: head rewound to zero, live messages intact and in order, and
// every vacated tail slot nil so the slide itself cannot re-pin frames.
func TestMsgQueueHeadSlideInvariants(t *testing.T) {
	var q itemQueue
	const total = 129
	items := make([]*dispatchItem, total)
	for i := range items {
		items[i] = queued(&wire.Msg{Type: wire.MsgCall, Seq: uint64(i)})
		q.push(items[i])
	}
	// Pop to one past the threshold: the 65th pop leaves head=65 > 64 and
	// 2*65 >= 129, triggering the slide.
	for i := 0; i < 65; i++ {
		if got := q.pop(); got != items[i] {
			t.Fatalf("pop %d returned seq %d", i, got.msg.Seq)
		}
	}
	if q.head != 0 {
		t.Fatalf("head = %d after slide, want 0", q.head)
	}
	if live := q.len(); live != total-65 {
		t.Fatalf("len = %d after slide, want %d", live, total-65)
	}
	// The slid-down prefix holds exactly the live tail, in order.
	for i := 0; i < q.len(); i++ {
		if q.buf[i] != items[65+i] {
			t.Fatalf("slot %d holds seq %d, want %d", i, q.buf[i].msg.Seq, 65+i)
		}
	}
	// The vacated region between the new length and the old one is nil'd.
	full := q.buf[:cap(q.buf)]
	for i := q.len(); i < len(full) && i < total; i++ {
		if full[i] != nil {
			t.Fatalf("vacated slot %d still references a message after slide", i)
		}
	}
	// And the queue still drains FIFO to empty.
	for want := 65; q.len() > 0; want++ {
		if got := q.pop(); got != items[want] {
			t.Fatalf("post-slide pop returned seq %d, want %d", got.msg.Seq, want)
		}
	}
}

// TestMsgQueuePoppedFramesCollectable is the regression test for the
// backing-array pin: once popped, a frame must be reclaimable even while
// the queue (and its backing array) lives on. Finalizers on the popped
// messages only run if the queue holds no hidden reference.
func TestMsgQueuePoppedFramesCollectable(t *testing.T) {
	q := &itemQueue{}
	const n = 8
	var collected atomic.Int32
	for i := 0; i < n; i++ {
		m := &wire.Msg{Type: wire.MsgCall, Seq: uint64(i), Body: make([]byte, 1024)}
		runtime.SetFinalizer(m, func(*wire.Msg) { collected.Add(1) })
		q.push(queued(m))
	}
	// Keep one message unpopped so the queue cannot take the full-drain
	// reset shortcut; the popped ones must be unreachable via buf alone.
	for i := 0; i < n-1; i++ {
		if q.pop() == nil {
			t.Fatalf("pop %d returned nil", i)
		}
	}
	for i := 0; i < 10 && collected.Load() < n-1; i++ {
		runtime.GC()
	}
	if got := collected.Load(); got < n-1 {
		t.Fatalf("only %d of %d popped frames were collected: queue still pins them", got, n-1)
	}
	if q.len() != 1 {
		t.Fatalf("queue len = %d, want the one unpopped message", q.len())
	}
	runtime.KeepAlive(q)
}

// TestMsgQueuePooledFrameRoundTrip: a frame received from the wire pool,
// queued, popped and released must leave no alias in the queue — the next
// pooled Recv (which may reuse the same frame) must see clean contents
// while the queue's backing array is still alive.
func TestMsgQueuePooledFrameRoundTrip(t *testing.T) {
	prev := wire.SetPooling(true)
	defer wire.SetPooling(prev)

	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	cc, sc := wire.NewConn(client), wire.NewConn(server)

	send := func(seq uint64, body string) {
		t.Helper()
		if err := cc.Send(&wire.Msg{Type: wire.MsgCall, Seq: seq, Body: []byte(body)}); err != nil {
			t.Fatal(err)
		}
	}
	var q itemQueue
	done := make(chan struct{})
	go func() {
		defer close(done)
		send(1, "first-frame-body")
		send(2, "second-frame-body")
	}()

	m1, err := sc.Recv()
	if err != nil {
		t.Fatal(err)
	}
	q.push(queued(m1))
	popped := q.pop().msg
	if popped != m1 {
		t.Fatal("pop did not return the pushed frame")
	}
	// Popping the only message takes the full-drain reset, but the backing
	// array survives: its slot must have been nil'd before the reset.
	if c := q.buf[:cap(q.buf)]; q.len() != 0 || (len(c) > 0 && c[0] != nil) {
		t.Fatal("queue retains a reference to the popped pooled frame")
	}
	popped.Release()

	m2, err := sc.Recv()
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Release()
	if string(m2.Body) != "second-frame-body" || m2.Seq != 2 {
		t.Fatalf("pooled reuse after queued pop corrupted the frame: seq=%d body=%q", m2.Seq, m2.Body)
	}
	<-done
}
