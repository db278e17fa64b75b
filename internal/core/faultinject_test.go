package core

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"clam/internal/wire"
)

// Chaos tests: every SimLink fault mode exercised against the three call
// shapes (synchronous call, batched asynchronous flush, in-flight
// distributed upcall), asserting that the robustness layer both survives
// the fault and counts it.

// chaosLinks records the SimLink wrapped around each channel a client
// dials, so tests can inject faults per channel. Dial order is fixed by
// core.Dial: links[0] is the RPC channel, links[1] the upcall channel.
type chaosLinks struct {
	mu    sync.Mutex
	links []*wire.SimLink
}

func (cl *chaosLinks) dial(network, addr string) (net.Conn, error) {
	conn, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	l := wire.NewSimLink(conn, 0, 0)
	cl.mu.Lock()
	cl.links = append(cl.links, l)
	cl.mu.Unlock()
	return l, nil
}

func (cl *chaosLinks) rpc() *wire.SimLink {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.links[0]
}

func (cl *chaosLinks) upcall() *wire.SimLink {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.links[1]
}

func chaosClient(t testing.TB, path string, opts ...DialOption) (*Client, *chaosLinks) {
	t.Helper()
	cl := &chaosLinks{}
	opts = append([]DialOption{
		WithClientLog(func(string, ...any) {}),
		WithDialFunc(cl.dial),
	}, opts...)
	c, err := Dial("unix", path, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, cl
}

func waitFor(t testing.TB, within time.Duration, what string, pred func() bool) {
	t.Helper()
	deadline := time.Now().Add(within)
	for !pred() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// --- sync calls under link faults -------------------------------------------

func TestChaosDelayedRequestTimesOutAndRetries(t *testing.T) {
	_, path := startServer(t)
	c, cl := chaosClient(t, path,
		WithCallTimeout(150*time.Millisecond),
		WithRetry(RetryPolicy{Attempts: 4, Backoff: 20 * time.Millisecond}))
	obj, err := c.New("counter", 0)
	if err != nil {
		t.Fatal(err)
	}
	obj.MarkIdempotent("Total")

	// Delay the next request past the call timeout: attempt 1 times out.
	// The delayed chunk also holds up the retries queued behind it
	// (head-of-line blocking in the link), so the delay must clear within
	// a later attempt's window for the retry to succeed.
	cl.rpc().InjectDelay(1, 400*time.Millisecond)
	var total int64
	if err := obj.CallInto("Total", []any{&total}); err != nil {
		t.Fatalf("idempotent call failed despite retry: %v", err)
	}
	m := c.Metrics()
	if m.Timeouts < 1 {
		t.Errorf("Timeouts = %d, want >= 1", m.Timeouts)
	}
	if m.Retries < 1 {
		t.Errorf("Retries = %d, want >= 1", m.Retries)
	}
}

func TestChaosDroppedRequestRetries(t *testing.T) {
	srv, path := startServer(t)
	c, cl := chaosClient(t, path,
		WithCallTimeout(100*time.Millisecond),
		WithRetry(RetryPolicy{Attempts: 3, Backoff: 10 * time.Millisecond}))
	obj, err := c.New("counter", 0)
	if err != nil {
		t.Fatal(err)
	}
	obj.MarkIdempotent("Total")

	cl.rpc().InjectDrop(1) // the whole request frame vanishes
	var total int64
	if err := obj.CallInto("Total", []any{&total}); err != nil {
		t.Fatalf("call failed despite retry after drop: %v", err)
	}
	if got := c.Metrics().Retries; got < 1 {
		t.Errorf("Retries = %d, want >= 1", got)
	}
	if got := srv.Metrics().SyncCalls; got < 1 {
		t.Errorf("server SyncCalls = %d, want >= 1", got)
	}
}

func TestChaosUnmarkedCallDoesNotRetry(t *testing.T) {
	_, path := startServer(t)
	c, cl := chaosClient(t, path,
		WithCallTimeout(100*time.Millisecond),
		WithRetry(RetryPolicy{Attempts: 3, Backoff: 10 * time.Millisecond}))
	obj, err := c.New("counter", 0)
	if err != nil {
		t.Fatal(err)
	}
	// Add is NOT marked idempotent: a drop must surface as a timeout, not
	// a silent re-execution.
	cl.rpc().InjectDrop(1)
	err = obj.Call("Add", int64(1))
	if !errors.Is(err, ErrCallTimeout) {
		t.Fatalf("unmarked call after drop: err = %v, want ErrCallTimeout", err)
	}
	if got := c.Metrics().Retries; got != 0 {
		t.Errorf("Retries = %d, want 0 for unmarked method", got)
	}
}

func TestChaosDuplicatedRequestExecutesTwice(t *testing.T) {
	_, path := startServer(t)
	c, cl := chaosClient(t, path, WithCallTimeout(2*time.Second))
	obj, err := c.New("counter", 0)
	if err != nil {
		t.Fatal(err)
	}
	cl.rpc().InjectDuplicate(1)
	if err := obj.Call("Add", int64(1)); err != nil {
		t.Fatalf("call over duplicating link: %v", err)
	}
	// The duplicated frame re-executes the batch — this is exactly why
	// only idempotent-marked methods are ever auto-retried. The client
	// must survive the duplicate reply (dropped by sequence number).
	var total int64
	if err := obj.CallInto("Total", []any{&total}); err != nil {
		t.Fatal(err)
	}
	if total != 2 {
		t.Errorf("total after duplicated Add = %d, want 2", total)
	}
}

// --- batched async flush under link faults ----------------------------------

func TestChaosDroppedAsyncFlushDegradesGracefully(t *testing.T) {
	_, path := startServer(t)
	c, cl := chaosClient(t, path, WithCallTimeout(2*time.Second))
	obj, err := c.New("counter", 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := obj.Async("Add", int64(1)); err != nil {
			t.Fatal(err)
		}
	}
	cl.rpc().InjectDrop(1)
	if err := c.Flush(); err != nil {
		t.Fatalf("flush over dropping link: %v", err)
	}
	// The batch is gone, but the session must remain consistent: the next
	// round trip works and sees none of the dropped calls.
	if err := c.Sync(); err != nil {
		t.Fatalf("sync after dropped batch: %v", err)
	}
	var total int64
	if err := obj.CallInto("Total", []any{&total}); err != nil {
		t.Fatal(err)
	}
	if total != 0 {
		t.Errorf("total = %d, want 0 (batch was dropped)", total)
	}
	// And new traffic flows normally.
	if err := obj.Call("Add", int64(5)); err != nil {
		t.Fatal(err)
	}
	if err := obj.CallInto("Total", []any{&total}); err != nil {
		t.Fatal(err)
	}
	if total != 5 {
		t.Errorf("total = %d, want 5", total)
	}
}

func TestChaosSeverMidMessageDropsSessionCleanly(t *testing.T) {
	srv, path := startServer(t)
	c, cl := chaosClient(t, path, WithCallTimeout(time.Second))
	obj, err := c.New("counter", 0)
	if err != nil {
		t.Fatal(err)
	}
	// The next frame is torn in half and the link cut: the server sees a
	// truncated frame and must drop the session without wedging.
	cl.rpc().SeverMidMessage()
	if err := obj.Call("Add", int64(1)); err == nil {
		t.Error("call over severed link succeeded")
	}
	waitFor(t, 3*time.Second, "severed session to drop", func() bool {
		return srv.SessionCount() == 0
	})
	// The server still serves fresh clients.
	c2 := dialClient(t, path)
	o2, err := c2.New("counter", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := o2.Call("Add", int64(1)); err != nil {
		t.Errorf("server degraded after torn frame: %v", err)
	}
}

// --- in-flight upcalls under link faults (the acceptance scenario) ----------

// TestChaosSeveredUpcallStreamEvictsAndUnblocks is the headline scenario:
// a client's upcall stream is severed (blackholed: the connection stays
// open but nothing flows back) while the server is blocked mid-upcall.
// The liveness window must evict the client, unblock the parked server
// task, and move the eviction and upcall-failure counters.
func TestChaosSeveredUpcallStreamEvictsAndUnblocks(t *testing.T) {
	srv, path := startServer(t,
		WithHeartbeat(25*time.Millisecond, 200*time.Millisecond),
		WithUpcallTimeout(30*time.Second)) // far beyond the liveness window
	c, cl := chaosClient(t, path)

	faults := make(chan FaultReport, 4)
	c.OnFault(func(r FaultReport) { faults <- r })

	n, err := c.New("notifier", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Call("Register", func(x int32, s string) int32 { return x }); err != nil {
		t.Fatal(err)
	}
	// Sanity: the upcall round trip works before the fault.
	var sum int32
	if err := n.CallInto("Trigger", []any{&sum}, int32(7), "ok"); err != nil {
		t.Fatal(err)
	}
	if sum != 7 {
		t.Fatalf("pre-fault trigger sum = %d, want 7", sum)
	}

	// Sever the upcall stream client→server: upcall replies and pongs
	// vanish while the connection stays open.
	cl.upcall().InjectBlackhole(true)

	start := time.Now()
	done := make(chan error, 1)
	go func() {
		var s int32
		done <- n.CallInto("Trigger", []any{&s}, int32(1), "x")
	}()

	// The server task parked on the upcall must be unblocked by the
	// liveness eviction — well before the 30s upcall timeout.
	select {
	case err := <-done:
		if err == nil {
			t.Error("trigger over severed upcall stream reported success")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server task stayed parked on upcall to severed client")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("unblocked after %v, want within the liveness window (~200ms)", elapsed)
	}

	waitFor(t, 3*time.Second, "evicted session to drop", func() bool {
		return srv.SessionCount() == 0
	})
	// The failed upcall is counted when the server-side handler's wait
	// returns, which nothing orders before the session's removal or the
	// client's error (the eviction closes the client's connection).
	waitFor(t, 3*time.Second, "failed upcall to be counted", func() bool {
		return srv.Metrics().UpcallFailures >= 1
	})
	m := srv.Metrics()
	if m.Evictions < 1 {
		t.Errorf("Evictions = %d, want >= 1", m.Evictions)
	}
	if m.HeartbeatsSent == 0 {
		t.Error("HeartbeatsSent = 0, want > 0")
	}
	// The final notice travels server→client (not blackholed), so the
	// client learns why it was cut off.
	select {
	case r := <-faults:
		if r.Method != "evict" {
			t.Errorf("fault report method = %q, want %q", r.Method, "evict")
		}
	case <-time.After(3 * time.Second):
		t.Error("client never received the eviction FaultReport notice")
	}
}

func TestSlowConsumerEviction(t *testing.T) {
	srv, path := startServer(t,
		WithUpcallTimeout(100*time.Millisecond),
		WithSlowConsumerLimit(2))
	c := dialClient(t, path)
	n, err := c.New("notifier", 0)
	if err != nil {
		t.Fatal(err)
	}
	// A handler that wedges the client's upcall task well past the upcall
	// timeout.
	if err := n.Call("Register", func(x int32, s string) int32 {
		time.Sleep(time.Second)
		return x
	}); err != nil {
		t.Fatal(err)
	}
	// Two triggers, two upcall timeouts, eviction on the second.
	for i := 0; i < 2; i++ {
		n.CallInto("Trigger", []any{new(int32)}, int32(1), "x")
	}
	waitFor(t, 5*time.Second, "slow consumer to be evicted", func() bool {
		return srv.SessionCount() == 0
	})
	m := srv.Metrics()
	if m.Evictions < 1 {
		t.Errorf("Evictions = %d, want >= 1", m.Evictions)
	}
	if m.UpcallTimeouts < 2 {
		t.Errorf("UpcallTimeouts = %d, want >= 2", m.UpcallTimeouts)
	}
}

// --- session admission and liveness ----------------------------------------

func TestMaxSessionsRejectsExcessClients(t *testing.T) {
	srv, path := startServer(t, WithMaxSessions(1))
	c1 := dialClient(t, path)
	_ = c1
	if _, err := Dial("unix", path, WithClientLog(func(string, ...any) {})); err == nil {
		t.Fatal("second client admitted past WithMaxSessions(1)")
	}
	if got := srv.Metrics().RejectedSessions; got < 1 {
		t.Errorf("RejectedSessions = %d, want >= 1", got)
	}
	// Capacity frees up when a client leaves.
	c1.Close()
	waitFor(t, 3*time.Second, "session slot to free", func() bool {
		return srv.SessionCount() == 0
	})
	c2, err := Dial("unix", path, WithClientLog(func(string, ...any) {}))
	if err != nil {
		t.Fatalf("dial after slot freed: %v", err)
	}
	c2.Close()
}

func TestHeartbeatKeepsIdleSessionAlive(t *testing.T) {
	srv, path := startServer(t, WithHeartbeat(20*time.Millisecond, 120*time.Millisecond))
	c := dialClient(t, path)
	obj, err := c.New("counter", 0)
	if err != nil {
		t.Fatal(err)
	}
	// Idle well past the liveness window: the client's automatic pongs
	// must keep the session alive.
	time.Sleep(400 * time.Millisecond)
	if got := srv.SessionCount(); got != 1 {
		t.Fatalf("idle session evicted: SessionCount = %d", got)
	}
	if err := obj.Call("Add", int64(1)); err != nil {
		t.Errorf("call after idle period: %v", err)
	}
	m := srv.Metrics()
	if m.HeartbeatsSent == 0 || m.HeartbeatsReceived == 0 {
		t.Errorf("heartbeats sent/received = %d/%d, want both > 0",
			m.HeartbeatsSent, m.HeartbeatsReceived)
	}
	if m.Evictions != 0 {
		t.Errorf("Evictions = %d, want 0", m.Evictions)
	}
}

func TestClientHeartbeatDetectsUnresponsiveServer(t *testing.T) {
	_, path := startServer(t) // no server heartbeats: server stays silent when idle
	c, cl := chaosClient(t, path,
		WithClientHeartbeat(20*time.Millisecond, 120*time.Millisecond))
	if _, err := c.New("counter", 0); err != nil {
		t.Fatal(err)
	}
	// Blackhole both directions of outbound traffic: the client's pings
	// go nowhere, so no pongs come back, and the window expires.
	cl.rpc().InjectBlackhole(true)
	cl.upcall().InjectBlackhole(true)
	waitFor(t, 3*time.Second, "client to declare server unresponsive", func() bool {
		return c.Metrics().ServerUnresponsive
	})
	if m := c.Metrics(); m.HeartbeatsSent == 0 {
		t.Errorf("HeartbeatsSent = %d, want > 0", m.HeartbeatsSent)
	}
}

// --- metrics hot path --------------------------------------------------------

func TestMetricsConcurrentCounting(t *testing.T) {
	m := newMetrics()
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				m.countCall("counter", "Add", i%2 == 0)
				m.countBatch()
			}
		}(w)
	}
	wg.Wait()
	srv := &Server{metrics: m}
	srv.exec = newExecutor(srv, 1, false)
	snap := srv.Metrics()
	if got := snap.Calls["counter.Add"]; got != workers*per {
		t.Errorf("counter.Add = %d, want %d", got, workers*per)
	}
	if snap.SyncCalls+snap.AsyncCalls != workers*per {
		t.Errorf("sync+async = %d, want %d", snap.SyncCalls+snap.AsyncCalls, workers*per)
	}
	if snap.Batches != workers*per {
		t.Errorf("Batches = %d, want %d", snap.Batches, workers*per)
	}
}
