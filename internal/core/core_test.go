package core

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clam/internal/handle"
	"clam/internal/rpc"
)

func TestHelloAssignsSessions(t *testing.T) {
	srv, path := startServer(t)
	c1 := dialClient(t, path)
	c2 := dialClient(t, path)
	if c1.SessionID() == 0 || c1.SessionID() == c2.SessionID() {
		t.Errorf("session ids: %d, %d", c1.SessionID(), c2.SessionID())
	}
	if srv.SessionCount() != 2 {
		t.Errorf("server sees %d sessions", srv.SessionCount())
	}
}

func TestLoadAndCall(t *testing.T) {
	_, path := startServer(t)
	c := dialClient(t, path)
	classID, version, err := c.LoadClass("counter", 0)
	if err != nil {
		t.Fatal(err)
	}
	if classID == 0 || version != 1 {
		t.Errorf("load: class=%d v=%d", classID, version)
	}
	obj, err := c.New("counter", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := obj.Call("Add", int64(40)); err != nil {
		t.Fatal(err)
	}
	if err := obj.Call("Add", 2); err != nil { // width conversion int→int64
		t.Fatal(err)
	}
	var total int64
	if err := obj.CallInto("Total", []any{&total}); err != nil {
		t.Fatal(err)
	}
	if total != 42 {
		t.Errorf("total = %d", total)
	}
}

func TestLoadUnknownClass(t *testing.T) {
	_, path := startServer(t)
	c := dialClient(t, path)
	if _, _, err := c.LoadClass("no-such-class", 0); err == nil {
		t.Error("loading unknown class succeeded")
	}
	if _, err := c.New("counter", 99); err == nil {
		t.Error("instantiating with impossible min version succeeded")
	}
}

func TestApplicationErrorCrossesWire(t *testing.T) {
	_, path := startServer(t)
	c := dialClient(t, path)
	obj, err := c.New("counter", 0)
	if err != nil {
		t.Fatal(err)
	}
	var q int64
	err = obj.CallInto("Div", []any{&q}, int64(1), int64(0))
	var re *rpc.RemoteError
	if !errors.As(err, &re) || re.Status != rpc.StatusAppError {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(re.Msg, "divide by zero") {
		t.Errorf("msg = %q", re.Msg)
	}
	// The connection stays healthy after an application error.
	if err := obj.CallInto("Div", []any{&q}, int64(6), int64(3)); err != nil || q != 2 {
		t.Errorf("follow-up call: q=%d err=%v", q, err)
	}
}

func TestUnknownMethod(t *testing.T) {
	_, path := startServer(t)
	c := dialClient(t, path)
	obj, _ := c.New("counter", 0)
	err := obj.Call("Bogus")
	var re *rpc.RemoteError
	if !errors.As(err, &re) || re.Status != rpc.StatusDispatch {
		t.Fatalf("err = %v", err)
	}
}

func TestInOutPointerOverWire(t *testing.T) {
	_, path := startServer(t)
	c := dialClient(t, path)
	obj, _ := c.New("counter", 0)
	v := vec2{X: 3, Y: 4}
	if err := obj.Call("Scale", int64(10), &v); err != nil {
		t.Fatal(err)
	}
	if v.X != 30 || v.Y != 40 {
		t.Errorf("v = %+v, server mutation not applied", v)
	}
}

func TestAsyncBatchingOrderAndSync(t *testing.T) {
	_, path := startServer(t)
	c := dialClient(t, path)
	obj, _ := c.New("counter", 0)
	for i := 0; i < 10; i++ {
		if err := obj.Async("Record", fmtArgs("event-", i)); err != nil {
			t.Fatal(err)
		}
	}
	// Nothing is guaranteed delivered until a synchronization point.
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	var log []string
	// Log returns a slice result.
	srvObj := obj
	if err := srvObj.CallInto("Log", []any{&log}); err != nil {
		t.Fatal(err)
	}
	if len(log) != 10 {
		t.Fatalf("log = %v", log)
	}
	for i, e := range log {
		if e != fmtArgs("event-", i) {
			t.Errorf("log[%d] = %q: batched calls reordered", i, e)
		}
	}
}

func TestSyncCallFlushesBatch(t *testing.T) {
	srv, path := startServer(t)
	c := dialClient(t, path)
	obj, _ := c.New("counter", 0)
	for i := 0; i < 5; i++ {
		obj.Async("Add", int64(1))
	}
	var total int64
	// The synchronous call travels in the same message, after the batch.
	if err := obj.CallInto("Total", []any{&total}); err != nil {
		t.Fatal(err)
	}
	if total != 5 {
		t.Errorf("total = %d: sync call overtook batched calls", total)
	}
	_ = srv
}

func TestObjectPointerReturnsBecomeRemotes(t *testing.T) {
	_, path := startServer(t)
	c := dialClient(t, path)
	p, err := c.New("parent", 0)
	if err != nil {
		t.Fatal(err)
	}
	var kid *Remote
	if err := p.CallInto("Child", []any{&kid}, int64(0)); err != nil {
		t.Fatal(err)
	}
	if kid == nil {
		t.Fatal("nil remote for existing child")
	}
	var name string
	if err := kid.CallInto("Name", []any{&name}); err != nil {
		t.Fatal(err)
	}
	if name != "alice" {
		t.Errorf("name = %q", name)
	}
	// Out-of-range child comes back as a nil remote.
	var none *Remote
	if err := p.CallInto("Child", []any{&none}, int64(99)); err != nil {
		t.Fatal(err)
	}
	if none != nil {
		t.Errorf("none = %v, want nil", none)
	}
}

func TestObjectPointerPassedBackIn(t *testing.T) {
	_, path := startServer(t)
	c := dialClient(t, path)
	p, _ := c.New("parent", 0)
	var kid *Remote
	if err := p.CallInto("Child", []any{&kid}, int64(1)); err != nil {
		t.Fatal(err)
	}
	var idx int64
	// Passing the handle back in resolves to the same server object.
	if err := p.CallInto("Adopt", []any{&idx}, kid); err != nil {
		t.Fatal(err)
	}
	if idx != 1 {
		t.Errorf("Adopt found index %d, want 1 (identity lost)", idx)
	}
}

func TestHandleReuseIsStable(t *testing.T) {
	_, path := startServer(t)
	c := dialClient(t, path)
	p, _ := c.New("parent", 0)
	var k1, k2 *Remote
	p.CallInto("Child", []any{&k1}, int64(0))
	p.CallInto("Child", []any{&k2}, int64(0))
	if k1.Handle() != k2.Handle() {
		t.Errorf("same object exported twice with different handles: %v vs %v", k1.Handle(), k2.Handle())
	}
}

func TestForgedHandleRejected(t *testing.T) {
	_, path := startServer(t)
	c := dialClient(t, path)
	obj, _ := c.New("counter", 0)
	forged := &Remote{c: c, h: handle.Handle{ID: obj.Handle().ID, Tag: obj.Handle().Tag ^ 1}}
	err := forged.Call("Add", int64(1))
	var re *rpc.RemoteError
	if !errors.As(err, &re) || re.Status != rpc.StatusDispatch {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(re.Msg, "tag mismatch") {
		t.Errorf("msg = %q", re.Msg)
	}
}

func TestKindMismatchOverWire(t *testing.T) {
	_, path := startServer(t)
	c := dialClient(t, path)
	obj, _ := c.New("counter", 0)
	err := obj.Call("Add", "not a number")
	var re *rpc.RemoteError
	if !errors.As(err, &re) || re.Status != rpc.StatusDispatch {
		t.Fatalf("err = %v", err)
	}
}

func TestDistributedUpcall(t *testing.T) {
	_, path := startServer(t)
	c := dialClient(t, path)
	n, err := c.New("notifier", 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	var mu sync.Mutex
	handler := func(x int32, s string) int32 {
		mu.Lock()
		got = append(got, fmtArgs(s, ":", x))
		mu.Unlock()
		return x * 2
	}
	if err := n.Call("Register", handler); err != nil {
		t.Fatal(err)
	}
	var count int64
	if err := n.CallInto("Count", []any{&count}); err != nil || count != 1 {
		t.Fatalf("count=%d err=%v", count, err)
	}
	var sum int32
	if err := n.CallInto("Trigger", []any{&sum}, int32(21), "mouse"); err != nil {
		t.Fatal(err)
	}
	if sum != 42 {
		t.Errorf("upcall result sum = %d", sum)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 || got[0] != "mouse:21" {
		t.Errorf("handler saw %v", got)
	}
}

func TestMultipleUpcallRegistrations(t *testing.T) {
	_, path := startServer(t)
	c := dialClient(t, path)
	n, _ := c.New("notifier", 0)
	var calls atomic.Int32
	for i := 0; i < 3; i++ {
		if err := n.Call("Register", func(x int32, s string) int32 {
			calls.Add(1)
			return 1
		}); err != nil {
			t.Fatal(err)
		}
	}
	var sum int32
	if err := n.CallInto("Trigger", []any{&sum}, int32(0), "e"); err != nil {
		t.Fatal(err)
	}
	if sum != 3 || calls.Load() != 3 {
		t.Errorf("sum=%d calls=%d", sum, calls.Load())
	}
	if c.ProcCount() != 3 {
		t.Errorf("client holds %d procs", c.ProcCount())
	}
}

func TestUpcallsFromTwoClientsIsolated(t *testing.T) {
	srv, path := startServer(t)
	// One shared notifier published by name.
	obj, _, err := srv.CreateInstance("notifier", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv.SetNamed("notifier", obj)

	c1 := dialClient(t, path)
	c2 := dialClient(t, path)
	n1, err := c1.NamedObject("notifier")
	if err != nil {
		t.Fatal(err)
	}
	n2, err := c2.NamedObject("notifier")
	if err != nil {
		t.Fatal(err)
	}
	var got1, got2 atomic.Int32
	if err := n1.Call("Register", func(x int32, s string) int32 { got1.Add(1); return 1 }); err != nil {
		t.Fatal(err)
	}
	if err := n2.Call("Register", func(x int32, s string) int32 { got2.Add(1); return 10 }); err != nil {
		t.Fatal(err)
	}
	var sum int32
	if err := n1.CallInto("Trigger", []any{&sum}, int32(1), "e"); err != nil {
		t.Fatal(err)
	}
	if sum != 11 {
		t.Errorf("sum = %d: upcalls to both clients should contribute", sum)
	}
	if got1.Load() != 1 || got2.Load() != 1 {
		t.Errorf("handler counts: %d, %d", got1.Load(), got2.Load())
	}
}

// The reentrant pattern behind the sweep example's finale: an upcall
// handler makes an RPC back into the server while the server task that
// made the upcall is still blocked. In the serial ablation the reentrant
// call queues behind the blocked one on the session's chain and the pool
// has one worker, so it only runs because the upcall yields.
func TestReentrantCallDuringUpcall(t *testing.T) {
	forEachDispatchMode(t, func(t *testing.T, opts []ServerOption) {
		testReentrantCallDuringUpcall(t, opts)
	})
}

func testReentrantCallDuringUpcall(t *testing.T, opts []ServerOption) {
	srv, path := startServer(t, opts...)
	obj, _, err := srv.CreateInstance("counter", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv.SetNamed("counter", obj)

	c := dialClient(t, path)
	n, _ := c.New("notifier", 0)
	cnt, err := c.NamedObject("counter")
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Call("Register", func(x int32, s string) int32 {
		// Call back into the server from inside the upcall handler.
		if err := cnt.Call("Add", int64(x)); err != nil {
			t.Errorf("reentrant call: %v", err)
			return -1
		}
		return x
	}); err != nil {
		t.Fatal(err)
	}
	var sum int32
	if err := n.CallInto("Trigger", []any{&sum}, int32(7), "go"); err != nil {
		t.Fatal(err)
	}
	if sum != 7 {
		t.Errorf("sum = %d", sum)
	}
	var total int64
	if err := cnt.CallInto("Total", []any{&total}); err != nil || total != 7 {
		t.Errorf("total=%d err=%v", total, err)
	}
}

func TestFaultIsolationSyncCall(t *testing.T) {
	_, path := startServer(t)
	c := dialClient(t, path)
	f, _ := c.New("faulty", 0)
	err := f.Call("Crash")
	var re *rpc.RemoteError
	if !errors.As(err, &re) || re.Status != rpc.StatusFault {
		t.Fatalf("err = %v, want fault status", err)
	}
	// The server survived the fault.
	var one int64
	if err := f.CallInto("Fine", []any{&one}); err != nil || one != 1 {
		t.Errorf("server did not survive the fault: %v", err)
	}
}

func TestFaultReportUpcallForAsyncCall(t *testing.T) {
	_, path := startServer(t)
	c := dialClient(t, path)
	reports := make(chan FaultReport, 1)
	c.OnFault(func(r FaultReport) {
		select {
		case reports <- r:
		default:
		}
	})
	f, _ := c.New("faulty", 0)
	if err := f.Async("Crash"); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-reports:
		if r.Class != "faulty" || r.Method != "Crash" {
			t.Errorf("report = %+v", r)
		}
		if !strings.Contains(r.String(), "faulty.Crash") {
			t.Errorf("report string = %q", r.String())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no fault report arrived")
	}
}

func TestNamedObjectMissing(t *testing.T) {
	_, path := startServer(t)
	c := dialClient(t, path)
	if _, err := c.NamedObject("ghost"); err == nil {
		t.Error("NamedObject(ghost) succeeded")
	}
}

func TestUnloadStopsDispatch(t *testing.T) {
	_, path := startServer(t)
	c := dialClient(t, path)
	obj, _ := c.New("counter", 0)
	if err := c.Unload("counter", 1); err != nil {
		t.Fatal(err)
	}
	err := obj.Call("Add", int64(1))
	var re *rpc.RemoteError
	if !errors.As(err, &re) || re.Status != rpc.StatusDispatch {
		t.Fatalf("call after unload: %v", err)
	}
}

func TestTCPTransport(t *testing.T) {
	_, addr := tcpServer(t)
	c, err := Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	obj, err := c.New("counter", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := obj.Call("Add", int64(5)); err != nil {
		t.Fatal(err)
	}
	var total int64
	if err := obj.CallInto("Total", []any{&total}); err != nil || total != 5 {
		t.Errorf("total=%d err=%v", total, err)
	}
}

func TestClientCloseLeavesServerServing(t *testing.T) {
	srv, path := startServer(t)
	c1 := dialClient(t, path)
	obj, _ := c1.New("counter", 0)
	obj.Call("Add", int64(1))
	c1.Close()

	deadline := time.Now().Add(2 * time.Second)
	for srv.SessionCount() != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if srv.SessionCount() != 0 {
		t.Errorf("server still tracks %d sessions", srv.SessionCount())
	}

	c2 := dialClient(t, path)
	o2, err := c2.New("counter", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := o2.Call("Add", int64(2)); err != nil {
		t.Errorf("second client broken: %v", err)
	}
}

func TestCallAfterClose(t *testing.T) {
	_, path := startServer(t)
	c := dialClient(t, path)
	obj, _ := c.New("counter", 0)
	c.Close()
	if err := obj.Call("Add", int64(1)); err == nil {
		t.Error("call on closed client succeeded")
	}
}

func TestConcurrentClients(t *testing.T) {
	srv, path := startServer(t)
	obj, _, err := srv.CreateInstance("counter", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv.SetNamed("shared", obj)

	const clients, per = 4, 25
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial("unix", path)
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer c.Close()
			shared, err := c.NamedObject("shared")
			if err != nil {
				t.Errorf("named: %v", err)
				return
			}
			for j := 0; j < per; j++ {
				if err := shared.Call("Add", int64(1)); err != nil {
					t.Errorf("add: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	var total int64
	c := dialClient(t, path)
	shared, _ := c.NamedObject("shared")
	if err := shared.CallInto("Total", []any{&total}); err != nil {
		t.Fatal(err)
	}
	if total != clients*per {
		t.Errorf("total = %d, want %d", total, clients*per)
	}
}

func TestUntypedNilArgRejected(t *testing.T) {
	_, path := startServer(t)
	c := dialClient(t, path)
	obj, _ := c.New("counter", 0)
	if err := obj.Call("Add", nil); err == nil {
		t.Error("untyped nil argument accepted")
	}
}

func TestRemoteString(t *testing.T) {
	_, path := startServer(t)
	c := dialClient(t, path)
	obj, _ := c.New("counter", 0)
	if s := obj.String(); !strings.Contains(s, "remote(") {
		t.Errorf("String() = %q", s)
	}
}
