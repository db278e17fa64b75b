package core

import (
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clam/internal/dynload"
)

// Ordering-semantics tests for the dispatch executor (executor.go), run
// under both of its policies: each must keep every guarantee of the
// paper's per-session dispatcher — same-object calls never interleave,
// one client task's calls execute in program order (§3.4) — while the
// per-object policy actually overlaps independent objects, which only it
// is asserted to do.

// stepper detects concurrent entry into Step: entries counts handlers
// inside the method, and any count above one proves an interleave.
type stepper struct {
	entries atomic.Int32
	overlap atomic.Bool
	calls   atomic.Int64
}

func (s *stepper) Step() {
	if s.entries.Add(1) > 1 {
		s.overlap.Store(true)
	}
	time.Sleep(50 * time.Microsecond)
	s.entries.Add(-1)
	s.calls.Add(1)
}

// recorder instances share one log, so calls spread across two objects
// still reveal their global execution order.
type recorder struct{ log *orderLog }

type orderLog struct {
	mu      sync.Mutex
	seq     []string
	release chan struct{} // closed by the test to let Await return
}

// Await notes s once the test closes the log's release channel: a handler
// that holds its object (and, in the serial policy, the one worker) for
// as long as the test needs.
func (r *recorder) Await(s string) {
	<-r.log.release
	r.Note(s)
}

func (r *recorder) Note(s string) {
	r.log.mu.Lock()
	r.log.seq = append(r.log.seq, s)
	r.log.mu.Unlock()
}

func (l *orderLog) snapshot() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.seq...)
}

// gate instances share a meeting point: Meet returns 1 only if the other
// party's handler is running at the same time. Two calls that serialize
// — on either object — time out and return 0.
type gate struct{ r *meeting }

type meeting struct {
	mu      sync.Mutex
	arrived int
	both    chan struct{}
}

func (g *gate) Meet() int64 {
	g.r.mu.Lock()
	g.r.arrived++
	if g.r.arrived == 2 {
		close(g.r.both)
		g.r.mu.Unlock()
		return 1
	}
	g.r.mu.Unlock()
	select {
	case <-g.r.both:
		return 1
	case <-time.After(3 * time.Second):
		return 0
	}
}

// bouncer makes a distributed upcall to its client mid-handler, so its
// worker yields; act tracks, across every instance, how many handlers
// run unblocked at once.
type bouncer struct {
	act *activity
	fn  func() int64
}

type activity struct{ now, max atomic.Int32 }

func (a *activity) busy(d time.Duration) {
	n := a.now.Add(1)
	for m := a.max.Load(); n > m && !a.max.CompareAndSwap(m, n); m = a.max.Load() {
	}
	time.Sleep(d)
	a.now.Add(-1)
}

func (b *bouncer) Register(fn func() int64) { b.fn = fn }

func (b *bouncer) Bounce() int64 {
	b.act.busy(200 * time.Microsecond)
	v := b.fn()
	b.act.busy(200 * time.Microsecond)
	return v
}

func dispatchLibrary(t testing.TB) *dynload.Library {
	t.Helper()
	lib := dynload.NewLibrary()
	meet := &meeting{both: make(chan struct{})}
	rlog := &orderLog{release: make(chan struct{})}
	act := &activity{}
	lib.MustRegister(dynload.Class{
		Name: "bouncer", Version: 1, Type: reflect.TypeOf(&bouncer{}),
		New: func(any) (any, error) { return &bouncer{act: act}, nil },
	})
	lib.MustRegister(dynload.Class{
		Name: "stepper", Version: 1, Type: reflect.TypeOf(&stepper{}),
		New: func(any) (any, error) { return &stepper{}, nil },
	})
	lib.MustRegister(dynload.Class{
		Name: "gate", Version: 1, Type: reflect.TypeOf(&gate{}),
		New: func(any) (any, error) { return &gate{r: meet}, nil },
	})
	lib.MustRegister(dynload.Class{
		Name: "recorder", Version: 1, Type: reflect.TypeOf(&recorder{}),
		New: func(any) (any, error) { return &recorder{log: rlog}, nil },
	})
	return lib
}

// startDispatchServer boots a server over the probe library on a unix
// socket, publishing one instance of cls under each requested name.
func startDispatchServer(t testing.TB, names map[string]string, opts ...ServerOption) (*Server, string, map[string]any) {
	t.Helper()
	srv := NewServer(dispatchLibrary(t), append([]ServerOption{
		WithServerLog(func(format string, args ...any) { t.Logf(format, args...) }),
	}, opts...)...)
	objs := make(map[string]any)
	for name, cls := range names {
		obj, _, err := srv.CreateInstance(cls, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		srv.SetNamed(name, obj)
		objs[name] = obj
	}
	path := filepath.Join(t.TempDir(), "clam.sock")
	if _, err := srv.Listen("unix", path); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, path, objs
}

// forEachDispatchMode runs a subtest under the per-object executor and
// under the serial ablation, passing the matching server options.
func forEachDispatchMode(t *testing.T, fn func(t *testing.T, opts []ServerOption)) {
	t.Run("perobject", func(t *testing.T) { fn(t, nil) })
	t.Run("serial", func(t *testing.T) {
		fn(t, []ServerOption{WithPerObjectDispatch(false)})
	})
}

// TestDispatchSameObjectNeverInterleaves: concurrent clients hammering
// one object stay strictly serialized — under both policies.
func TestDispatchSameObjectNeverInterleaves(t *testing.T) {
	forEachDispatchMode(t, func(t *testing.T, opts []ServerOption) {
		_, path, objs := startDispatchServer(t, map[string]string{"step": "stepper"}, opts...)
		st := objs["step"].(*stepper)

		const clients, each = 4, 25
		var wg sync.WaitGroup
		for i := 0; i < clients; i++ {
			c := dialClient(t, path)
			obj, err := c.NamedObject("step")
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < each; j++ {
					if err := obj.Call("Step"); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		if st.overlap.Load() {
			t.Fatal("two handlers ran inside the same object at once")
		}
		if got := st.calls.Load(); got != clients*each {
			t.Fatalf("executed %d calls, want %d", got, clients*each)
		}
	})
}

// TestDispatchSameTaskProgramOrder: one client task's asynchronous calls,
// alternating between two objects and flushed by Sync, execute in program
// order (§3.4) — with client batching on (multi-call batches) and off
// (every call its own message), under both policies.
func TestDispatchSameTaskProgramOrder(t *testing.T) {
	forEachDispatchMode(t, func(t *testing.T, opts []ServerOption) {
		for _, batching := range []bool{true, false} {
			name := "batched"
			if !batching {
				name = "unbatched"
			}
			t.Run(name, func(t *testing.T) {
				_, path, objs := startDispatchServer(t,
					map[string]string{"rec1": "recorder", "rec2": "recorder"}, opts...)
				rlog := objs["rec1"].(*recorder).log

				var dialOpts []DialOption
				if !batching {
					dialOpts = append(dialOpts, WithoutClientBatching())
				}
				c := dialClient(t, path, dialOpts...)
				r1, err := c.NamedObject("rec1")
				if err != nil {
					t.Fatal(err)
				}
				r2, err := c.NamedObject("rec2")
				if err != nil {
					t.Fatal(err)
				}

				const n = 40
				want := make([]string, 0, n)
				for i := 0; i < n; i++ {
					obj := r1
					if i%2 == 1 {
						obj = r2
					}
					s := fmt.Sprintf("s%03d", i)
					if err := obj.Async("Note", s); err != nil {
						t.Fatal(err)
					}
					want = append(want, s)
				}
				if err := c.Sync(); err != nil {
					t.Fatal(err)
				}
				got := rlog.snapshot()
				if len(got) != len(want) {
					t.Fatalf("executed %d calls, want %d: %v", len(got), len(want), got)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("execution order %v, want program order %v", got, want)
					}
				}
			})
		}
	})
}

// TestDispatchCrossObjectOverlap: two synchronous calls from one session
// to distinct objects run simultaneously under the executor — the
// rendezvous only succeeds if both handlers are in flight at once. (The
// serial policy would time this out by design, so it is not run here.)
func TestDispatchCrossObjectOverlap(t *testing.T) {
	srv, path, _ := startDispatchServer(t, map[string]string{"g1": "gate", "g2": "gate"})
	c := dialClient(t, path)

	g1, err := c.NamedObject("g1")
	if err != nil {
		t.Fatal(err)
	}
	g2, err := c.NamedObject("g2")
	if err != nil {
		t.Fatal(err)
	}

	var met1, met2 int64
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if err := g1.CallInto("Meet", []any{&met1}); err != nil {
			t.Error(err)
		}
	}()
	go func() {
		defer wg.Done()
		if err := g2.CallInto("Meet", []any{&met2}); err != nil {
			t.Error(err)
		}
	}()
	wg.Wait()
	if met1 != 1 || met2 != 1 {
		t.Fatalf("rendezvous failed (met1=%d met2=%d): cross-object calls did not overlap", met1, met2)
	}
	if p := srv.Metrics().Dispatch.Parallelism; p < 2 {
		t.Fatalf("DispatchStats.Parallelism = %d, want >= 2", p)
	}
}

// TestDispatchChainPerObjectOrder: a three-address-space chain (top
// client → middle server → bottom server) preserves one task's program
// order end-to-end: asyncs relayed down through proxy handles land on the
// bottom objects in issue order, and the chained Sync flushes them all —
// under both policies (both hops run the same policy per mode).
func TestDispatchChainPerObjectOrder(t *testing.T) {
	forEachDispatchMode(t, func(t *testing.T, opts []ServerOption) {
		bottom, _, objs := startDispatchServer(t,
			map[string]string{"rec1": "recorder", "rec2": "recorder"}, opts...)
		rlog := objs["rec1"].(*recorder).log

		mid := NewServer(dispatchLibrary(t), append([]ServerOption{
			WithServerLog(func(format string, args ...any) { t.Logf("mid: "+format, args...) }),
		}, opts...)...)
		t.Cleanup(func() { mid.Close() })
		up, err := SelfDialUpstream(mid, bottom, WithClientLog(t.Logf))
		if err != nil {
			t.Fatal(err)
		}
		if err := mid.ImportNamed(up, "rec1", "rec2"); err != nil {
			t.Fatal(err)
		}
		top, err := SelfDial(mid, WithClientLog(t.Logf))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { top.Close() })

		r1, err := top.NamedObject("rec1")
		if err != nil {
			t.Fatal(err)
		}
		r2, err := top.NamedObject("rec2")
		if err != nil {
			t.Fatal(err)
		}

		const n = 50
		want := make([]string, 0, n)
		for i := 0; i < n; i++ {
			obj := r1
			if i%2 == 1 {
				obj = r2
			}
			s := fmt.Sprintf("c%03d", i)
			if err := obj.Async("Note", s); err != nil {
				t.Fatal(err)
			}
			want = append(want, s)
		}
		if err := top.Sync(); err != nil {
			t.Fatal(err)
		}
		got := rlog.snapshot()
		if len(got) != len(want) {
			t.Fatalf("bottom executed %d calls, want %d: %v", len(got), len(want), got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("chain execution order %v, want program order %v", got, want)
			}
		}
	})
}

// TestDispatchSerialSessionArrivalOrder: the serial policy runs one
// session's calls in arrival order even when they are synchronous and
// target distinct objects. Session X holds rec1; session Y's call to rec1
// queues behind it, then Y's call to rec2 arrives. rec2 is free, but the
// second call must still wait for the first, as it would in the paper's
// per-session dispatcher queue.
func TestDispatchSerialSessionArrivalOrder(t *testing.T) {
	srv, path, objs := startDispatchServer(t,
		map[string]string{"rec1": "recorder", "rec2": "recorder"}, WithPerObjectDispatch(false))
	rlog := objs["rec1"].(*recorder).log
	depth := func(n uint64) func() bool {
		return func() bool { return srv.Metrics().Dispatch.QueueDepth == n }
	}
	x, y := dialClient(t, path), dialClient(t, path)
	xr1, err := x.NamedObject("rec1")
	if err != nil {
		t.Fatal(err)
	}
	yr1, err := y.NamedObject("rec1")
	if err != nil {
		t.Fatal(err)
	}
	yr2, err := y.NamedObject("rec2")
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	call := func(obj *Remote, method, s string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := obj.Call(method, s); err != nil {
				t.Error(err)
			}
		}()
	}
	call(xr1, "Await", "x-hold")
	waitFor(t, 3*time.Second, "x's call to start", depth(1))
	call(yr1, "Note", "y-first")
	waitFor(t, 3*time.Second, "y's first call to queue", depth(2))
	call(yr2, "Note", "y-second")
	waitFor(t, 3*time.Second, "y's second call to queue", depth(3))
	close(rlog.release)
	wg.Wait()

	got := rlog.snapshot()
	want := []string{"x-hold", "y-first", "y-second"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("execution order %v, want %v", got, want)
	}
}

// TestDispatchSerialOneHandlerAfterYield: under the serial policy a
// handler that yields for an upcall hands the one worker slot to a
// replacement, and on resuming waits for that slot again, so handlers
// from concurrent sessions never run unblocked at the same time.
func TestDispatchSerialOneHandlerAfterYield(t *testing.T) {
	srv, path, objs := startDispatchServer(t, map[string]string{"b": "bouncer"}, WithPerObjectDispatch(false))
	act := objs["b"].(*bouncer).act // shared by every bouncer of the server
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		c := dialClient(t, path)
		b, err := c.New("bouncer", 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Call("Register", func() int64 {
			time.Sleep(100 * time.Microsecond)
			return 1
		}); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 30; j++ {
				var v int64
				if err := b.CallInto("Bounce", []any{&v}); err != nil || v != 1 {
					t.Errorf("Bounce = %d, %v", v, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	d := srv.Metrics().Dispatch
	if d.WorkerStalls == 0 {
		t.Fatal("no handler yielded; the test exercised nothing")
	}
	if m := act.max.Load(); m != 1 {
		t.Errorf("%d handlers ran unblocked at once, want 1", m)
	}
	if d.Parallelism != 1 {
		t.Errorf("Dispatch.Parallelism = %d, want 1", d.Parallelism)
	}
}

// TestDispatchMetricsReportEngine: the snapshot names the engine in play
// and, after a concurrent burst, the executor's high-water mark proves
// real overlap happened.
func TestDispatchMetricsReportEngine(t *testing.T) {
	srv, path, _ := startDispatchServer(t, map[string]string{"g1": "gate", "g2": "gate"})
	c := dialClient(t, path)
	g1, _ := c.NamedObject("g1")
	g2, _ := c.NamedObject("g2")
	var m1, m2 int64
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); _ = g1.CallInto("Meet", []any{&m1}) }()
	go func() { defer wg.Done(); _ = g2.CallInto("Meet", []any{&m2}) }()
	wg.Wait()

	d := srv.Metrics().Dispatch
	if !d.PerObject {
		t.Fatal("Dispatch.PerObject = false, want true by default")
	}
	if d.Workers < 2 {
		t.Fatalf("Dispatch.Workers = %d, want >= 2", d.Workers)
	}
	if d.Parallelism < 2 {
		t.Fatalf("Dispatch.Parallelism = %d, want >= 2 after concurrent burst", d.Parallelism)
	}

	sr, _, _ := startDispatchServer(t, map[string]string{"s": "stepper"}, WithPerObjectDispatch(false))
	if ds := sr.Metrics().Dispatch; ds.PerObject || ds.Workers != 1 {
		t.Fatalf("serial Dispatch = %+v, want {Workers:1 PerObject:false}", ds)
	}
}
