// Benchmarks reproducing the paper's evaluation: one benchmark per row of
// Figure 5.1 ("Procedure Call Costs") plus the A-1…A-5 ablations from
// DESIGN.md. Absolute numbers will not match a 1988 MicroVAX-II; the
// claims under test are the *shape* — local calls within a small factor
// of each other, address-space crossings orders of magnitude dearer,
// unix < tcp < wan, and remote upcalls costing about the same as remote
// calls on each transport. EXPERIMENTS.md records paper-vs-measured.
package clam_test

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clam"
	"clam/internal/benchlib"
	"clam/internal/bundle"
	"clam/internal/core"
	"clam/internal/dynload"
	"clam/internal/handle"
	"clam/internal/task"
	"clam/internal/wire"
	"clam/internal/wm"
	"clam/internal/xdr"
)

// --- Figure 5.1, rows a–c: calls inside one address space -------------------

// Row a: statically linked procedure call (paper: 19 µs).
func BenchmarkFig51_StaticCall(b *testing.B) {
	var n int64
	for i := 0; i < b.N; i++ {
		n = benchlib.StaticCall(n)
	}
	sinkInt64 = n
}

var sinkInt64 int64

// Row b: dynamically loaded procedure calling another dynamically loaded
// procedure (paper: 21 µs).
func BenchmarkFig51_DynToDynCall(b *testing.B) {
	lib := dynload.NewLibrary()
	if err := benchlib.Register(lib); err != nil {
		b.Fatal(err)
	}
	ld := dynload.NewLoader(lib)
	pc, err := ld.Load("pinger", 0)
	if err != nil {
		b.Fatal(err)
	}
	rc, err := ld.Load("relay", 0)
	if err != nil {
		b.Fatal(err)
	}
	pObj, err := pc.New(nil)
	if err != nil {
		b.Fatal(err)
	}
	rObj, err := rc.New(nil)
	if err != nil {
		b.Fatal(err)
	}
	relay := rObj.(*benchlib.Relay)
	relay.SetTarget(pObj.(*benchlib.Pinger))
	b.ResetTimer()
	var n int64
	for i := 0; i < b.N; i++ {
		n = relay.Relay()
	}
	sinkInt64 = n
}

// Row c: upcall with both procedures in the server (paper: 19 µs): the
// lower layer invokes a registered procedure pointer.
func BenchmarkFig51_LocalUpcall(b *testing.B) {
	e := &benchlib.Echo{}
	e.Register(func(x int64) int64 { return x + 1 })
	b.ResetTimer()
	var n int64
	for i := 0; i < b.N; i++ {
		v, err := e.Call(n)
		if err != nil {
			b.Fatal(err)
		}
		n = v
	}
	sinkInt64 = n
}

// --- Figure 5.1, rows d–i: calls crossing address spaces --------------------

func remoteCallBench(b *testing.B, network string, dialOpts ...core.DialOption) {
	b.Helper()
	fx, err := benchlib.Boot(network, b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer fx.Server.Close()
	opts := append([]core.DialOption{core.WithClientLog(func(string, ...any) {})}, dialOpts...)
	c, err := core.Dial(fx.Network, fx.Addr, opts...)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	rem, err := c.NamedObject("pinger")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var n int64
	for i := 0; i < b.N; i++ {
		if err := rem.CallInto("Ping", []any{&n}); err != nil {
			b.Fatal(err)
		}
	}
	sinkInt64 = n
}

func remoteUpcallBench(b *testing.B, network string, dialOpts ...core.DialOption) {
	b.Helper()
	fx, err := benchlib.Boot(network, b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer fx.Server.Close()
	opts := append([]core.DialOption{core.WithClientLog(func(string, ...any) {})}, dialOpts...)
	c, err := core.Dial(fx.Network, fx.Addr, opts...)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	echo, err := c.NamedObject("echo")
	if err != nil {
		b.Fatal(err)
	}
	// The client registers its procedure; the server ends up holding a
	// RUC proxy that looks like a normal procedure pointer.
	if err := echo.Call("Register", func(x int64) int64 { return x + 1 }); err != nil {
		b.Fatal(err)
	}
	fn := fx.Echo.Proc()
	if fn == nil {
		b.Fatal("registration did not reach the server")
	}
	b.ResetTimer()
	var n int64
	for i := 0; i < b.N; i++ {
		n = fn(n) // distributed upcall: server → client → server
	}
	sinkInt64 = n
}

// Extra row (not in the paper): the full protocol over an in-memory pipe
// in one process — isolates protocol overhead from kernel IPC cost, which
// is the remainder of rows d–g.
func BenchmarkExtra_RemoteCallPipe(b *testing.B) {
	fx, err := benchlib.Boot("unix", b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer fx.Server.Close()
	c, err := core.SelfDial(fx.Server, core.WithClientLog(func(string, ...any) {}))
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	rem, err := c.NamedObject("pinger")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var n int64
	for i := 0; i < b.N; i++ {
		if err := rem.CallInto("Ping", []any{&n}); err != nil {
			b.Fatal(err)
		}
	}
	sinkInt64 = n
}

// Extra: the relaxed concurrent-upcall mode (§4.4's "may be relaxed in
// future designs") vs the paper's serial limit, under 4 concurrent
// server-side triggers of a handler that takes ~1ms.
func BenchmarkExtra_UpcallConcurrency(b *testing.B) {
	run := func(b *testing.B, srvOpts []core.ServerOption, dialOpts []core.DialOption) {
		fx, err := benchlib.Boot("unix", b.TempDir(), srvOpts...)
		if err != nil {
			b.Fatal(err)
		}
		defer fx.Server.Close()
		opts := append([]core.DialOption{core.WithClientLog(func(string, ...any) {})}, dialOpts...)
		c, err := core.Dial(fx.Network, fx.Addr, opts...)
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		echo, err := c.NamedObject("echo")
		if err != nil {
			b.Fatal(err)
		}
		if err := echo.Call("Register", func(x int64) int64 {
			time.Sleep(time.Millisecond)
			return x
		}); err != nil {
			b.Fatal(err)
		}
		fn := fx.Echo.Proc()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					fn(1)
				}()
			}
			wg.Wait()
		}
	}
	b.Run("serial-limit", func(b *testing.B) { run(b, nil, nil) })
	b.Run("relaxed", func(b *testing.B) {
		run(b,
			[]core.ServerOption{core.WithMaxClientUpcalls(4)},
			[]core.DialOption{core.WithUpcallHandlers(4)})
	})
}

// Row d: remote call, both processes on one machine, UNIX-domain
// connection (paper: 7 200 µs).
func BenchmarkFig51_RemoteCallUnix(b *testing.B) { remoteCallBench(b, "unix") }

// Row e: remote upcall, same machine, UNIX domain (paper: 7 200 µs).
func BenchmarkFig51_RemoteUpcallUnix(b *testing.B) { remoteUpcallBench(b, "unix") }

// Row f: remote call, same machine, TCP/IP (paper: 11 500 µs).
func BenchmarkFig51_RemoteCallTCP(b *testing.B) { remoteCallBench(b, "tcp") }

// Row g: remote upcall, same machine, TCP/IP (paper: 11 500 µs).
func BenchmarkFig51_RemoteUpcallTCP(b *testing.B) { remoteUpcallBench(b, "tcp") }

// wanLatency models the extra propagation delay of the paper's Ethernet
// hop: the paper's gap between same-machine TCP and cross-machine TCP is
// ~0.9 ms per call.
const wanLatency = 450 * time.Microsecond // one-way; ~0.9 ms per round trip

// Row h: remote call, processes on different machines (paper: 12 400 µs).
// The second machine is a simulated link, per DESIGN.md substitutions.
func BenchmarkFig51_RemoteCallWAN(b *testing.B) {
	remoteCallBench(b, "tcp", core.WithDialFunc(benchlib.WANDialer(wanLatency, 0)))
}

// Row i: remote upcall, different machines (paper: 12 800 µs).
func BenchmarkFig51_RemoteUpcallWAN(b *testing.B) {
	remoteUpcallBench(b, "tcp", core.WithDialFunc(benchlib.WANDialer(wanLatency, 0)))
}

// --- Ablation A-7: pooled vs unpooled wire frames ----------------------------

// BenchmarkAblation_FramePooling isolates what the sync.Pool frame
// recycling in internal/wire buys on the remote-call hot path. Run with
// -benchmem: the pooled/unpooled gap shows up in B/op and allocs/op.
func BenchmarkAblation_FramePooling(b *testing.B) {
	b.Run("pooled", func(b *testing.B) {
		wire.SetPooling(true)
		remoteCallBench(b, "unix")
	})
	b.Run("unpooled", func(b *testing.B) {
		wire.SetPooling(false)
		defer wire.SetPooling(true)
		remoteCallBench(b, "unix")
	})
}

// --- Ablation A-1: batched vs unbatched asynchronous calls (§3.4) -----------

func batchingBench(b *testing.B, dialOpts ...core.DialOption) {
	b.Helper()
	fx, err := benchlib.Boot("unix", b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer fx.Server.Close()
	opts := append([]core.DialOption{core.WithClientLog(func(string, ...any) {})}, dialOpts...)
	c, err := core.Dial(fx.Network, fx.Addr, opts...)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	rem, err := c.NamedObject("pinger")
	if err != nil {
		b.Fatal(err)
	}
	const burst = 32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < burst; j++ {
			if err := rem.Async("Ping"); err != nil {
				b.Fatal(err)
			}
		}
		if err := c.Sync(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(burst), "calls/op")
}

func BenchmarkAblation_Batching(b *testing.B) {
	b.Run("batched", func(b *testing.B) {
		batchingBench(b, core.WithMaxBatch(64))
	})
	b.Run("unbatched", func(b *testing.B) {
		batchingBench(b, core.WithoutClientBatching())
	})
}

// --- Ablation A-2: sweep placement (§2.1) -----------------------------------

// sweepEvents is one full gesture: press, moves, release.
const sweepMoves = 32

func driveSweep(scr *wm.Screen) {
	scr.InjectMouse(wm.MouseEvent{Kind: wm.MouseDown, X: 10, Y: 10, Buttons: wm.ButtonLeft})
	for d := int16(1); d <= sweepMoves; d++ {
		scr.InjectMouse(wm.MouseEvent{Kind: wm.MouseMove, X: 10 + d, Y: 10 + d})
	}
	scr.InjectMouseWait(wm.MouseEvent{Kind: wm.MouseUp, X: 10 + sweepMoves, Y: 10 + sweepMoves})
}

func bootWM(b *testing.B) (*core.Server, *wm.Screen, string) {
	b.Helper()
	lib := dynload.NewLibrary()
	wm.MustRegister(lib, wm.Config{Width: 300, Height: 300})
	srv := core.NewServer(lib, core.WithServerLog(func(string, ...any) {}))
	sobj, _, err := srv.CreateInstance("screen", 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	scr := sobj.(*wm.Screen)
	srv.SetNamed("screen", scr)
	wobj, _, err := srv.CreateInstance("window", 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	srv.SetNamed("basewindow", wobj)
	sock := b.TempDir() + "/clam.sock"
	if _, err := srv.Listen("unix", sock); err != nil {
		b.Fatal(err)
	}
	return srv, scr, sock
}

func BenchmarkAblation_SweepPlacement(b *testing.B) {
	// builtin: everything in one address space, no clients at all — the
	// paper's "directly in the window server" placement.
	b.Run("builtin", func(b *testing.B) {
		scr := wm.NewScreen(300, 300, nil)
		base := wm.NewBaseWindow(scr)
		sw := wm.NewSweep()
		sw.SetTransparent(true)
		sw.Attach(base)
		done := 0
		sw.OnCreated(func(wm.Rect) { done++ })
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			driveSweep(scr)
		}
		if done != b.N {
			b.Fatalf("completed %d sweeps, want %d", done, b.N)
		}
	})

	// server: sweeping layer loaded into the server; only the final
	// "window created" event crosses to the client.
	b.Run("server", func(b *testing.B) {
		srv, scr, sock := bootWM(b)
		defer srv.Close()
		c, err := core.Dial("unix", sock, core.WithClientLog(func(string, ...any) {}))
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		baseRem, err := c.NamedObject("basewindow")
		if err != nil {
			b.Fatal(err)
		}
		sweepRem, err := c.NewExact("sweep", 1)
		if err != nil {
			b.Fatal(err)
		}
		if err := sweepRem.Call("Attach", baseRem); err != nil {
			b.Fatal(err)
		}
		if err := sweepRem.Call("SetTransparent", true); err != nil {
			b.Fatal(err)
		}
		created := make(chan wm.Rect, 1)
		if err := sweepRem.Call("OnCreated", func(r wm.Rect) { created <- r }); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			driveSweep(scr)
			<-created
		}
	})

	// client: X-style placement; every input event crosses to the client
	// as a distributed upcall before being interpreted.
	b.Run("client", func(b *testing.B) {
		srv, scr, sock := bootWM(b)
		defer srv.Close()
		c, err := core.Dial("unix", sock, core.WithClientLog(func(string, ...any) {}))
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		baseRem, err := c.NamedObject("basewindow")
		if err != nil {
			b.Fatal(err)
		}
		done := make(chan wm.Rect, 1)
		var anchor wm.Point
		if err := baseRem.Call("PostMouse", func(ev wm.MouseEvent) {
			switch ev.Kind {
			case wm.MouseDown:
				anchor = ev.Pos()
			case wm.MouseUp:
				done <- wm.Rect{X: anchor.X, Y: anchor.Y, W: ev.X - anchor.X, H: ev.Y - anchor.Y}.Canon()
			}
		}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			driveSweep(scr)
			<-done
		}
	})
}

// --- Ablation A-3: task reuse vs fresh task per event (§4.4) ----------------

func taskChurnBench(b *testing.B, opts ...task.Option) {
	b.Helper()
	s := task.New(opts...)
	defer s.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done := make(chan struct{})
		if err := s.Spawn(func(*task.Task) { close(done) }); err != nil {
			b.Fatal(err)
		}
		<-done
	}
	b.StopTimer()
	_, created, reused := s.Stats()
	b.ReportMetric(float64(created), "goroutines")
	b.ReportMetric(float64(reused), "reuses")
}

func BenchmarkAblation_TaskReuse(b *testing.B) {
	b.Run("pooled", func(b *testing.B) { taskChurnBench(b) })
	b.Run("fresh", func(b *testing.B) { taskChurnBench(b, task.WithoutReuse()) })
}

// --- Ablation A-4: tree bundling strategies (§3.1) --------------------------

func treeBundleBench(b *testing.B, f bundle.Func) {
	b.Helper()
	root := bundle.NewTree(6) // 63 nodes, fully threaded
	typ := reflect.TypeOf(root)
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		ctx := &bundle.Ctx{}
		if err := f(ctx, xdr.NewEncoder(&buf), reflect.ValueOf(root)); err != nil {
			b.Fatal(err)
		}
		out := reflect.New(typ).Elem()
		ctx2 := &bundle.Ctx{}
		if err := f(ctx2, xdr.NewDecoder(&buf), out); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	var size bytes.Buffer
	if err := f(&bundle.Ctx{}, xdr.NewEncoder(&size), reflect.ValueOf(root)); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(size.Len()), "wire-bytes")
}

func BenchmarkAblation_TreeBundling(b *testing.B) {
	reg := bundle.NewRegistry()
	node := reg.MustCompile(reflect.TypeOf((*bundle.TreeNode)(nil)))
	closure, err := reg.CompileClosure(reflect.TypeOf((*bundle.TreeNode)(nil)))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("node", func(b *testing.B) { treeBundleBench(b, node) })
	b.Run("closure", func(b *testing.B) { treeBundleBench(b, closure) })
	b.Run("user", func(b *testing.B) { treeBundleBench(b, bundle.NodeAndChildrenBundler) })
}

// --- Ablation A-8: write-ahead journal on the call path ---------------------

// BenchmarkAblation_Journal prices durable sessions: the same remote
// sync call with (a) the default ephemeral server, (b) resurrection
// enabled (numbered frames, in-memory only), and (c) resurrection backed
// by the write-ahead journal. The journal's hot-path cost is one
// contiguity check plus a coalesced in-memory mark per executed frame —
// fsyncs ride the group-commit ticker, never a call — so (c) must stay
// within a few percent of (b).
func BenchmarkAblation_Journal(b *testing.B) {
	run := func(b *testing.B, srvOpts ...core.ServerOption) {
		fx, err := benchlib.Boot("unix", b.TempDir(), srvOpts...)
		if err != nil {
			b.Fatal(err)
		}
		defer fx.Server.Close()
		c, err := core.Dial(fx.Network, fx.Addr, core.WithClientLog(func(string, ...any) {}))
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		rem, err := c.NamedObject("pinger")
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		var n int64
		for i := 0; i < b.N; i++ {
			if err := rem.CallInto("Ping", []any{&n}); err != nil {
				b.Fatal(err)
			}
		}
		sinkInt64 = n
	}
	b.Run("ephemeral", func(b *testing.B) { run(b) })
	b.Run("resume", func(b *testing.B) {
		run(b, core.WithResumeWindow(30*time.Second))
	})
	b.Run("resume+journal", func(b *testing.B) {
		run(b, core.WithResumeWindow(30*time.Second), core.WithJournal(b.TempDir()))
	})
}

// --- Ablation A-5: handle validation overhead (§3.5.1) ----------------------

func BenchmarkAblation_HandleLookup(b *testing.B) {
	tbl := handle.NewTable()
	type obj struct{ n int }
	h, err := tbl.Put(&obj{}, 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tbl.Get(h); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Throughput: pipelined load under the per-object executor ---------------
//
// The Figure 5.1 rows measure one call's latency; these rows measure how
// many independent calls the server completes per second when clients
// keep several in flight at once. Each client is its own session, and
// each holds `inflight` synchronous Pings pending from separate
// goroutines (asyncs would not do: §3.4 pins one session's asyncs to
// program order, so only independent synchronous calls may overlap).
// Cross-object rows aim every client at its own pinger instance — the
// case the per-object executor parallelizes; same-object rows all hammer
// one instance, which must stay serialized in every policy. The _Serial
// variants rerun the cross-object shape under the executor's serial
// ablation (WithPerObjectDispatch(false)) as the baseline, and
// the TwoHop rows interpose a middle server relaying over proxy handles
// so the chain's hops parallelize too.

// holdMicros is each handler's simulated wait — long enough that the
// dispatch engine, not the wire, is the bottleneck at 8 clients.
const holdMicros = int64(50)

func throughputBench(b *testing.B, clients, inflight, hops int, cross, serial bool) {
	b.Helper()
	var srvOpts []core.ServerOption
	if serial {
		srvOpts = append(srvOpts, core.WithPerObjectDispatch(false))
	} else {
		// One worker per client: the default pool is sized to GOMAXPROCS
		// for CPU work, but blocked handlers overlap beyond core count.
		srvOpts = append(srvOpts, core.WithDispatchWorkers(clients))
	}
	fx, err := benchlib.Boot("unix", b.TempDir(), srvOpts...)
	if err != nil {
		b.Fatal(err)
	}
	defer fx.Server.Close()

	names := make([]string, clients)
	for i := range names {
		names[i] = "pinger"
	}
	if cross {
		if _, err := fx.PublishPingers(clients); err != nil {
			b.Fatal(err)
		}
		for i := range names {
			names[i] = fmt.Sprintf("pinger%d", i)
		}
	}

	network, addr := fx.Network, fx.Addr
	if hops == 2 {
		lib := dynload.NewLibrary()
		if err := benchlib.Register(lib); err != nil {
			b.Fatal(err)
		}
		mid := core.NewServer(lib, append([]core.ServerOption{
			core.WithServerLog(func(string, ...any) {}),
		}, srvOpts...)...)
		defer mid.Close()
		up, err := core.SelfDialUpstream(mid, fx.Server, core.WithClientLog(func(string, ...any) {}))
		if err != nil {
			b.Fatal(err)
		}
		uniq := make([]string, 0, len(names))
		seen := make(map[string]bool)
		for _, n := range names {
			if !seen[n] {
				seen[n] = true
				uniq = append(uniq, n)
			}
		}
		if err := mid.ImportNamed(up, uniq...); err != nil {
			b.Fatal(err)
		}
		ln, err := mid.Listen("unix", b.TempDir()+"/mid.sock")
		if err != nil {
			b.Fatal(err)
		}
		network, addr = "unix", ln.Addr().String()
	}

	conns := make([]*core.Client, clients)
	objs := make([]*core.Remote, clients)
	for i := range conns {
		c, err := core.Dial(network, addr, core.WithClientLog(func(string, ...any) {}))
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		conns[i] = c
		if objs[i], err = c.NamedObject(names[i]); err != nil {
			b.Fatal(err)
		}
	}

	// Spread b.N calls over clients × inflight workers; ns/op is then
	// wall time per completed call with the parallelism baked in, so
	// throughput = 1e9 / ns_op calls/sec.
	per := b.N / (clients * inflight)
	if per < 1 {
		per = 1
	}
	b.ResetTimer()
	var wg sync.WaitGroup
	var failed atomic.Bool
	for i := 0; i < clients; i++ {
		for j := 0; j < inflight; j++ {
			wg.Add(1)
			go func(obj *core.Remote) {
				defer wg.Done()
				var n int64
				for k := 0; k < per; k++ {
					if err := obj.CallInto("Hold", []any{&n}, holdMicros); err != nil {
						failed.Store(true)
						return
					}
				}
			}(objs[i])
		}
	}
	wg.Wait()
	b.StopTimer()
	if failed.Load() {
		b.Fatal("a pipelined call failed")
	}
}

func BenchmarkThroughput_SameObject_8x4(b *testing.B)  { throughputBench(b, 8, 4, 1, false, false) }
func BenchmarkThroughput_CrossObject_8x4(b *testing.B) { throughputBench(b, 8, 4, 1, true, false) }

// The executor's serial ablation policy on the same shapes.
func BenchmarkThroughput_SameObject_8x4_Serial(b *testing.B) {
	throughputBench(b, 8, 4, 1, false, true)
}
func BenchmarkThroughput_CrossObject_8x4_Serial(b *testing.B) {
	throughputBench(b, 8, 4, 1, true, true)
}

// Two-hop chain: client → middle server → bottom server, relayed over
// proxy handles; the middle tier's executor yields relaying workers while
// they wait on the lower hop, so independent objects pipeline end to end.
func BenchmarkThroughput_TwoHop_CrossObject_4x2(b *testing.B) {
	throughputBench(b, 4, 2, 2, true, false)
}
func BenchmarkThroughput_TwoHop_CrossObject_4x2_Serial(b *testing.B) {
	throughputBench(b, 4, 2, 2, true, true)
}

// Sanity: the facade compiles against the benchmarks' imports.
var _ = clam.NewLibrary
