// Command clambench regenerates the paper's evaluation: Figure 5.1
// ("Procedure Call Costs", ICDCS 1988 §5) row by row, plus the ablation
// experiments from DESIGN.md. For each row it prints the paper's
// MicroVAX-II measurement next to the measured cost here; the absolute
// numbers differ by decades of hardware, so the claims under test are the
// orderings and ratios (see EXPERIMENTS.md).
//
// Usage:
//
//	clambench                       # full run
//	clambench -iters 500            # cheaper run
//	clambench -json BENCH_2.json    # also emit machine-readable results
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"sync"
	"time"

	"clam/internal/benchlib"
	"clam/internal/bundle"
	"clam/internal/core"
	"clam/internal/dynload"
	"clam/internal/handle"
	"clam/internal/task"
	"clam/internal/wire"
	"clam/internal/wm"
	"clam/internal/xdr"

	"bytes"
	"net"
	"reflect"
)

var (
	iters    = flag.Int("iters", 2000, "iterations per measured row")
	jsonPath = flag.String("json", "", "write machine-readable results (BENCH_*.json) to this path")
)

// measure runs fn iters times and returns the mean cost per iteration.
func measure(n int, fn func()) time.Duration {
	return measureCost(n, fn).dur
}

// cost is one row's per-operation price: wall time plus heap traffic.
type cost struct {
	dur      time.Duration
	bytesOp  float64
	allocsOp float64
}

// measureCost runs fn n times and returns the mean per-iteration cost.
// Heap traffic is a whole-process runtime.MemStats delta across the timed
// loop: it includes the read loops and dispatcher serving the call, which
// is the honest per-operation figure for a client/server exchange (and
// why it can differ slightly from testing.B's per-goroutine view).
func measureCost(n int, fn func()) cost {
	// Warm up: connections, stub caches, pools.
	warm := n / 10
	if warm < 10 {
		warm = 10
	}
	for i := 0; i < warm; i++ {
		fn()
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	dur := time.Since(start)
	runtime.ReadMemStats(&m1)
	return cost{
		dur:      dur / time.Duration(n),
		bytesOp:  float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n),
		allocsOp: float64(m1.Mallocs-m0.Mallocs) / float64(n),
	}
}

type row struct {
	label   string
	key     string
	paperUS float64
	cost    cost
}

func main() {
	flag.Parse()
	n := *iters

	if *fanOnly {
		runFanout(*fanSubs, *fanEvents, *fanJSON)
		return
	}
	if *meshOnly {
		runMesh(*meshIters, *meshJSON)
		return
	}
	if *transportOnly {
		runTransport(*transportN, *transportJSON)
		return
	}
	if *overloadOnly {
		runOverload(*overloadDur, *overloadWorkers, *overloadHold, *overloadDeadline, *overloadJSON)
		return
	}

	fmt.Println("CLAM reproduction — Figure 5.1: Procedure Call Costs")
	fmt.Println("(paper: MicroVAX-II, 4.3BSD, 1988; here: this machine, Go)")
	fmt.Println()

	rows := []row{
		{"Statically linked procedure call", "static_call", 19, benchStatic(n * 1000)},
		{"Dyn-loaded proc calling dyn-loaded proc", "dyn_to_dyn_call", 21, benchDynToDyn(n * 1000)},
		{"Upcall - both procedures in the server", "local_upcall", 19, benchLocalUpcall(n * 1000)},
		{"Remote call - same machine (UNIX domain)", "remote_call_unix", 7200, benchRemoteCall(n, "unix", nil)},
		{"Remote upcall - same machine (UNIX domain)", "remote_upcall_unix", 7200, benchRemoteUpcall(n, "unix", nil)},
		{"Remote call - same machine (TCP/IP)", "remote_call_tcp", 11500, benchRemoteCall(n, "tcp", nil)},
		{"Remote upcall - same machine (TCP/IP)", "remote_upcall_tcp", 11500, benchRemoteUpcall(n, "tcp", nil)},
		{"Remote call - different machines (TCP/IP)", "remote_call_wan", 12400,
			benchRemoteCall(n/4, "tcp", benchlib.WANDialer(450*time.Microsecond, 0))},
		{"Remote upcall - different machines (TCP/IP)", "remote_upcall_wan", 12800,
			benchRemoteUpcall(n/4, "tcp", benchlib.WANDialer(450*time.Microsecond, 0))},
	}

	fmt.Printf("%-46s %12s %14s %10s %10s\n", "", "paper (µs)", "measured (µs)", "B/op", "allocs/op")
	for _, r := range rows {
		fmt.Printf("%-46s %12.0f %14.3f %10.0f %10.1f\n",
			r.label, r.paperUS, float64(r.cost.dur.Nanoseconds())/1e3, r.cost.bytesOp, r.cost.allocsOp)
	}

	local := rows[0].cost.dur
	fmt.Println()
	fmt.Println("Shape checks (paper claims → measured):")
	check := func(name string, ok bool) {
		status := "PASS"
		if !ok {
			status = "FAIL"
		}
		fmt.Printf("  [%s] %s\n", status, name)
	}
	check("local upcall within ~20x of a static call (paper: 19 vs 19)",
		rows[2].cost.dur < 20*maxDur(local, 10*time.Nanosecond))
	check("crossing an address space costs >=100x a local call (paper: ~380x)",
		rows[3].cost.dur > 100*maxDur(rows[2].cost.dur, 10*time.Nanosecond))
	check("UNIX-domain remote call cheaper than TCP (paper: 7200 < 11500)",
		rows[3].cost.dur < rows[5].cost.dur)
	check("different machines dearer than same machine TCP (paper: 12400 > 11500)",
		rows[7].cost.dur > rows[5].cost.dur)
	check("remote upcall within 3x of remote call, same transport (paper: equal)",
		rows[4].cost.dur < 3*rows[3].cost.dur && rows[6].cost.dur < 3*rows[5].cost.dur)

	fmt.Println()
	fmt.Println("Extras (beyond the paper's table):")
	pipe := benchRemoteCallPipe(n)
	fmt.Printf("  Remote call - same process (in-memory pipe): %.3f µs, %.0f B/op, %.1f allocs/op — protocol cost without kernel IPC\n",
		float64(pipe.dur.Nanoseconds())/1e3, pipe.bytesOp, pipe.allocsOp)

	fmt.Println()
	fmt.Println("Ablations (DESIGN.md A-1..A-5):")
	ablateBatching(n)
	ablateSweepPlacement(n / 8)
	ablateTaskReuse(n * 10)
	ablateTreeBundling(n * 10)
	ablateHandles(n * 1000)
	ablateUpcallConcurrency(n / 20)
	poolOn, poolOff := ablatePooling(n)
	tput := runThroughput(n)

	if *jsonPath != "" {
		if err := writeReport(*jsonPath, n, rows, tput, pipe, poolOn, poolOff); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nwrote %s\n", *jsonPath)
	}
}

// ablatePooling reruns the UNIX-domain remote call with frame pooling
// disabled, isolating what the sync.Pool recycling in internal/wire buys
// on the hot path. Pooling is restored before returning.
func ablatePooling(n int) (on, off cost) {
	run := func() cost {
		fx, c, cleanup := benchFixture("unix", nil)
		defer cleanup()
		_ = fx
		rem, err := c.NamedObject("pinger")
		if err != nil {
			log.Fatal(err)
		}
		var out int64
		return measureCost(n, func() {
			if err := rem.CallInto("Ping", []any{&out}); err != nil {
				log.Fatal(err)
			}
		})
	}
	on = run()
	wire.SetPooling(false)
	off = run()
	wire.SetPooling(true)
	fmt.Printf("  A-7 frame pooling (remote call, unix): pooled %.0f B/op %.1f allocs/op, unpooled %.0f B/op %.1f allocs/op\n",
		on.bytesOp, on.allocsOp, off.bytesOp, off.allocsOp)
	return on, off
}

// --- Machine-readable report -------------------------------------------------

type jsonResult struct {
	Name        string  `json:"name"`
	PaperUS     float64 `json:"paper_us,omitempty"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

type jsonReport struct {
	Schema             string                `json:"schema"`
	Go                 string                `json:"go"`
	Iters              int                   `json:"iters"`
	Fig51              []jsonResult          `json:"fig51"`
	Extras             []jsonResult          `json:"extras"`
	Ablations          map[string]jsonResult `json:"ablations"`
	Throughput         []jsonResult          `json:"throughput"`
	Baseline           jsonBaseline          `json:"baseline_pre_change"`
	ThroughputBaseline jsonBaseline          `json:"baseline_pre_change_throughput"`
}

type jsonBaseline struct {
	Source  string       `json:"source"`
	Results []jsonResult `json:"results"`
}

// preChangeBaseline is the `go test -bench` capture taken on this repo
// immediately before the allocation overhaul (tree of commit ecb9e6b,
// Intel Xeon @ 2.70GHz). It is embedded so every BENCH_*.json carries its
// own before/after comparison; the allocs/op and bytes/op columns are the
// ones the overhaul targets.
var preChangeBaseline = jsonBaseline{
	Source: "go test -bench 'Fig51|Extra_RemoteCallPipe' -benchmem, pre-change tree (ecb9e6b)",
	Results: []jsonResult{
		{Name: "static_call", NsPerOp: 2.833, BytesPerOp: 0, AllocsPerOp: 0},
		{Name: "dyn_to_dyn_call", NsPerOp: 2.263, BytesPerOp: 0, AllocsPerOp: 0},
		{Name: "local_upcall", NsPerOp: 19.54, BytesPerOp: 0, AllocsPerOp: 0},
		{Name: "remote_call_pipe", NsPerOp: 10264, BytesPerOp: 1699, AllocsPerOp: 46},
		{Name: "remote_call_unix", NsPerOp: 9731, BytesPerOp: 1700, AllocsPerOp: 46},
		{Name: "remote_upcall_unix", NsPerOp: 20687, BytesPerOp: 1633, AllocsPerOp: 45},
		{Name: "remote_call_tcp", NsPerOp: 12904, BytesPerOp: 1699, AllocsPerOp: 46},
		{Name: "remote_upcall_tcp", NsPerOp: 19735, BytesPerOp: 1688, AllocsPerOp: 45},
		{Name: "remote_call_wan", NsPerOp: 1121072, BytesPerOp: 1827, AllocsPerOp: 48},
		{Name: "remote_upcall_wan", NsPerOp: 1146725, BytesPerOp: 1714, AllocsPerOp: 47},
	},
}

// preChangeThroughput is the throughput matrix captured on the serial
// per-session dispatcher — the engine this repo shipped before the
// per-object executor, since replaced by the executor's serial ablation
// policy (captured with these same rows under WithPerObjectDispatch(false)
// on the tree of commit c9aedfd, Intel Xeon @ 2.70GHz, GOMAXPROCS=1).
// Embedded so every BENCH_3.json carries the before/after the executor
// targets: cross-object rows are the ones per-object dispatch must beat.
var preChangeThroughput = jsonBaseline{
	Source: "clambench throughput rows, serial dispatcher (WithPerObjectDispatch(false)), pre-executor tree (c9aedfd)",
	Results: []jsonResult{
		{Name: "same_object_8x4_serial", NsPerOp: 846500},
		{Name: "cross_object_8x4_serial", NsPerOp: 794300},
		{Name: "twohop_cross_4x2_serial", NsPerOp: 388100},
	},
}

func writeReport(path string, n int, rows, tput []row, pipe, poolOn, poolOff cost) error {
	rep := jsonReport{
		Schema: "clam-bench-v1",
		Go:     runtime.Version(),
		Iters:  n,
		Extras: []jsonResult{toResult("remote_call_pipe", 0, pipe)},
		Ablations: map[string]jsonResult{
			"pooling_on":  toResult("remote_call_unix_pooled", 0, poolOn),
			"pooling_off": toResult("remote_call_unix_unpooled", 0, poolOff),
		},
		Baseline:           preChangeBaseline,
		ThroughputBaseline: preChangeThroughput,
	}
	for _, r := range rows {
		rep.Fig51 = append(rep.Fig51, toResult(r.key, r.paperUS, r.cost))
	}
	for _, r := range tput {
		rep.Throughput = append(rep.Throughput, toResult(r.key, 0, r.cost))
	}
	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func toResult(name string, paperUS float64, c cost) jsonResult {
	return jsonResult{
		Name:        name,
		PaperUS:     paperUS,
		NsPerOp:     float64(c.dur.Nanoseconds()),
		BytesPerOp:  c.bytesOp,
		AllocsPerOp: c.allocsOp,
	}
}

func benchRemoteCallPipe(n int) cost {
	dir, err := os.MkdirTemp("", "clambench-pipe")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	fx, err := benchlib.Boot("unix", dir)
	if err != nil {
		log.Fatal(err)
	}
	defer fx.Server.Close()
	c, err := core.SelfDial(fx.Server, core.WithClientLog(func(string, ...any) {}))
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	rem, err := c.NamedObject("pinger")
	if err != nil {
		log.Fatal(err)
	}
	var out int64
	return measureCost(n, func() {
		if err := rem.CallInto("Ping", []any{&out}); err != nil {
			log.Fatal(err)
		}
	})
}

// ablateUpcallConcurrency measures the §4.4 relaxation: four concurrent
// 1ms upcalls under the paper's serial limit vs the relaxed mode.
func ablateUpcallConcurrency(n int) {
	if n < 5 {
		n = 5
	}
	run := func(srvOpts []core.ServerOption, dialOpts []core.DialOption) time.Duration {
		dir, err := os.MkdirTemp("", "clambench-cu")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(dir)
		fx, err := benchlib.Boot("unix", dir, srvOpts...)
		if err != nil {
			log.Fatal(err)
		}
		defer fx.Server.Close()
		opts := append([]core.DialOption{core.WithClientLog(func(string, ...any) {})}, dialOpts...)
		c, err := core.Dial(fx.Network, fx.Addr, opts...)
		if err != nil {
			log.Fatal(err)
		}
		defer c.Close()
		echo, err := c.NamedObject("echo")
		if err != nil {
			log.Fatal(err)
		}
		if err := echo.Call("Register", func(x int64) int64 {
			time.Sleep(time.Millisecond)
			return x
		}); err != nil {
			log.Fatal(err)
		}
		fn := fx.Echo.Proc()
		return measure(n, func() {
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					fn(1)
				}()
			}
			wg.Wait()
		})
	}
	serial := run(nil, nil)
	relaxed := run(
		[]core.ServerOption{core.WithMaxClientUpcalls(4)},
		[]core.DialOption{core.WithUpcallHandlers(4)})
	fmt.Printf("  A-6 upcall concurrency (4 x 1ms handlers): serial limit %v, relaxed %v (%.2fx) — the §4.4 future-work relaxation\n",
		serial, relaxed, float64(serial)/float64(relaxed))
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

// --- Figure 5.1 rows ---------------------------------------------------------

func benchStatic(n int) cost {
	var acc int64
	d := measureCost(n, func() { acc = benchlib.StaticCall(acc) })
	_ = acc
	return d
}

func benchDynToDyn(n int) cost {
	lib := dynload.NewLibrary()
	if err := benchlib.Register(lib); err != nil {
		log.Fatal(err)
	}
	ld := dynload.NewLoader(lib)
	pc, _ := ld.Load("pinger", 0)
	rc, _ := ld.Load("relay", 0)
	pObj, _ := pc.New(nil)
	rObj, _ := rc.New(nil)
	relay := rObj.(*benchlib.Relay)
	relay.SetTarget(pObj.(*benchlib.Pinger))
	return measureCost(n, func() { relay.Relay() })
}

func benchLocalUpcall(n int) cost {
	e := &benchlib.Echo{}
	e.Register(func(x int64) int64 { return x + 1 })
	return measureCost(n, func() {
		if _, err := e.Call(1); err != nil {
			log.Fatal(err)
		}
	})
}

func benchFixture(network string, dial func(string, string) (net.Conn, error)) (*benchlib.Fixture, *core.Client, func()) {
	dir, err := os.MkdirTemp("", "clambench")
	if err != nil {
		log.Fatal(err)
	}
	fx, err := benchlib.Boot(network, dir)
	if err != nil {
		log.Fatal(err)
	}
	opts := []core.DialOption{core.WithClientLog(func(string, ...any) {})}
	if dial != nil {
		opts = append(opts, core.WithDialFunc(dial))
	}
	c, err := core.Dial(fx.Network, fx.Addr, opts...)
	if err != nil {
		log.Fatal(err)
	}
	cleanup := func() {
		c.Close()
		fx.Server.Close()
		os.RemoveAll(dir)
	}
	return fx, c, cleanup
}

func benchRemoteCall(n int, network string, dial func(string, string) (net.Conn, error)) cost {
	fx, c, cleanup := benchFixture(network, dial)
	defer cleanup()
	rem, err := c.NamedObject("pinger")
	if err != nil {
		log.Fatal(err)
	}
	var out int64
	d := measureCost(n, func() {
		if err := rem.CallInto("Ping", []any{&out}); err != nil {
			log.Fatal(err)
		}
	})
	_ = fx
	return d
}

func benchRemoteUpcall(n int, network string, dial func(string, string) (net.Conn, error)) cost {
	fx, c, cleanup := benchFixture(network, dial)
	defer cleanup()
	echo, err := c.NamedObject("echo")
	if err != nil {
		log.Fatal(err)
	}
	if err := echo.Call("Register", func(x int64) int64 { return x + 1 }); err != nil {
		log.Fatal(err)
	}
	fn := fx.Echo.Proc()
	if fn == nil {
		log.Fatal("clambench: registration did not reach the server")
	}
	return measureCost(n, func() { fn(1) })
}

// --- Ablations -----------------------------------------------------------------

func ablateBatching(n int) {
	run := func(opts ...core.DialOption) time.Duration {
		fx, c1, cleanup := benchFixture("unix", nil)
		defer cleanup()
		defer c1.Close()
		c2, err := core.Dial(fx.Network, fx.Addr,
			append([]core.DialOption{core.WithClientLog(func(string, ...any) {})}, opts...)...)
		if err != nil {
			log.Fatal(err)
		}
		defer c2.Close()
		rem, err := c2.NamedObject("pinger")
		if err != nil {
			log.Fatal(err)
		}
		const burst = 32
		return measure(n/4, func() {
			for j := 0; j < burst; j++ {
				if err := rem.Async("Ping"); err != nil {
					log.Fatal(err)
				}
			}
			if err := c2.Sync(); err != nil {
				log.Fatal(err)
			}
		})
	}
	batched := run(core.WithMaxBatch(64))
	unbatched := run(core.WithoutClientBatching())
	fmt.Printf("  A-1 batching: 32 async calls+sync — batched %v, unbatched %v (%.2fx)\n",
		batched, unbatched, float64(unbatched)/float64(batched))
}

func ablateSweepPlacement(n int) {
	const moves = 32
	boot := func() (*core.Server, *wm.Screen, string) {
		lib := dynload.NewLibrary()
		wm.MustRegister(lib, wm.Config{Width: 300, Height: 300})
		srv := core.NewServer(lib, core.WithServerLog(func(string, ...any) {}))
		sobj, _, err := srv.CreateInstance("screen", 0, nil)
		if err != nil {
			log.Fatal(err)
		}
		srv.SetNamed("screen", sobj)
		wobj, _, err := srv.CreateInstance("window", 0, nil)
		if err != nil {
			log.Fatal(err)
		}
		srv.SetNamed("basewindow", wobj)
		dir, err := os.MkdirTemp("", "clambench-wm")
		if err != nil {
			log.Fatal(err)
		}
		ln, err := srv.Listen("unix", dir+"/clam.sock")
		if err != nil {
			log.Fatal(err)
		}
		return srv, sobj.(*wm.Screen), ln.Addr().String()
	}
	drive := func(scr *wm.Screen) {
		scr.InjectMouse(wm.MouseEvent{Kind: wm.MouseDown, X: 10, Y: 10, Buttons: wm.ButtonLeft})
		for d := int16(1); d <= moves; d++ {
			scr.InjectMouse(wm.MouseEvent{Kind: wm.MouseMove, X: 10 + d, Y: 10 + d})
		}
		scr.InjectMouseWait(wm.MouseEvent{Kind: wm.MouseUp, X: 10 + moves, Y: 10 + moves})
	}

	// Builtin placement.
	scr := wm.NewScreen(300, 300, nil)
	base := wm.NewBaseWindow(scr)
	sw := wm.NewSweep()
	sw.SetTransparent(true)
	sw.Attach(base)
	sw.OnCreated(func(wm.Rect) {})
	builtin := measure(n, func() { drive(scr) })

	// Server-loaded placement.
	srv, scr2, sock := boot()
	c, err := core.Dial("unix", sock, core.WithClientLog(func(string, ...any) {}))
	if err != nil {
		log.Fatal(err)
	}
	baseRem, _ := c.NamedObject("basewindow")
	sweepRem, err := c.NewExact("sweep", 1)
	if err != nil {
		log.Fatal(err)
	}
	must(sweepRem.Call("Attach", baseRem))
	must(sweepRem.Call("SetTransparent", true))
	created := make(chan wm.Rect, 1)
	must(sweepRem.Call("OnCreated", func(r wm.Rect) { created <- r }))
	server := measure(n, func() {
		drive(scr2)
		<-created
	})
	c.Close()
	srv.Close()

	// Client-side placement.
	srv3, scr3, sock3 := boot()
	c3, err := core.Dial("unix", sock3, core.WithClientLog(func(string, ...any) {}))
	if err != nil {
		log.Fatal(err)
	}
	base3, _ := c3.NamedObject("basewindow")
	done := make(chan struct{}, 1)
	var anchor wm.Point
	must(base3.Call("PostMouse", func(ev wm.MouseEvent) {
		switch ev.Kind {
		case wm.MouseDown:
			anchor = ev.Pos()
		case wm.MouseUp:
			_ = anchor
			done <- struct{}{}
		}
	}))
	client := measure(n, func() {
		drive(scr3)
		<-done
	})
	c3.Close()
	srv3.Close()

	fmt.Printf("  A-2 sweep placement (%d-move gesture): builtin %v, server-loaded %v, client-side %v (client/server %.1fx)\n",
		moves, builtin, server, client, float64(client)/float64(server))
}

func ablateTaskReuse(n int) {
	run := func(opts ...task.Option) time.Duration {
		s := task.New(opts...)
		defer s.Close()
		return measure(n, func() {
			done := make(chan struct{})
			if err := s.Spawn(func(*task.Task) { close(done) }); err != nil {
				log.Fatal(err)
			}
			<-done
		})
	}
	pooled := run()
	fresh := run(task.WithoutReuse())
	fmt.Printf("  A-3 task reuse: pooled %v, fresh-per-event %v (%.2fx)\n",
		pooled, fresh, float64(fresh)/float64(pooled))
}

func ablateTreeBundling(n int) {
	reg := bundle.NewRegistry()
	root := bundle.NewTree(6)
	typ := reflect.TypeOf(root)
	node := reg.MustCompile(typ)
	closure, err := reg.CompileClosure(typ)
	if err != nil {
		log.Fatal(err)
	}
	run := func(f bundle.Func) (time.Duration, int) {
		var size int
		d := measure(n, func() {
			var buf bytes.Buffer
			if err := f(&bundle.Ctx{}, xdr.NewEncoder(&buf), reflect.ValueOf(root)); err != nil {
				log.Fatal(err)
			}
			size = buf.Len()
			out := reflect.New(typ).Elem()
			if err := f(&bundle.Ctx{}, xdr.NewDecoder(&buf), out); err != nil {
				log.Fatal(err)
			}
		})
		return d, size
	}
	nd, ns := run(node)
	cd, cs := run(closure)
	ud, us := run(bundle.NodeAndChildrenBundler)
	fmt.Printf("  A-4 tree bundling (63-node threaded tree): node-only %v/%dB, closure %v/%dB, user %v/%dB\n",
		nd, ns, cd, cs, ud, us)
}

func ablateHandles(n int) {
	tbl := handle.NewTable()
	type obj struct{ x int }
	h, err := tbl.Put(&obj{}, 1, 1)
	if err != nil {
		log.Fatal(err)
	}
	d := measure(n, func() {
		if _, err := tbl.Get(h); err != nil {
			log.Fatal(err)
		}
	})
	fmt.Printf("  A-5 handle validation: %v per lookup (tag check included)\n", d)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
