// Command clamperf is the repository's benchmark: four closed-loop
// workloads run against in-process CLAM servers over real unix sockets.
//
//	clamperf --workload pingpong --seed 1 --seconds 24 --trace 0
//
// With --trace 0 it measures the end-to-end metrics with tracing off. With
// --trace 1 it runs the same workload for half the time untraced (process
// and server counters) and half traced (spans from the benchmark's own
// code), and reports the per-layer metrics, a self-time table, a span dump
// and the tracing overhead. The last line of standard output is one JSON
// object; the exit status is non-zero when an output check fails. See
// README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"clam"
)

const (
	setupRounds = 25              // set-ups per run; setup_s is their median
	warmup      = 1 * time.Second // untimed closed-loop run before measuring
	traceEvery  = 2               // traced runs record one trace in two
	traceCap    = 1 << 20         // spans kept per traced run
	sampleRate  = 120000          // latency samples preallocated per stream per second
	checkWait   = 5 * time.Second // longest wait for a delivery or a counter to settle

	// buildDir, relative to the repository root the benchmark runs from,
	// holds the sockets and span dumps. A relative path keeps unix socket
	// paths short, whatever the checkout's own path.
	buildDir = ".bench_build"
)

var workloads = map[string]func(opt options) workload{
	"pingpong": func(opt options) workload { return newPingpong(opt, false) },
	"routed":   func(opt options) workload { return newPingpong(opt, true) },
	"tenants":  newTenants,
	"events":   newEvents,
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
}

// workload is one traffic mix. setup boots servers and sessions and makes
// the first call, reporting each phase's duration. loops returns the
// closed loops of one window; window figures are read with streams once
// they have all returned. check runs the output checks.
type workload interface {
	setup(e *env, ph *phases) error
	loops() []func(stop *atomic.Bool)
	resetWindow()
	streams() (a, b streamResult)
	ops() int64 // the per-op denominator of the per-layer counters
	check(e *env) []string
	streamNames() map[string]string // end-to-end metric → its name on this workload
}

// phases is one set-up's duration per phase.
type phases struct{ boot, dial, bind, first time.Duration }

func (p phases) total() time.Duration { return p.boot + p.dial + p.bind + p.first }

// env is one booted set-up: servers, sessions and the instances the
// benchmark's classes created.
type env struct {
	w       *world
	srvs    []*clam.Server
	clients []*clam.Client
	dir     string
	nsock   int
	// queueProbe boots servers with the admission layer armed but never
	// refusing, for the executor's queue-wait EWMA (traced runs only).
	queueProbe bool
}

func quietServer() clam.ServerOption { return clam.WithServerLog(func(string, ...any) {}) }
func quietClient() clam.DialOption   { return clam.WithClientLog(func(string, ...any) {}) }

// newServer boots a server with the benchmark's classes and listens on a
// fresh unix socket, returning the socket path.
func (e *env) newServer() (*clam.Server, string, error) {
	opts := []clam.ServerOption{quietServer()}
	if e.queueProbe {
		// Refuses nothing: only arms the executor's queue-wait EWMA.
		opts = append(opts, clam.WithMaxQueueDelay(time.Hour))
	}
	srv := clam.NewServer(e.w.library(), opts...)
	e.nsock++
	path := filepath.Join(e.dir, fmt.Sprintf("s%d.sock", e.nsock))
	if _, err := srv.Listen("unix", path); err != nil {
		srv.Close()
		return nil, "", fmt.Errorf("listen %s: %w", path, err)
	}
	e.srvs = append(e.srvs, srv)
	return srv, path, nil
}

func (e *env) dial(path string) (*clam.Client, error) {
	c, err := clam.Dial("unix", path, quietClient())
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", path, err)
	}
	e.clients = append(e.clients, c)
	return c, nil
}

func (e *env) close() {
	for _, c := range e.clients {
		c.Close()
	}
	for _, s := range e.srvs {
		s.Close()
	}
}

// streamResult is one window's figures for one stream.
type streamResult struct {
	lat   dist
	ops   int64
	errs  []string
	over  int
	extra int64 // workload-specific count (stalled calls, ...)
}

type namedValue struct {
	name, unit string
	value      float64
}

// windowResult is one timed window.
type windowResult struct {
	elapsed  time.Duration
	a, b     streamResult
	proc0    procCounters
	proc1    procCounters
	m0, m1   []clam.MetricsSnapshot
	c0, c1   []clam.ClientMetricsSnapshot
	ops      int64
	rssMB    float64
	rssErr   error
	depthMax uint64
	ewmaUS   float64
}

func main() {
	opt := options{}
	flag.StringVar(&opt.workload, "workload", "", "workload: pingpong, tenants, events or routed")
	flag.Uint64Var(&opt.seed, "seed", 1, "workload seed")
	flag.IntVar(&opt.seconds, "seconds", 10, "measured seconds")
	traceFlag := flag.Int("trace", 0, "1 for the traced per-layer run")
	flag.Parse()
	opt.trace = *traceFlag == 1
	mk, ok := workloads[opt.workload]
	if !ok || opt.seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "usage: clamperf --workload pingpong|tenants|events|routed --seed N --seconds N --trace 0|1")
		os.Exit(2)
	}
	res, err := run(opt, mk(opt))
	if err != nil {
		fmt.Fprintln(os.Stderr, "clamperf:", err)
		os.Exit(1)
	}
	line, _ := json.Marshal(res) // plain maps and numbers: cannot fail
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func run(opt options, wl workload) (*result, error) {
	runDir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	var tr *tracer
	if opt.trace {
		tr = newTracer(traceCap, traceEvery)
	}

	// Set-up, several times; the last set-up is the one measured.
	var setups []phases
	var e *env
	for i := 0; i < setupRounds; i++ {
		if e != nil {
			e.close()
			// Let the last set-up's teardown finish before timing the next.
			runtime.GC()
			time.Sleep(10 * time.Millisecond)
		}
		e = &env{w: &world{}, dir: runDir, queueProbe: opt.trace}
		var ph phases
		start := now()
		if err := wl.setup(e, &ph); err != nil {
			e.close()
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		setups = append(setups, ph)
		if tr != nil {
			recordSetup(tr, uint64(i), start, ph)
		}
	}
	defer e.close()

	runWindow(wl, e, warmup, nil)
	var untracedM, tracedM measurement
	if opt.trace {
		half := time.Duration(opt.seconds) * time.Second / 2
		untracedM = measure(wl, e, half, nil)
		tracedM = measure(wl, e, half, tr)
	} else {
		untracedM = measure(wl, e, time.Duration(opt.seconds)*time.Second, nil)
	}
	win := untracedM.merged()

	failures := wl.check(e)
	if win.rssErr != nil {
		return nil, win.rssErr
	}
	var errs []string
	res := &result{Metrics: map[string]metricOut{}}
	put := func(name, unit string, v float64) { res.Metrics[name] = metricOut{Value: v, Unit: unit} }

	for _, m := range []measurement{untracedM, tracedM} {
		if m == nil {
			continue
		}
		w := m.merged()
		res.Attempted += w.a.ops + int64(len(w.a.errs)) + w.b.ops + int64(len(w.b.errs))
		res.Failed += int64(len(w.a.errs) + len(w.b.errs))
		failures = append(failures, w.a.errs...)
		failures = append(failures, w.b.errs...)
		if w.a.over+w.b.over > 0 {
			failures = append(failures, fmt.Sprintf("latency buffer overflow: %d samples lost", w.a.over+w.b.over))
		}
		lost := lostOps(w)
		res.Failed += lost
		if lost > 0 {
			failures = append(failures, fmt.Sprintf("%d operations failed, refused, shed, dropped or resumed inside the program", lost))
		}
	}

	fig := untracedM.figures(&errs)
	e2e := endToEnd(setups, win, fig)
	failures = append(failures, errs...)
	res.Correct = len(failures) == 0

	fmt.Printf("workload %s seed %d: %d windows, %.2fs measured, GOMAXPROCS %d, %d set-ups\n",
		opt.workload, opt.seed, len(untracedM), win.elapsed.Seconds(), runtime.GOMAXPROCS(0), len(setups))
	fmt.Printf("  samples per window: stream A %v, stream B %v (each figure: best quarter of windows)\n",
		untracedM.sampleCounts(latA), untracedM.sampleCounts(latB))
	names := wl.streamNames()
	alias := func(name string) string {
		if n, ok := names[name]; ok {
			return n
		}
		return name
	}
	for _, m := range e2e {
		fmt.Printf("  %-16s %-14s %14.3f %s\n", alias(m.name), "("+m.name+")", m.value, m.unit)
	}
	for _, s := range []struct {
		name string
		d    dist
	}{{"a_p99_us", untracedM.pooled(latA)}, {"b_p99_us", untracedM.pooled(latB)}} {
		fmt.Printf("  %-16s %-14s %14.3f us over all %d samples (not gated)\n", alias(s.name), "("+s.name+")", s.d.pctOr(0.99)/1e3, s.d.n())
	}
	fmt.Printf("  %-24s %14.6f\n", "fail_ratio", ratio(float64(res.Failed), float64(res.Attempted)))
	for _, f := range failures {
		fmt.Printf("  CHECK FAILED: %s\n", f)
	}

	if !opt.trace {
		for _, m := range e2e {
			put(m.name, m.unit, m.value)
		}
		return res, nil
	}

	view := buildLayerView(tr.spans())
	view.writeSelfTable(os.Stdout, opt.workload)
	if err := writeDump(opt, tr); err != nil {
		return nil, err
	}
	for _, m := range perLayer(win, untracedM, tracedM, view, setups, tr) {
		put(m.name, m.unit, m.value)
	}
	put("fail_ratio", "share", ratio(float64(res.Failed), float64(res.Attempted)))
	fmt.Println("per-layer metrics:")
	keys := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		keys = append(keys, n)
	}
	sort.Strings(keys)
	for _, n := range keys {
		fmt.Printf("  %-36s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	return res, nil
}

// recordSetup records one set-up's phases as consecutive spans.
func recordSetup(tr *tracer, i uint64, start int64, ph phases) {
	trace := traceID(streamSetup, i)
	for slot, p := range []struct {
		k spanKind
		d time.Duration
	}{{kBoot, ph.boot}, {kDial, ph.dial}, {kBind, ph.bind}, {kFirstCall, ph.first}} {
		tr.record(p.k, trace, slot, -1, start, start+int64(p.d))
		start += int64(p.d)
	}
}

func medianPhases(ps []phases) time.Duration {
	ds := make([]time.Duration, len(ps))
	for i, p := range ps {
		ds[i] = p.total()
	}
	return medianDur(ds)
}

// window is the length of one measured window. A window's p90 has over
// ten samples beyond it on every stream; events frames are the rarest
// operation, at about 700 per window.
const window = 2 * time.Second

// windowsIn splits d into whole windows of about the window length.
func windowsIn(d time.Duration) (n int, each time.Duration) {
	n = max(1, int(d/window))
	return n, d / time.Duration(n)
}

// samplesPerWindow sizes a stream's latency buffer for one window.
const samplesPerWindow = sampleRate * int((window+time.Second)/time.Second)

// measurement is a timed run cut into consecutive windows.
type measurement []*windowResult

func measure(wl workload, e *env, d time.Duration, tr *tracer) measurement {
	n, each := windowsIn(d)
	m := make(measurement, n)
	for i := range m {
		m[i] = runWindow(wl, e, each, tr)
	}
	return m
}

// figures is a run's end-to-end figures, latencies in nanoseconds.
type figures struct{ aP50, aP90, aPerS, bP50, bP90, bPerS float64 }

// figures takes each figure per window and reports the value of the best
// quarter of the windows: the 25th percentile over windows of a latency,
// the 75th of a rate. Load from outside the process (other tenants of the
// machine, a busy host) only ever slows a window down, often for seconds at
// a time, so the best quarter tracks the program's own speed; a change to
// the program moves every window, so it moves the best quarter too.
func (m measurement) figures(errs *[]string) figures {
	var cols [6][]float64
	for i, w := range m {
		s := w.elapsed.Seconds()
		a, b := fmt.Sprintf("stream A window %d", i), fmt.Sprintf("stream B window %d", i)
		for j, v := range []float64{
			w.a.lat.pct(0.5, a, errs), w.a.lat.pct(0.9, a, errs), float64(w.a.ops) / s,
			w.b.lat.pct(0.5, b, errs), w.b.lat.pct(0.9, b, errs), float64(w.b.ops) / s,
		} {
			cols[j] = append(cols[j], v)
		}
	}
	return figures{
		aP50: bestQuarter(cols[0], true), aP90: bestQuarter(cols[1], true), aPerS: bestQuarter(cols[2], false),
		bP50: bestQuarter(cols[3], true), bP90: bestQuarter(cols[4], true), bPerS: bestQuarter(cols[5], false),
	}
}

func latA(w *windowResult) dist { return w.a.lat }
func latB(w *windowResult) dist { return w.b.lat }

// pooled is all of a stream's samples over the windows.
func (m measurement) pooled(f func(*windowResult) dist) dist {
	var all []int64
	for _, w := range m {
		all = append(all, f(w).sorted...)
	}
	return newDist(all)
}

func (m measurement) sampleCounts(f func(*windowResult) dist) []int {
	n := make([]int, len(m))
	for i, w := range m {
		n[i] = f(w).n()
	}
	return n
}

// merged folds the windows into one: counts add up, and because the loops
// are stopped between windows, the first window's opening counters and the
// last one's closing counters bracket exactly the measured work.
func (m measurement) merged() *windowResult {
	r := *m[0]
	last := m[len(m)-1]
	r.proc1, r.m1, r.c1 = last.proc1, last.m1, last.c1
	r.a.errs = slices.Clone(r.a.errs)
	r.b.errs = slices.Clone(r.b.errs)
	var ewma float64
	for i, w := range m {
		ewma += w.ewmaUS
		r.rssMB = max(r.rssMB, w.rssMB)
		r.depthMax = max(r.depthMax, w.depthMax)
		if i == 0 {
			continue
		}
		r.elapsed += w.elapsed
		r.ops += w.ops
		r.a.ops += w.a.ops
		r.b.ops += w.b.ops
		r.a.extra += w.a.extra
		r.a.over += w.a.over
		r.b.over += w.b.over
		r.a.errs = append(r.a.errs, w.a.errs...)
		r.b.errs = append(r.b.errs, w.b.errs...)
		if r.rssErr == nil {
			r.rssErr = w.rssErr
		}
	}
	r.ewmaUS = ewma / float64(len(m))
	return &r
}

// runWindow runs the workload's closed loops for d. With a tracer it traces
// the window and samples the executor's queue while it runs.
func runWindow(wl workload, e *env, d time.Duration, tr *tracer) *windowResult {
	wl.resetWindow()
	r := &windowResult{}
	r.m0, r.c0 = snapshots(e)
	r.proc0 = readProc()
	var stop atomic.Bool
	var wg sync.WaitGroup
	sampleDone := make(chan struct{})
	if tr != nil {
		active.Store(tr)
		go func() {
			defer close(sampleDone)
			var ewmaSum float64
			var n int
			for !stop.Load() {
				for _, s := range e.srvs {
					m := s.Metrics()
					r.depthMax = max(r.depthMax, m.Dispatch.QueueDepth)
					ewmaSum += float64(m.Overload.QueueDelayEWMANanos) / 1e3
					n++
				}
				time.Sleep(5 * time.Millisecond)
			}
			r.ewmaUS = ratio(ewmaSum, float64(n))
		}()
	} else {
		close(sampleDone)
	}
	start := time.Now()
	for _, loop := range wl.loops() {
		wg.Add(1)
		go func(loop func(*atomic.Bool)) {
			defer wg.Done()
			loop(&stop)
		}(loop)
	}
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	r.elapsed = time.Since(start)
	// Before any figure is computed, so the peak is the workload's.
	r.rssMB, r.rssErr = peakRSSMB()
	<-sampleDone
	active.Store(nil)
	r.proc1 = readProc()
	r.m1, r.c1 = snapshots(e)
	r.a, r.b = wl.streams()
	r.ops = wl.ops()
	return r
}

func snapshots(e *env) ([]clam.MetricsSnapshot, []clam.ClientMetricsSnapshot) {
	ms := make([]clam.MetricsSnapshot, len(e.srvs))
	for i, s := range e.srvs {
		ms[i] = s.Metrics()
	}
	cs := make([]clam.ClientMetricsSnapshot, len(e.clients))
	for i, c := range e.clients {
		cs[i] = c.Metrics()
	}
	return ms, cs
}

// sumDelta adds f's growth over a window across all servers.
func sumDelta(w *windowResult, f func(clam.MetricsSnapshot) uint64) float64 {
	var d uint64
	for i := range w.m1 {
		d += f(w.m1[i]) - f(w.m0[i])
	}
	return float64(d)
}

// lostOps counts the operations the program itself reports as failed,
// refused, shed or dropped in the window, and any resume of a session.
func lostOps(w *windowResult) int64 {
	n := sumDelta(w, func(m clam.MetricsSnapshot) uint64 {
		return m.UpcallFailures + m.Fanout.DeliveryFailures + m.Fanout.QueueDropsOldest +
			m.Fanout.QueueDropsNewest + m.Fanout.QueueDropsClosed + m.Overload.ShedExpired +
			m.Overload.ShedCancelled + m.Overload.ShedAdmission + m.Resilience.Reconnects + m.Resilience.DedupDrops
	})
	for i := range w.c1 {
		n += float64(w.c1[i].Resilience.Reconnects - w.c0[i].Resilience.Reconnects)
	}
	return int64(n)
}

func writeDump(opt options, tr *tracer) error {
	// One dump per workload, the latest traced run's: dumps run to tens of MB.
	path := filepath.Join(buildDir, fmt.Sprintf("spans-%s.tsv", opt.workload))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := dumpSpans(f, tr.spans()); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("span dump: %s (%d spans, %d dropped)\n", path, len(tr.spans()), tr.dropped.Load())
	return nil
}

// perLayer derives the per-layer metrics: counters from the untraced
// window, span figures from the traced one, and the tracing overhead as
// the difference between the two windows' end-to-end figures.
func perLayer(win *windowResult, untracedM, tracedM measurement, v *layerView, setups []phases, tr *tracer) []namedValue {
	traced := tracedM.merged()
	var errs []string
	fu, ft := untracedM.figures(&errs), tracedM.figures(&errs)
	ops := float64(win.ops)
	p0, p1 := win.proc0, win.proc1
	delta := func(f func(clam.MetricsSnapshot) uint64) float64 { return sumDelta(win, f) }
	maxOf := func(f func(clam.MetricsSnapshot) uint64) float64 {
		var m uint64
		for _, s := range win.m1 {
			m = max(m, f(s))
		}
		return float64(m)
	}
	reconnects := delta(func(m clam.MetricsSnapshot) uint64 { return m.Resilience.Reconnects })
	dedups := delta(func(m clam.MetricsSnapshot) uint64 { return m.Resilience.DedupDrops })
	for i := range win.c1 {
		reconnects += float64(win.c1[i].Resilience.Reconnects - win.c0[i].Resilience.Reconnects)
	}
	// Writev counters are process-wide: read them once.
	flushes := float64(win.m1[0].Transport.WritevFlushes - win.m0[0].Transport.WritevFlushes)
	frames := float64(win.m1[0].Transport.WritevFrames - win.m0[0].Transport.WritevFrames)
	entry := win.m1[0]
	entry0 := win.m0[0]
	upcalls := float64(entry.Upcalls - entry0.Upcalls)
	if len(win.m1) > 1 { // routed: the owner makes the upcalls, the entry member relays them
		upcalls = float64(win.m1[1].Upcalls - win.m0[1].Upcalls)
	}
	var setupMS [4][]time.Duration
	for _, p := range setups {
		for i, d := range []time.Duration{p.boot, p.dial, p.bind, p.first} {
			setupMS[i] = append(setupMS[i], d)
		}
	}
	ms := func(i int) float64 { return float64(medianDur(setupMS[i])) / 1e6 }
	us := func(d dist, q float64) float64 { return d.pctOr(q) / 1e3 }
	pct := func(traced, base float64) float64 { return 100 * ratio(traced-base, base) }
	out := []namedValue{
		{"stream.a_p99_us", "us", us(untracedM.pooled(latA), 0.99)},
		{"stream.b_p99_us", "us", us(untracedM.pooled(latB), 0.99)},
		{"proc.cpu_us_per_op", "us", ratio(float64(p1.cpu-p0.cpu)/1e3, ops)},
		{"proc.allocs_per_op", "count", ratio(float64(p1.mallocs-p0.mallocs), ops)},
		{"proc.bytes_per_op", "B", ratio(float64(p1.bytes-p0.bytes), ops)},
		{"proc.gc_per_kop", "count", 1000 * ratio(float64(p1.numGC-p0.numGC), ops)},
		{"proc.ctxsw_per_op", "count", ratio(float64(p1.ctxsw-p0.ctxsw), ops)},
		{"rpc.request_leg_p50_us", "us", us(v.requestLeg, 0.5)},
		{"rpc.request_leg_p99_us", "us", us(v.requestLeg, 0.99)},
		{"rpc.reply_leg_p50_us", "us", us(v.replyLeg, 0.5)},
		{"rpc.reply_leg_p99_us", "us", us(v.replyLeg, 0.99)},
		{"handler.p50_us", "us", us(v.handlerA, 0.5)},
		{"client.async_p50_ns", "ns", v.byKind[kAsync].pctOr(0.5)},
		{"client.async_p99_ns", "ns", v.byKind[kAsync].pctOr(0.99)},
		{"client.sync_p50_us", "us", us(v.byKind[kSync], 0.5)},
		{"client.sync_p99_us", "us", us(v.byKind[kSync], 0.99)},
		{"session.calls_per_batch", "count", ratio(delta(func(m clam.MetricsSnapshot) uint64 { return m.AsyncCalls }),
			delta(func(m clam.MetricsSnapshot) uint64 { return m.Batches }))},
		{"wire.writev_flushes_per_op", "count", ratio(flushes, ops)},
		{"wire.frames_per_writev", "count", ratio(frames, flushes)},
		{"executor.queue_depth_max", "count", float64(traced.depthMax)},
		{"executor.parallelism_max", "count", maxOf(func(m clam.MetricsSnapshot) uint64 { return m.Dispatch.Parallelism })},
		{"executor.queue_delay_ewma_us", "us", traced.ewmaUS},
		{"executor.stalled_call_share", "share", ratio(float64(win.a.extra), float64(win.a.ops))},
		{"executor.worker_stalls_per_op", "count", ratio(delta(func(m clam.MetricsSnapshot) uint64 { return m.Dispatch.WorkerStalls }), ops)},
		{"upcall.back_leg_p50_us", "us", us(v.backLeg, 0.5)},
		{"upcall.back_leg_p99_us", "us", us(v.backLeg, 0.99)},
		{"upcall.client_proc_p50_us", "us", us(v.procDur, 0.5)},
		{"upcall.failures", "count", delta(func(m clam.MetricsSnapshot) uint64 { return m.UpcallFailures })},
		{"fanout.publish_p50_us", "us", us(v.byKind[kPublish], 0.5)},
		{"fanout.publish_p99_us", "us", us(v.byKind[kPublish], 0.99)},
		{"fanout.delivered", "count", delta(func(m clam.MetricsSnapshot) uint64 { return m.Fanout.EventsDelivered })},
		{"fanout.drops", "count", delta(func(m clam.MetricsSnapshot) uint64 {
			return m.Fanout.QueueDropsOldest + m.Fanout.QueueDropsNewest + m.Fanout.QueueDropsClosed
		})},
		{"fanout.delivery_failures", "count", delta(func(m clam.MetricsSnapshot) uint64 { return m.Fanout.DeliveryFailures })},
		{"fanout.coalesced", "count", delta(func(m clam.MetricsSnapshot) uint64 { return m.Fanout.EventsCoalesced })},
		{"forward.calls_relayed_per_call", "count", ratio(delta(func(m clam.MetricsSnapshot) uint64 { return m.Forwarding.CallsRelayedDown }),
			float64(entry.SyncCalls+entry.AsyncCalls-entry0.SyncCalls-entry0.AsyncCalls))},
		{"forward.upcalls_relayed_per_upcall", "count", ratio(delta(func(m clam.MetricsSnapshot) uint64 { return m.Forwarding.UpcallsRelayedUp }), upcalls)},
		{"mesh.routed_named", "count", float64(entry.Mesh.RoutedNamed)},
		{"setup.boot_ms", "ms", ms(0)},
		{"setup.dial_ms", "ms", ms(1)},
		{"setup.bind_ms", "ms", ms(2)},
		{"setup.first_call_ms", "ms", ms(3)},
		{"resilience.reconnects", "count", reconnects},
		{"resilience.dedup_drops", "count", dedups},
		{"trace.spans", "count", float64(len(tr.spans()))},
		{"trace.dropped", "count", float64(tr.dropped.Load())},
		{"trace.overhead_a_p50_pct", "%", pct(ft.aP50, fu.aP50)},
		{"trace.overhead_a_per_s_pct", "%", pct(ft.aPerS, fu.aPerS)},
		{"trace.overhead_b_p50_pct", "%", pct(ft.bP50, fu.bP50)},
		{"trace.overhead_b_per_s_pct", "%", pct(ft.bPerS, fu.bPerS)},
	}
	return out
}

// endToEnd is the end-to-end metric set, the same for every workload: the
// set-up median, the peak resident size, and each stream's p50, p90 and
// completion rate, each the best quarter of the windows.
func endToEnd(setups []phases, win *windowResult, fig figures) []namedValue {
	return []namedValue{
		{"setup_s", "s", medianPhases(setups).Seconds()},
		{"peak_rss_mb", "MB", win.rssMB},
		{"a_p50_us", "us", fig.aP50 / 1e3},
		{"a_p90_us", "us", fig.aP90 / 1e3},
		{"a_per_s", "1/s", fig.aPerS},
		{"b_p50_us", "us", fig.bP50 / 1e3},
		{"b_p90_us", "us", fig.bP90 / 1e3},
		{"b_per_s", "1/s", fig.bPerS},
	}
}
