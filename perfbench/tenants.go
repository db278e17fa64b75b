package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"clam"
)

// tenants puts two tenants on one server: the bulk session loops over
// cycles of batched async puts spread over four stores, a quarter of them
// carrying one slow call, each cycle ending with Sync (stream B: cycle
// time, async calls acknowledged); the interactive session makes small
// sync calls on its own object (stream A). It tests tenant isolation under
// §3.4 batching: an interactive call should not wait behind another
// tenant's slow call.
type tenants struct {
	gen  *gen
	pay  *payload
	plan []bulkCall

	ri     *clam.Remote
	bulk   *clam.Client
	stores []*clam.Remote

	nA, seq, cycles uint64
	okA             int64
	want            [nStores]storeTotals

	a, b streamState
}

type storeTotals struct {
	count, bytes int64
	sum          uint64
}

// stallNS is the interactive latency above which a call counts as stalled
// behind the slow call: half the slow call's hold.
const stallNS = slowHoldUS * 1000 / 2

func newTenants(opt options) workload {
	n := samplesPerWindow
	return &tenants{
		gen: newGen(opt.seed, 3), pay: newPayload(opt.seed),
		a: streamState{lat: newSampleBuf(n)}, b: streamState{lat: newSampleBuf(n / 8)},
	}
}

func (t *tenants) setup(e *env, ph *phases) error {
	t0 := time.Now()
	lap := func(d *time.Duration) { n := time.Now(); *d = n.Sub(t0); t0 = n }

	_, path, err := e.newServer()
	if err != nil {
		return err
	}
	e.w.bulkLast.Store(int64(traceID(streamB, 0)))
	lap(&ph.boot)

	ci, err := e.dial(path)
	if err != nil {
		return err
	}
	if t.bulk, err = e.dial(path); err != nil {
		return err
	}
	lap(&ph.dial)

	if t.ri, err = ci.New("pinger", 0); err != nil {
		return err
	}
	t.stores = t.stores[:0]
	for i := 0; i < nStores; i++ {
		r, err := t.bulk.New("store", 0)
		if err != nil {
			return err
		}
		t.stores = append(t.stores, r)
	}
	lap(&ph.bind)

	t.okA, t.seq, t.want = 0, 0, [nStores]storeTotals{}
	if err := t.ri.Call("Ping", int64(0)); err != nil {
		return fmt.Errorf("first ping: %w", err)
	}
	t.okA++
	if err := t.bulk.Sync(); err != nil {
		return fmt.Errorf("first sync: %w", err)
	}
	lap(&ph.first)
	return nil
}

func (t *tenants) loops() []func(*atomic.Bool) {
	return []func(*atomic.Bool){t.loopInteractive, t.loopBulk}
}

func (t *tenants) loopInteractive(stop *atomic.Bool) {
	for !stop.Load() {
		t.nA++
		id := traceID(streamA, t.nA)
		t0 := now()
		err := t.ri.Call("Ping", int64(id))
		t1 := now()
		if err != nil {
			t.a.errs = append(t.a.errs, fmt.Sprintf("interactive ping %d: %v", t.nA, err))
			return
		}
		t.a.lat.add(t1 - t0)
		t.a.ops++
		t.okA++
		if t1-t0 > stallNS {
			t.a.extra++
		}
		if tr := tracing(id); tr != nil {
			tr.record(kCall, id, slotRoot, -1, t0, t1)
		}
	}
}

func (t *tenants) loopBulk(stop *atomic.Bool) {
	for !stop.Load() {
		t.plan = t.gen.cycle(t.plan)
		t.cycles++
		start := now()
		for _, c := range t.plan {
			t.seq++
			seq := traceID(streamB, t.seq)
			r := t.stores[c.obj]
			t0 := now()
			var err error
			if c.slow {
				err = r.Async("Slow", int64(seq), int64(slowHoldUS))
			} else {
				err = r.Async("Put", int64(seq), t.pay.slice(c))
			}
			t1 := now()
			if err != nil {
				t.b.errs = append(t.b.errs, fmt.Sprintf("async %d: %v", t.seq, err))
				return
			}
			if tr := tracing(seq); tr != nil {
				tr.record(kAsync, seq, slotRoot, -1, t0, t1)
			}
			w := &t.want[c.obj]
			w.count++
			if !c.slow {
				w.bytes += int64(c.n)
				w.sum += t.pay.sum(c)
			}
		}
		cyc := traceID(streamCycle, t.cycles)
		t0 := now()
		err := t.bulk.Sync()
		t1 := now()
		if err != nil {
			t.b.errs = append(t.b.errs, fmt.Sprintf("sync after cycle %d: %v", t.cycles, err))
			return
		}
		if tr := tracing(cyc); tr != nil {
			tr.record(kSync, cyc, slotRoot, -1, t0, t1)
		}
		t.b.lat.add(t1 - start)
		t.b.ops += int64(len(t.plan))
	}
}

func (t *tenants) resetWindow() {
	t.a.reset()
	t.b.reset()
}

func (t *tenants) streams() (a, b streamResult) { return t.a.result(nil), t.b.result(nil) }

func (t *tenants) ops() int64 { return t.a.ops + t.b.ops }

func (t *tenants) check(e *env) []string {
	var fails []string
	w := e.w
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.pingers) != 1 || len(w.stores) != nStores {
		return []string{fmt.Sprintf("object count: %d pingers, %d stores, want 1 and %d", len(w.pingers), len(w.stores), nStores)}
	}
	if got := w.pingers[0].calls.Load(); got != t.okA {
		fails = append(fails, fmt.Sprintf("interactive call count: server saw %d, client completed %d", got, t.okA))
	}
	// Stores were created in order, so w.stores[i] is t.stores[i].
	for i, s := range w.stores {
		got := storeTotals{count: s.count.Load(), bytes: s.bytes.Load(), sum: s.sum.Load()}
		if got != t.want[i] {
			fails = append(fails, fmt.Sprintf("store %d totals after Sync: server %+v, client sent %+v", i, got, t.want[i]))
		}
	}
	if n := w.outOfOrder.Load(); n != 0 {
		fails = append(fails, fmt.Sprintf("bulk program order: %d async calls ran out of session order", n))
	}
	return fails
}

func (t *tenants) streamNames() map[string]string {
	return map[string]string{
		"a_p50_us": "call_p50_us", "a_p90_us": "call_p90_us", "a_p99_us": "call_p99_us", "a_per_s": "calls_per_s",
		"b_p50_us": "cycle_p50_us", "b_p90_us": "cycle_p90_us", "b_p99_us": "cycle_p99_us", "b_per_s": "async_per_s",
	}
}
