// Throughput rows for the per-object dispatch executor: N client
// sessions × M in-flight pipelined synchronous calls, same-object vs
// cross-object, one hop vs a two-hop forwarding chain, and a
// worker-count sweep. Each handler parks in Pinger.Hold for ~50µs — the
// stand-in for a handler that waits on I/O or a lower layer — so the
// dispatch executor, not the wire, is the bottleneck: the serial
// ablation admits one handler at a time while the per-object policy
// overlaps independent objects. Calls are synchronous from separate
// goroutines because §3.4 pins one session's asynchronous calls to
// program order; only independent synchronous calls may legally overlap.
package main

import (
	"fmt"
	"log"
	"os"
	"sync"
	"time"

	"clam/internal/benchlib"
	"clam/internal/core"
	"clam/internal/dynload"
)

// holdMicros matches the Hold argument bench_test.go uses, so `go test
// -bench Throughput` and clambench measure the same workload.
const holdMicros = int64(50)

// tputConfig names one throughput row.
type tputConfig struct {
	key      string
	clients  int
	inflight int
	hops     int
	cross    bool
	workers  int // 0 = executor default, >0 = WithDispatchWorkers, -1 = serial ablation
}

func (c tputConfig) serverOpts() []core.ServerOption {
	switch {
	case c.workers < 0:
		return []core.ServerOption{core.WithPerObjectDispatch(false)}
	case c.workers > 0:
		return []core.ServerOption{core.WithDispatchWorkers(c.workers)}
	}
	return nil
}

// benchThroughput completes ~n Hold calls spread over clients × inflight
// workers and returns the mean wall time per completed call; throughput
// is its inverse.
func benchThroughput(n int, cfg tputConfig) cost {
	dir, err := os.MkdirTemp("", "clambench-tput")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	fx, err := benchlib.Boot("unix", dir, cfg.serverOpts()...)
	if err != nil {
		log.Fatal(err)
	}
	defer fx.Server.Close()

	names := make([]string, cfg.clients)
	for i := range names {
		names[i] = "pinger"
	}
	if cfg.cross {
		if _, err := fx.PublishPingers(cfg.clients); err != nil {
			log.Fatal(err)
		}
		for i := range names {
			names[i] = fmt.Sprintf("pinger%d", i)
		}
	}

	network, addr := fx.Network, fx.Addr
	if cfg.hops == 2 {
		lib := dynload.NewLibrary()
		if err := benchlib.Register(lib); err != nil {
			log.Fatal(err)
		}
		mid := core.NewServer(lib, append([]core.ServerOption{
			core.WithServerLog(func(string, ...any) {}),
		}, cfg.serverOpts()...)...)
		defer mid.Close()
		up, err := core.SelfDialUpstream(mid, fx.Server, core.WithClientLog(func(string, ...any) {}))
		if err != nil {
			log.Fatal(err)
		}
		uniq := make([]string, 0, len(names))
		seen := make(map[string]bool)
		for _, nm := range names {
			if !seen[nm] {
				seen[nm] = true
				uniq = append(uniq, nm)
			}
		}
		if err := mid.ImportNamed(up, uniq...); err != nil {
			log.Fatal(err)
		}
		ln, err := mid.Listen("unix", dir+"/mid.sock")
		if err != nil {
			log.Fatal(err)
		}
		network, addr = "unix", ln.Addr().String()
	}

	conns := make([]*core.Client, cfg.clients)
	objs := make([]*core.Remote, cfg.clients)
	for i := range conns {
		c, err := core.Dial(network, addr, core.WithClientLog(func(string, ...any) {}))
		if err != nil {
			log.Fatal(err)
		}
		defer c.Close()
		conns[i] = c
		if objs[i], err = c.NamedObject(names[i]); err != nil {
			log.Fatal(err)
		}
	}

	runOps := func(per int) {
		var wg sync.WaitGroup
		for i := 0; i < cfg.clients; i++ {
			for j := 0; j < cfg.inflight; j++ {
				wg.Add(1)
				go func(obj *core.Remote) {
					defer wg.Done()
					var out int64
					for k := 0; k < per; k++ {
						if err := obj.CallInto("Hold", []any{&out}, holdMicros); err != nil {
							log.Fatal(err)
						}
					}
				}(objs[i])
			}
		}
		wg.Wait()
	}

	per := n / (cfg.clients * cfg.inflight)
	if per < 1 {
		per = 1
	}
	runOps(2) // warm: connections, handle caches, worker pool
	start := time.Now()
	runOps(per)
	total := per * cfg.clients * cfg.inflight
	return cost{dur: time.Since(start) / time.Duration(total)}
}

// callsPerSec renders a per-op duration as throughput.
func callsPerSec(c cost) float64 {
	if c.dur <= 0 {
		return 0
	}
	return 1e9 / float64(c.dur.Nanoseconds())
}

// runThroughput measures the matrix and prints the table; the returned
// rows feed the JSON report.
func runThroughput(n int) []row {
	configs := []tputConfig{
		{key: "same_object_8x4", clients: 8, inflight: 4, hops: 1, cross: false, workers: 8},
		{key: "same_object_8x4_serial", clients: 8, inflight: 4, hops: 1, cross: false, workers: -1},
		{key: "cross_object_8x4", clients: 8, inflight: 4, hops: 1, cross: true, workers: 8},
		{key: "cross_object_8x4_serial", clients: 8, inflight: 4, hops: 1, cross: true, workers: -1},
		{key: "cross_object_1x4", clients: 1, inflight: 4, hops: 1, cross: true, workers: 8},
		{key: "cross_object_4x4", clients: 4, inflight: 4, hops: 1, cross: true, workers: 8},
		{key: "twohop_cross_4x2", clients: 4, inflight: 2, hops: 2, cross: true, workers: 4},
		{key: "twohop_cross_4x2_serial", clients: 4, inflight: 2, hops: 2, cross: true, workers: -1},
		// Worker sweep: same cross-object load, pool size 1 → 8.
		{key: "cross_object_8x4_w1", clients: 8, inflight: 4, hops: 1, cross: true, workers: 1},
		{key: "cross_object_8x4_w2", clients: 8, inflight: 4, hops: 1, cross: true, workers: 2},
		{key: "cross_object_8x4_w4", clients: 8, inflight: 4, hops: 1, cross: true, workers: 4},
	}
	fmt.Println()
	fmt.Println("Throughput (pipelined Hold(50µs) handlers; clients × in-flight):")
	fmt.Printf("  %-28s %14s %14s\n", "", "µs/call", "calls/sec")
	rows := make([]row, 0, len(configs))
	byKey := make(map[string]cost, len(configs))
	for _, cfg := range configs {
		c := benchThroughput(n, cfg)
		byKey[cfg.key] = c
		fmt.Printf("  %-28s %14.1f %14.0f\n", cfg.key,
			float64(c.dur.Nanoseconds())/1e3, callsPerSec(c))
		rows = append(rows, row{label: cfg.key, key: cfg.key, cost: c})
	}

	fmt.Println()
	fmt.Println("Dispatch shape checks (per-object policy vs serial ablation):")
	check := func(name string, ok bool) {
		status := "PASS"
		if !ok {
			status = "FAIL"
		}
		fmt.Printf("  [%s] %s\n", status, name)
	}
	check("cross-object 8x4 at least 2x the live serial ablation",
		2*byKey["cross_object_8x4"].dur <= byKey["cross_object_8x4_serial"].dur)
	if base := baselineThroughputNs("cross_object_8x4_serial"); base > 0 {
		check("cross-object 8x4 at least 2x the embedded pre-change baseline",
			2*float64(byKey["cross_object_8x4"].dur.Nanoseconds()) <= base)
	}
	check("same-object stays serialized: per-object within 2x of serial",
		byKey["same_object_8x4"].dur <= 2*byKey["same_object_8x4_serial"].dur)
	check("two-hop chain gains from pipelined relays",
		byKey["twohop_cross_4x2"].dur < byKey["twohop_cross_4x2_serial"].dur)
	return rows
}

// baselineThroughputNs looks a row up in the embedded pre-change
// throughput baseline (0 when absent).
func baselineThroughputNs(key string) float64 {
	for _, r := range preChangeThroughput.Results {
		if r.Name == key {
			return r.NsPerOp
		}
	}
	return 0
}
