// Allocation tripwires for the two cross-address-space hot paths, the
// Figure 5.1 rows whose budgets EXPERIMENTS.md pins: remote call (~8
// allocs/op) and remote upcall (~14 allocs/op). testing.AllocsPerRun only
// counts the calling goroutine, which misses the read loops and executor
// workers actually serving the exchange, so these guards measure the
// whole-process runtime.MemStats delta — the same method clambench uses
// for BENCH_*.json. Budgets leave slack over the measured steady state so
// GC noise does not flake, while a structural regression (a per-dispatch
// allocation creeping into the executor, say) still fails loudly.
package clam_test

import (
	"runtime"
	"testing"

	"clam/internal/benchlib"
	"clam/internal/core"
	"clam/internal/shm"
)

const (
	// Measured steady state is ~8.1 allocs/op (2-CPU x86-64, Go 1.24);
	// budgeted +2.
	maxRemoteCallAllocs = 10
	// Measured steady state is ~14 allocs/op (BENCH_6.json); budgeted +4.
	maxRemoteUpcallAllocs = 18
	// The shared-memory call row's budget is a hard ceiling, not a slack
	// band: the sub-5µs target depends on the ring path staying this lean
	// (measured steady state is ~6 allocs/op on the same machine).
	maxShmCallAllocs = 8
)

// processAllocsPerOp runs fn n times after a warmup and returns the mean
// whole-process Mallocs delta per iteration.
func processAllocsPerOp(t *testing.T, n int, fn func()) float64 {
	t.Helper()
	for i := 0; i < n/4+10; i++ {
		fn()
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

func TestAllocGuardRemoteCall(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc guard needs a steady process; skipped in -short")
	}
	fx, err := benchlib.Boot("unix", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer fx.Server.Close()
	c, err := core.Dial(fx.Network, fx.Addr, core.WithClientLog(func(string, ...any) {}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rem, err := c.NamedObject("pinger")
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	allocs := processAllocsPerOp(t, 400, func() {
		if err := rem.CallInto("Ping", []any{&n}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > maxRemoteCallAllocs {
		t.Errorf("remote call allocates %.1f objects/op process-wide, budget %d", allocs, maxRemoteCallAllocs)
	}
}

func TestAllocGuardRemoteUpcall(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc guard needs a steady process; skipped in -short")
	}
	fx, err := benchlib.Boot("unix", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer fx.Server.Close()
	c, err := core.Dial(fx.Network, fx.Addr, core.WithClientLog(func(string, ...any) {}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	echo, err := c.NamedObject("echo")
	if err != nil {
		t.Fatal(err)
	}
	if err := echo.Call("Register", func(x int64) int64 { return x + 1 }); err != nil {
		t.Fatal(err)
	}
	fn := fx.Echo.Proc()
	if fn == nil {
		t.Fatal("registration did not reach the server")
	}
	var v int64
	allocs := processAllocsPerOp(t, 400, func() {
		v = fn(v) // distributed upcall: server → client → server
	})
	if allocs > maxRemoteUpcallAllocs {
		t.Errorf("remote upcall allocates %.1f objects/op process-wide, budget %d", allocs, maxRemoteUpcallAllocs)
	}
}

func TestAllocGuardShmCall(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc guard needs a steady process; skipped in -short")
	}
	if !shm.Supported() {
		t.Skip("shared-memory transport unsupported on this platform")
	}
	fx, err := benchlib.Boot("unix", t.TempDir(), core.WithSharedMemory(0))
	if err != nil {
		t.Fatal(err)
	}
	defer fx.Server.Close()
	c, err := core.Dial(fx.Network, fx.Addr, core.WithClientLog(func(string, ...any) {}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rem, err := c.NamedObject("pinger")
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	allocs := processAllocsPerOp(t, 400, func() {
		if err := rem.CallInto("Ping", []any{&n}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > maxShmCallAllocs {
		t.Errorf("shm remote call allocates %.1f objects/op process-wide, budget %d", allocs, maxShmCallAllocs)
	}
	if tr := fx.Server.Metrics().Transport; tr.ShmSessions == 0 {
		t.Error("guard measured a socket session, not rings (ShmSessions = 0)")
	}
}
