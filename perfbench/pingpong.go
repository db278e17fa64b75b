package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"clam"
)

// pingpong runs Figure 5.1's remote-call and remote-upcall rows side by
// side at the smallest message size: session A calls an empty method on its
// own object (stream A, call round trips), session B calls echo, whose
// handler upcalls into B's registered procedure (stream B, upcall
// latency from the handler's stamp to procedure entry).
//
// routed is the same traffic entered at mesh member A for objects owned by
// member B, so the difference between the two workloads is the hop.
type pingpong struct {
	routed bool
	bGen   *gen

	ra, rb *clam.Remote
	nA, nB uint64 // call ids issued
	okA    int64  // successful pings since boot (checked against the pinger)
	okB    int64

	fwd0       clam.ForwardingStats // entry member's relays at the end of set-up
	setupCalls int64

	a, b streamState

	// Stream B's latency is recorded by the upcall procedure, on the
	// client's upcall goroutine.
	bmu  sync.Mutex
	bLat *sampleBuf
}

// streamState is what a closed loop writes during a window; it is read
// only after the loop has returned.
type streamState struct {
	lat   *sampleBuf
	ops   int64
	errs  []string
	extra int64
}

func (s *streamState) reset() {
	if s.lat != nil {
		s.lat.reset()
	}
	s.ops, s.errs, s.extra = 0, nil, 0
}

func (s *streamState) result(lat *sampleBuf) streamResult {
	if lat == nil {
		lat = s.lat
	}
	return streamResult{lat: newDist(lat.lat), ops: s.ops, errs: s.errs, over: lat.over, extra: s.extra}
}

func newPingpong(opt options, routed bool) workload {
	n := samplesPerWindow
	return &pingpong{
		routed: routed, bGen: newGen(opt.seed, 2),
		a: streamState{lat: newSampleBuf(n)}, bLat: newSampleBuf(n),
	}
}

func (p *pingpong) setup(e *env, ph *phases) error {
	t := time.Now()
	lap := func(d *time.Duration) { n := time.Now(); *d = n.Sub(t); t = n }

	entry, path, err := e.newServer()
	if err != nil {
		return err
	}
	var nameA, nameB string
	if p.routed {
		owner, ownerPath, err := e.newServer()
		if err != nil {
			return err
		}
		selfA := clam.MeshPeer{Name: "a", Network: "unix", Addr: path}
		selfB := clam.MeshPeer{Name: "b", Network: "unix", Addr: ownerPath}
		if err := entry.JoinMesh(selfA, selfB); err != nil {
			return fmt.Errorf("mesh join a: %w", err)
		}
		if err := owner.JoinMesh(selfB, selfA); err != nil {
			return fmt.Errorf("mesh join b: %w", err)
		}
		if nameA, err = createOwnedBy(entry, "pinger", "b"); err != nil {
			return err
		}
		if nameB, err = createOwnedBy(entry, "echo", "b"); err != nil {
			return err
		}
	}
	lap(&ph.boot)

	ca, err := e.dial(path)
	if err != nil {
		return err
	}
	cb, err := e.dial(path)
	if err != nil {
		return err
	}
	lap(&ph.dial)

	if p.routed {
		if p.ra, err = ca.NamedObject(nameA); err != nil {
			return err
		}
		if p.rb, err = cb.NamedObject(nameB); err != nil {
			return err
		}
	} else {
		if p.ra, err = ca.New("pinger", 0); err != nil {
			return err
		}
		if p.rb, err = cb.New("echo", 0); err != nil {
			return err
		}
	}
	if err := p.rb.Call("Register", echoProc(p.proc)); err != nil {
		return fmt.Errorf("register: %w", err)
	}
	lap(&ph.bind)

	p.okA, p.okB = 0, 0
	if err := p.ra.Call("Ping", int64(0)); err != nil {
		return fmt.Errorf("first ping: %w", err)
	}
	p.okA++
	var r int64
	if err := p.rb.CallInto("Echo", []any{&r}, int64(0), int64(1)); err != nil {
		return fmt.Errorf("first echo: %w", err)
	}
	if r != echoAnswer(1) {
		return fmt.Errorf("first echo returned %d, want %d", r, echoAnswer(1))
	}
	p.okB++
	lap(&ph.first)
	if p.routed {
		p.fwd0 = entry.Metrics().Forwarding
		p.setupCalls = p.okA + p.okB
	}
	return nil
}

// createOwnedBy creates a named instance of class that the mesh directory
// assigns to owner, entering at entry.
func createOwnedBy(entry *clam.Server, class, owner string) (string, error) {
	for i := 0; i < 4096; i++ {
		name := fmt.Sprintf("%s-%d", class, i)
		if got, _ := entry.MeshOwner(name); got != owner {
			continue
		}
		if err := entry.MeshCreateNamed(class, name); err != nil {
			return "", fmt.Errorf("mesh create %s: %w", name, err)
		}
		return name, nil
	}
	return "", fmt.Errorf("directory never assigned a %s name to %s", class, owner)
}

func echoAnswer(x int64) int64 { return 3*x + 1 }

// proc is session B's registered procedure: the upcall's far end.
func (p *pingpong) proc(id, x, stamp int64) (int64, error) {
	t0 := now()
	p.bmu.Lock()
	p.bLat.add(t0 - stamp)
	p.bmu.Unlock()
	if tr := tracing(uint64(id)); tr != nil {
		tr.record(kUpcallProc, uint64(id), slotProc, slotInvoke, t0, now())
	}
	return echoAnswer(x), nil
}

func (p *pingpong) loops() []func(*atomic.Bool) {
	return []func(*atomic.Bool){p.loopA, p.loopB}
}

func (p *pingpong) loopA(stop *atomic.Bool) {
	for !stop.Load() {
		p.nA++
		id := traceID(streamA, p.nA)
		t0 := now()
		err := p.ra.Call("Ping", int64(id))
		t1 := now()
		if err != nil {
			p.a.errs = append(p.a.errs, fmt.Sprintf("ping %d: %v", p.nA, err))
			return
		}
		p.a.lat.add(t1 - t0)
		p.a.ops++
		p.okA++
		if tr := tracing(id); tr != nil {
			tr.record(kCall, id, slotRoot, -1, t0, t1)
		}
	}
}

func (p *pingpong) loopB(stop *atomic.Bool) {
	var r int64
	rets := []any{&r}
	for !stop.Load() {
		p.nB++
		id := traceID(streamB, p.nB)
		x := p.bGen.echoArg()
		t0 := now()
		err := p.rb.CallInto("Echo", rets, int64(id), x)
		t1 := now()
		if err != nil {
			p.b.errs = append(p.b.errs, fmt.Sprintf("echo %d: %v", p.nB, err))
			return
		}
		if r != echoAnswer(x) {
			p.b.errs = append(p.b.errs, fmt.Sprintf("echo %d returned %d, want %d", p.nB, r, echoAnswer(x)))
			return
		}
		p.b.ops++
		p.okB++
		if tr := tracing(id); tr != nil {
			tr.record(kCall, id, slotRoot, -1, t0, t1)
		}
	}
}

func (p *pingpong) resetWindow() {
	p.a.reset()
	p.b.reset()
	p.bmu.Lock()
	p.bLat.reset()
	p.bmu.Unlock()
}

func (p *pingpong) streams() (a, b streamResult) {
	p.bmu.Lock()
	defer p.bmu.Unlock()
	return p.a.result(nil), p.b.result(p.bLat)
}

func (p *pingpong) ops() int64 { return p.a.ops + p.b.ops }

func (p *pingpong) check(e *env) []string {
	var fails []string
	w := e.w
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.pingers) != 1 || len(w.echoes) != 1 {
		return []string{fmt.Sprintf("object count: %d pingers, %d echoes, want 1 each", len(w.pingers), len(w.echoes))}
	}
	if got := w.pingers[0].calls.Load(); got != p.okA {
		fails = append(fails, fmt.Sprintf("pinger call count: server saw %d, client completed %d", got, p.okA))
	}
	if got := w.echoes[0].calls.Load(); got != p.okB {
		fails = append(fails, fmt.Sprintf("echo call count: server saw %d, client completed %d", got, p.okB))
	}
	if p.routed {
		// Every call and every upcall since set-up crossed the hop exactly once.
		f := e.srvs[0].Metrics().Forwarding
		calls := p.okA + p.okB - p.setupCalls
		upcalls := p.okB - 1
		if got := int64(f.CallsRelayedDown - p.fwd0.CallsRelayedDown); got != calls {
			fails = append(fails, fmt.Sprintf("relays per call: entry relayed %d calls for %d routed calls", got, calls))
		}
		if got := int64(f.UpcallsRelayedUp - p.fwd0.UpcallsRelayedUp); got != upcalls {
			fails = append(fails, fmt.Sprintf("relays per upcall: entry relayed %d upcalls for %d routed upcalls", got, upcalls))
		}
	}
	return fails
}

func (p *pingpong) streamNames() map[string]string {
	return map[string]string{
		"a_p50_us": "call_p50_us", "a_p90_us": "call_p90_us", "a_p99_us": "call_p99_us", "a_per_s": "calls_per_s",
		"b_p50_us": "upcall_p50_us", "b_p90_us": "upcall_p90_us", "b_p99_us": "upcall_p99_us", "b_per_s": "upcalls_per_s",
	}
}
