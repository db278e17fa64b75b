package main

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"sync/atomic"
	"time"
)

// Spans are recorded by the benchmark's own code around the calls it makes
// into each layer: client stubs, the handler of the benchmark's classes,
// the procedure invocation inside a handler, the client procedure an
// upcall enters, Server.Publish, and the set-up phases. Nothing inside the
// program under test is instrumented.

type spanKind uint8

const (
	kCall       spanKind = iota // Remote.CallInto, client side
	kHandler                    // a benchmark class method, server side
	kInvoke                     // the handler's call of a client procedure
	kUpcallProc                 // the client procedure an upcall enters
	kAsync                      // Remote.Async
	kSync                       // Client.Sync
	kPublish                    // Server.Publish
	kBoot                       // set-up: servers, class load, listen, mesh join
	kDial                       // set-up: client sessions dialed
	kBind                       // set-up: objects bound, procedures registered
	kFirstCall                  // set-up: first successful call
	nKinds
)

var spanNames = [nKinds]string{
	"client.call", "server.handler", "server.invoke", "client.upcall_proc",
	"client.async", "client.sync", "fanout.publish",
	"setup.boot", "setup.dial", "setup.bind", "setup.first_call",
}

func (k spanKind) String() string { return spanNames[k] }

// Span identity: every operation carries a call id, which is its trace id.
// Within a trace each span occupies a fixed slot, so a handler can name its
// parent from the call id alone, without any extra bytes on the wire.
const slotBits = 3

const (
	slotRoot    = 0
	slotHandler = 1
	slotInvoke  = 2
	slotProc    = 3 // + subscriber index
)

func spanID(trace uint64, slot int) uint64 { return trace<<slotBits | uint64(slot) }

// Trace id spaces: the top bits name the stream an operation belongs to.
const streamShift = 56

const (
	streamA     = 1 // pingpong/routed session A, tenants interactive, events events
	streamB     = 2 // pingpong/routed session B, tenants bulk
	streamSetup = 3
	streamCycle = 4 // tenants bulk cycles, one Sync each
)

func traceID(stream, n uint64) uint64 { return stream<<streamShift | n }

func streamOf(trace uint64) uint64 { return trace >> streamShift }

type span struct {
	trace, id, parent uint64
	start, end        int64
	kind              spanKind
}

func (s span) dur() int64 { return s.end - s.start }

var epoch = time.Now()

// now is monotonic nanoseconds since process start, shared by every
// goroutine of the process (client, server and handler alike).
func now() int64 { return int64(time.Since(epoch)) }

// tracer is a preallocated span store. Recording claims a slot with one
// atomic add and never allocates; spans beyond capacity are counted and
// dropped. Only one trace in every `every` is recorded.
type tracer struct {
	buf     []span
	n       atomic.Int64 // slots claimed
	written atomic.Int64 // slots filled: loading it orders the fills before the reader
	dropped atomic.Int64
	every   uint64
}

func newTracer(capacity int, every uint64) *tracer {
	return &tracer{buf: make([]span, capacity), every: every}
}

// active is the tracer of the traced window, nil when tracing is off.
var active atomic.Pointer[tracer]

// tracing returns the active tracer if trace is sampled, else nil.
func tracing(trace uint64) *tracer {
	t := active.Load()
	if t == nil || trace%t.every != 0 {
		return nil
	}
	return t
}

func (t *tracer) record(kind spanKind, trace uint64, slot, parentSlot int, start, end int64) {
	i := t.n.Add(1) - 1
	if i >= int64(len(t.buf)) {
		t.dropped.Add(1)
		return
	}
	var parent uint64
	if parentSlot >= 0 {
		parent = spanID(trace, parentSlot)
	}
	t.buf[i] = span{trace: trace, id: spanID(trace, slot), parent: parent, start: start, end: end, kind: kind}
	t.written.Add(1)
}

// spans returns the recorded spans; call it once recording has stopped.
func (t *tracer) spans() []span {
	return t.buf[:t.written.Load()]
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children (clipped to the parent, overlaps counted once).
func selfTimes(spans []span) []int64 {
	byID := make(map[uint64]int, len(spans))
	for i, s := range spans {
		byID[s.id] = i
	}
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.parent == 0 {
			continue
		}
		if p, ok := byID[s.parent]; ok {
			kids[p] = append(kids[p], [2]int64{s.start, s.end})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(s.start, s.end, kids[i])
	}
	return self
}

// covered is the length of [lo,hi] covered by the union of ivs.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	slices.SortFunc(ivs, func(a, b [2]int64) int { return int(a[0] - b[0]) })
	var total int64
	curS, curE := int64(0), int64(-1)
	open := false
	for _, iv := range ivs {
		s, e := max(iv[0], lo), min(iv[1], hi)
		if s >= e {
			continue
		}
		if open && s <= curE {
			curE = max(curE, e)
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = s, e, true
	}
	if open {
		total += curE - curS
	}
	return total
}

// layerView joins a traced window's spans into the per-layer intervals.
type layerView struct {
	byKind               [nKinds]dist
	selfByKind           [nKinds]dist
	requestLeg, replyLeg dist // stream A: call start → handler start, handler end → call end
	handlerA             dist // stream A handler durations
	backLeg              dist // client procedure exit → invoke return
	procDur              dist
}

func buildLayerView(spans []span) *layerView {
	self := selfTimes(spans)
	byID := make(map[uint64]int, len(spans))
	for i, s := range spans {
		byID[s.id] = i
	}
	var durs, selfs [nKinds][]int64
	var req, rep, hA, back, proc []int64
	for i, s := range spans {
		durs[s.kind] = append(durs[s.kind], s.dur())
		selfs[s.kind] = append(selfs[s.kind], self[i])
		p, hasParent := byID[s.parent]
		switch s.kind {
		case kHandler:
			if streamOf(s.trace) == streamA && hasParent && spans[p].kind == kCall {
				c := spans[p]
				req = append(req, s.start-c.start)
				rep = append(rep, c.end-s.end)
				hA = append(hA, s.dur())
			}
		case kUpcallProc:
			proc = append(proc, s.dur())
			if hasParent && spans[p].kind == kInvoke {
				back = append(back, spans[p].end-s.end)
			}
		}
	}
	v := &layerView{
		requestLeg: newDist(req), replyLeg: newDist(rep), handlerA: newDist(hA),
		backLeg: newDist(back), procDur: newDist(proc),
	}
	for k := range durs {
		v.byKind[k] = newDist(durs[k])
		v.selfByKind[k] = newDist(selfs[k])
	}
	return v
}

// writeSelfTable prints per-kind span counts, durations and self times.
func (v *layerView) writeSelfTable(w io.Writer, workload string) {
	fmt.Fprintf(w, "self-time table (%s): span, n, p50 dur µs, p50 self µs, p99 self µs (- below %d samples beyond)\n", workload, minBeyond)
	for k := spanKind(0); k < nKinds; k++ {
		if v.byKind[k].n() == 0 {
			continue
		}
		d50, _ := quantile(v.byKind[k].sorted, 0.5)
		s50, _ := quantile(v.selfByKind[k].sorted, 0.5)
		p99 := "-"
		if s99, ok := quantile(v.selfByKind[k].sorted, 0.99); ok {
			p99 = fmt.Sprintf("%.2f", float64(s99)/1e3)
		}
		fmt.Fprintf(w, "  %-20s %8d %10.2f %10.2f %10s\n", k, v.byKind[k].n(), float64(d50)/1e3, float64(s50)/1e3, p99)
	}
}

// dumpSpans writes one span per line: trace, id, parent, name, start and
// end in nanoseconds since process start.
func dumpSpans(w io.Writer, spans []span) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "trace\tid\tparent\tname\tstart_ns\tend_ns")
	for _, s := range spans {
		fmt.Fprintf(bw, "%x\t%x\t%x\t%s\t%d\t%d\n", s.trace, s.id, s.parent, s.kind, s.start, s.end)
	}
	return bw.Flush()
}
