package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"clam"
)

// events measures server-initiated upcalls: the paper's routed mouse and
// damage events (§4.2), published with Server.Publish to a topic both
// sessions subscribe to. Each frame publishes a seeded burst of 32 to 128
// events, each with a unique sequence number and a send stamp; the next
// frame starts when both subscribers have the whole burst. Stream A is
// each delivery (stamp before Publish → subscriber procedure entry),
// stream B each frame (first stamp → last delivery on either subscriber).
type events struct {
	gen  *gen
	srv  *clam.Server
	subs [2]*subscriber

	seq       int64
	published int64 // events published since boot (Publish accepted them)
	pubErrs   []string

	b streamState
}

const topic = "ev"

// subscriber is one session's procedure state. The procedure runs on the
// client's upcall goroutine; the path from the publisher to it crosses a
// socket, which orders nothing for Go, so mu guards the state. done
// receives when the current frame's last event arrives.
type subscriber struct {
	mu        sync.Mutex
	lat       *sampleBuf
	next      int64 // expected sequence number (FIFO check)
	disorder  int64
	delivered int64
	lastAt    int64
	target    atomic.Int64
	done      chan struct{}
}

func newEvents(opt options) workload {
	n := samplesPerWindow
	ev := &events{gen: newGen(opt.seed, 4), b: streamState{lat: newSampleBuf(n / 32)}}
	for i := range ev.subs {
		ev.subs[i] = &subscriber{lat: newSampleBuf(n / 2), done: make(chan struct{}, 1)}
	}
	return ev
}

func (ev *events) proc(i int) func(seq, stamp int64) {
	s := ev.subs[i]
	return func(seq, stamp int64) {
		t0 := now()
		s.mu.Lock()
		s.lat.add(t0 - stamp)
		if seq != s.next {
			s.disorder++
		}
		s.next = seq + 1
		s.delivered++
		s.lastAt = t0
		s.mu.Unlock()
		id := traceID(streamA, uint64(seq))
		if tr := tracing(id); tr != nil {
			tr.record(kUpcallProc, id, slotProc+i, slotRoot, t0, now())
		}
		if seq == s.target.Load() {
			s.done <- struct{}{}
		}
	}
}

func (ev *events) setup(e *env, ph *phases) error {
	t0 := time.Now()
	lap := func(d *time.Duration) { n := time.Now(); *d = n.Sub(t0); t0 = n }

	srv, path, err := e.newServer()
	if err != nil {
		return err
	}
	if err := srv.RegisterMulticast(topic, (func(seq, stamp int64))(nil)); err != nil {
		return err
	}
	ev.srv = srv
	lap(&ph.boot)

	var cs [2]*clam.Client
	for i := range cs {
		if cs[i], err = e.dial(path); err != nil {
			return err
		}
	}
	lap(&ph.dial)

	ev.seq, ev.published, ev.pubErrs = 0, 0, nil
	for i, c := range cs {
		s := ev.subs[i]
		s.mu.Lock()
		s.next, s.disorder, s.delivered = 1, 0, 0
		s.mu.Unlock()
		if _, err := c.Subscribe(topic, ev.proc(i)); err != nil {
			return fmt.Errorf("subscribe: %w", err)
		}
	}
	lap(&ph.bind)

	if err := ev.frame(1); err != nil {
		return fmt.Errorf("first event: %w", err)
	}
	lap(&ph.first)
	return nil
}

// frame publishes n events and waits until both subscribers have them.
func (ev *events) frame(n int) error {
	first := ev.seq + 1
	last := ev.seq + int64(n)
	for _, s := range ev.subs {
		s.target.Store(last)
	}
	var firstStamp int64
	for seq := first; seq <= last; seq++ {
		ev.seq = seq
		id := traceID(streamA, uint64(seq))
		stamp := now()
		if seq == first {
			firstStamp = stamp
		}
		got, err := ev.srv.Publish(topic, seq, stamp)
		if tr := tracing(id); tr != nil {
			tr.record(kPublish, id, slotRoot, -1, stamp, now())
		}
		if err != nil || got != len(ev.subs) {
			ev.pubErrs = append(ev.pubErrs, fmt.Sprintf("publish %d: queued for %d of %d subscribers (%v)", seq, got, len(ev.subs), err))
			return fmt.Errorf("publish %d failed", seq)
		}
		ev.published++
	}
	timeout := time.NewTimer(checkWait)
	defer timeout.Stop()
	var lastAt int64
	for _, s := range ev.subs {
		select {
		case <-s.done:
			s.mu.Lock()
			lastAt = max(lastAt, s.lastAt)
			s.mu.Unlock()
		case <-timeout.C:
			return fmt.Errorf("frame ending at event %d not delivered to every subscriber within %v", last, checkWait)
		}
	}
	ev.b.lat.add(lastAt - firstStamp)
	return nil
}

func (ev *events) loops() []func(*atomic.Bool) {
	return []func(*atomic.Bool){func(stop *atomic.Bool) {
		for !stop.Load() {
			n := ev.gen.burst()
			if err := ev.frame(n); err != nil {
				ev.b.errs = append(ev.b.errs, err.Error())
				return
			}
			ev.b.ops++
		}
	}}
}

func (ev *events) resetWindow() {
	ev.b.reset()
	for _, s := range ev.subs {
		s.mu.Lock()
		s.lat.reset()
		s.delivered = 0
		s.mu.Unlock()
	}
}

func (ev *events) streams() (a, b streamResult) {
	var all []int64
	var over int
	for _, s := range ev.subs {
		s.mu.Lock()
		all = append(all, s.lat.lat...)
		over += s.lat.over
		a.ops += s.delivered
		s.mu.Unlock()
	}
	a.lat, a.over = newDist(all), over
	return a, ev.b.result(nil)
}

func (ev *events) ops() int64 {
	var n int64
	for _, s := range ev.subs {
		s.mu.Lock()
		n += s.delivered
		s.mu.Unlock()
	}
	return n
}

func (ev *events) check(e *env) []string {
	fails := append([]string(nil), ev.pubErrs...)
	for i, s := range ev.subs {
		s.mu.Lock()
		disorder, next := s.disorder, s.next
		s.mu.Unlock()
		if disorder != 0 {
			fails = append(fails, fmt.Sprintf("subscriber %d FIFO order: %d events out of order", i, disorder))
		}
		if next != ev.seq+1 {
			fails = append(fails, fmt.Sprintf("subscriber %d last event %d, published up to %d", i, next-1, ev.seq))
		}
	}
	// The server counts a delivery once the subscriber's upcall returns,
	// which can trail the procedure's entry: wait for the count to settle.
	want := uint64(ev.published) * uint64(len(ev.subs))
	var f clam.FanoutStats
	for deadline := time.Now().Add(checkWait); ; time.Sleep(time.Millisecond) {
		f = ev.srv.Metrics().Fanout
		drops := f.QueueDropsOldest + f.QueueDropsNewest + f.QueueDropsClosed
		if f.EventsDelivered+drops == want || time.Now().After(deadline) {
			break
		}
	}
	drops := f.QueueDropsOldest + f.QueueDropsNewest + f.QueueDropsClosed
	if f.EventsDelivered+drops != want || f.EventsPublished != uint64(ev.published) {
		fails = append(fails, fmt.Sprintf("delivered + dropped = published × subscribers: %d + %d vs %d × %d (server counted %d published)",
			f.EventsDelivered, drops, ev.published, len(ev.subs), f.EventsPublished))
	}
	return fails
}

func (ev *events) streamNames() map[string]string {
	return map[string]string{
		"a_p50_us": "upcall_p50_us", "a_p90_us": "upcall_p90_us", "a_p99_us": "upcall_p99_us", "a_per_s": "upcalls_per_s",
		"b_p50_us": "frame_p50_us", "b_p90_us": "frame_p90_us", "b_p99_us": "frame_p99_us", "b_per_s": "frames_per_s",
	}
}
