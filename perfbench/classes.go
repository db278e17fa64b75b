package main

import (
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"clam"
)

// The benchmark's own classes. They live here, not in the repository's
// shared bench helpers, so edits elsewhere cannot change what is measured.
// Every method takes the operation's call id as its first argument, in
// traced and untraced runs alike, so the bytes on the wire do not depend
// on tracing.

// world holds every instance one boot's classes create, so output checks
// can read server-side state directly after the loops stop.
type world struct {
	mu      sync.Mutex
	pingers []*pinger
	echoes  []*echo
	stores  []*store

	// bulk session program order (§3.4): the last async sequence number a
	// store saw, shared by all of the session's stores.
	bulkLast   atomic.Int64
	outOfOrder atomic.Int64
}

// library returns a fresh class library whose constructors register their
// instances in w. Each server gets its own library.
func (w *world) library() *clam.Library {
	lib := clam.NewLibrary()
	lib.MustRegister(clam.Class{
		Name: "pinger", Version: 1, Type: reflect.TypeOf(&pinger{}),
		New: func(any) (any, error) {
			p := &pinger{}
			w.mu.Lock()
			w.pingers = append(w.pingers, p)
			w.mu.Unlock()
			return p, nil
		},
	})
	lib.MustRegister(clam.Class{
		Name: "echo", Version: 1, Type: reflect.TypeOf(&echo{}),
		New: func(any) (any, error) {
			e := &echo{}
			w.mu.Lock()
			w.echoes = append(w.echoes, e)
			w.mu.Unlock()
			return e, nil
		},
	})
	lib.MustRegister(clam.Class{
		Name: "store", Version: 1, Type: reflect.TypeOf(&store{}),
		New: func(any) (any, error) {
			s := &store{w: w}
			w.mu.Lock()
			w.stores = append(w.stores, s)
			w.mu.Unlock()
			return s, nil
		},
	})
	return lib
}

// pinger is Figure 5.1's remote-call target: an empty method.
type pinger struct {
	calls atomic.Int64
}

// Ping does nothing but count.
func (p *pinger) Ping(id int64) {
	tr := tracing(uint64(id))
	var t0 int64
	if tr != nil {
		t0 = now()
	}
	p.calls.Add(1)
	if tr != nil {
		tr.record(kHandler, uint64(id), slotHandler, slotRoot, t0, now())
	}
}

// echoProc is the client procedure an echo call upcalls into: it gets the
// call id, the argument and the server's stamp taken just before the
// invocation.
type echoProc = func(id, x, stamp int64) (int64, error)

// echo is Figure 5.1's remote-upcall target: each Echo call makes one
// distributed upcall, nested inside the call, into the registered
// procedure and returns its answer.
type echo struct {
	fn    atomic.Pointer[echoProc]
	calls atomic.Int64
}

// Register stores the client's procedure.
func (e *echo) Register(fn echoProc) { e.fn.Store(&fn) }

// Echo invokes the registered procedure with x.
func (e *echo) Echo(id, x int64) (int64, error) {
	tr := tracing(uint64(id))
	var t0 int64
	if tr != nil {
		t0 = now()
	}
	e.calls.Add(1)
	fn := e.fn.Load()
	if fn == nil {
		return 0, errors.New("echo: no procedure registered")
	}
	stamp := now()
	r, err := (*fn)(id, x, stamp)
	if tr != nil {
		t1 := now()
		tr.record(kInvoke, uint64(id), slotInvoke, slotHandler, stamp, t1)
		tr.record(kHandler, uint64(id), slotHandler, slotRoot, t0, t1)
	}
	return r, err
}

// store is the tenants workload's bulk target. Calls arrive as batched
// asyncs carrying the session's sequence number.
type store struct {
	w     *world
	count atomic.Int64
	bytes atomic.Int64
	sum   atomic.Uint64
}

// order checks §3.4 program order across all of the bulk session's stores.
func (s *store) order(seq int64) {
	if prev := s.w.bulkLast.Swap(seq); seq != prev+1 {
		s.w.outOfOrder.Add(1)
	}
}

// Put accepts a payload and folds its bytes into the store's totals.
func (s *store) Put(seq int64, payload []byte) {
	tr := tracing(uint64(seq))
	var t0 int64
	if tr != nil {
		t0 = now()
	}
	s.order(seq)
	var sum uint64
	for _, b := range payload {
		sum += uint64(b)
	}
	s.count.Add(1)
	s.bytes.Add(int64(len(payload)))
	s.sum.Add(sum)
	if tr != nil {
		tr.record(kHandler, uint64(seq), slotHandler, slotRoot, t0, now())
	}
}

// Slow stands in for a handler waiting on I/O for holdUS microseconds.
func (s *store) Slow(seq, holdUS int64) {
	tr := tracing(uint64(seq))
	var t0 int64
	if tr != nil {
		t0 = now()
	}
	s.order(seq)
	time.Sleep(time.Duration(holdUS) * time.Microsecond)
	s.count.Add(1)
	if tr != nil {
		tr.record(kHandler, uint64(seq), slotHandler, slotRoot, t0, now())
	}
}
