// Package task implements CLAM's lightweight processes (ICDCS 1988, §4.3).
//
// CLAM "uses lightweight processes, called tasks, to create asynchrony in
// the server and clients. Tasks are provided by a thread class, which
// supports tasks at the user level. ... Tasks are non-preemptive, but a
// task can voluntarily block itself by waiting on a specific event. The
// task is reactivated when that event occurs."
//
// Go's goroutines are preemptive and parallel, which is a different
// concurrency model from the paper's uniprocessor user-level threads; the
// difference matters because CLAM's upcall machinery (a server task blocks
// while the client task carries the flow of control, §4.3) assumes
// cooperative scheduling. This package therefore multiplexes goroutines
// under a single run token so that at most one task in a scheduler executes
// at a time and control transfers only at Yield and Block — the paper's
// model, preserved exactly.
//
// Tasks are reused rather than created per event, "to reduce overhead"
// (§4.4); the pool can be disabled to measure that choice (ablation A-3).
package task

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// ErrClosed is returned by Spawn after the scheduler has been closed.
var ErrClosed = errors.New("task: scheduler closed")

// Sched is a cooperative scheduler. Construct with New.
type Sched struct {
	token chan struct{} // run token: held by the single executing task
	reuse bool

	mu     sync.Mutex
	closed bool
	parked []*Task // idle tasks available for reuse

	active sync.WaitGroup // running (non-parked) tasks
	idle   sync.WaitGroup // parked goroutines, released at Close

	// statistics for the task-reuse ablation
	spawned atomic.Uint64 // goroutines created
	reused  atomic.Uint64 // spawns satisfied from the pool
	started atomic.Uint64 // total Spawn calls admitted
	nextID  atomic.Uint64
}

// Option configures a scheduler.
type Option func(*Sched)

// WithoutReuse disables the task pool so every Spawn creates a fresh
// goroutine — the baseline configuration for the reuse ablation.
func WithoutReuse() Option {
	return func(s *Sched) { s.reuse = false }
}

// New returns a scheduler with task reuse enabled unless disabled by an
// option.
func New(opts ...Option) *Sched {
	s := &Sched{
		token: make(chan struct{}, 1),
		reuse: true,
	}
	for _, o := range opts {
		o(s)
	}
	s.token <- struct{}{} // token available
	return s
}

// Task is one lightweight process. Its methods must only be called from
// the task's own function, on the goroutine the scheduler runs it on.
type Task struct {
	s    *Sched
	id   uint64
	wake chan struct{} // buffered(1): wakeup may precede the sleep
	work chan func(*Task)
}

// ID returns a scheduler-unique task identifier.
func (t *Task) ID() uint64 { return t.id }

// Spawn starts fn as a new task — the paper's "asynchronous call to a
// procedure in the thread class". It returns once the task is queued;
// fn runs when it first acquires the run token. If an idle task exists it
// is reused.
func (s *Sched) Spawn(fn func(*Task)) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.started.Add(1)
	s.active.Add(1)
	if n := len(s.parked); s.reuse && n > 0 {
		t := s.parked[n-1]
		s.parked = s.parked[:n-1]
		s.mu.Unlock()
		s.reused.Add(1)
		t.work <- fn
		return nil
	}
	s.mu.Unlock()

	s.spawned.Add(1)
	t := &Task{
		s:    s,
		id:   s.nextID.Add(1),
		wake: make(chan struct{}, 1),
		work: make(chan func(*Task), 1),
	}
	go t.loop(fn)
	return nil
}

func (t *Task) loop(fn func(*Task)) {
	cell := NewCell[Task](nil)
	defer cell.Drop()
	for {
		t.Acquire()
		cell.Set(t)
		boundTasks.Add(1)
		fn(t)
		cell.Set(nil)
		boundTasks.Add(-1)
		t.Release()
		t.s.active.Done()

		// Park for reuse, or exit if the pool is off or the scheduler
		// is closing.
		t.s.mu.Lock()
		if !t.s.reuse || t.s.closed {
			t.s.mu.Unlock()
			return
		}
		t.s.parked = append(t.s.parked, t)
		t.s.idle.Add(1)
		t.s.mu.Unlock()

		next, ok := <-t.work
		t.s.idle.Done()
		if !ok {
			return
		}
		fn = next
	}
}

// Release gives up the run token so the task can block outside the
// scheduler (on a Go channel, say) without freezing every other task;
// Acquire takes it back before the task runs on. Block is the same pair
// around an Event.
func (t *Task) Release() { t.s.token <- struct{}{} }

// Acquire takes the run token back after Release.
func (t *Task) Acquire() { <-t.s.token }

// Yield gives other runnable tasks a chance to execute, then resumes.
func (t *Task) Yield() {
	t.Release()
	t.Acquire()
}

// Block suspends the task until e occurs. If the event was already
// signalled, Block consumes the pending occurrence and returns at once.
func (t *Task) Block(e *Event) {
	e.mu.Lock()
	if e.pending > 0 {
		e.pending--
		e.mu.Unlock()
		return
	}
	e.waiters = append(e.waiters, t)
	e.mu.Unlock()
	t.Release()
	<-t.wake
	t.Acquire()
}

// Event is a condition a task can wait for. Occurrences are counted, so a
// Signal that precedes the Block is not lost; this is what lets I/O
// goroutines outside the scheduler deliver completions safely. The zero
// value is ready to use.
type Event struct {
	mu      sync.Mutex
	pending int
	waiters []*Task
}

// Signal records one occurrence of the event, reactivating the
// longest-waiting task if any is blocked. Signal may be called from any
// goroutine, including ones that are not tasks.
func (e *Event) Signal() {
	e.mu.Lock()
	if len(e.waiters) == 0 {
		e.pending++
		e.mu.Unlock()
		return
	}
	t := e.waiters[0]
	e.waiters = e.waiters[1:]
	e.mu.Unlock()
	t.wake <- struct{}{}
}

// Broadcast reactivates every blocked task without leaving a pending
// count.
func (e *Event) Broadcast() {
	e.mu.Lock()
	ws := e.waiters
	e.waiters = nil
	e.mu.Unlock()
	for _, t := range ws {
		t.wake <- struct{}{}
	}
}

// Waiters reports how many tasks are blocked on the event.
func (e *Event) Waiters() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.waiters)
}

// Stats reports scheduler counters: total tasks admitted, goroutines
// created, and spawns satisfied by reusing a parked task.
func (s *Sched) Stats() (started, created, reused uint64) {
	return s.started.Load(), s.spawned.Load(), s.reused.Load()
}

// Wait blocks until every admitted task has finished. Tasks blocked on
// events that will never be signalled make Wait hang; that is a caller
// bug, as with any join.
func (s *Sched) Wait() { s.active.Wait() }

// Close stops admission, waits for running tasks to finish, and releases
// the parked pool goroutines. It is safe to call once; after Close, Spawn
// reports ErrClosed.
func (s *Sched) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("task: already closed")
	}
	s.closed = true
	parked := s.parked
	s.parked = nil
	s.mu.Unlock()

	s.active.Wait()
	for _, t := range parked {
		close(t.work)
	}
	s.idle.Wait()
	return nil
}
