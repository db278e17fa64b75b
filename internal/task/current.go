package task

import (
	"bytes"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// This file lets code discover the work it is running under. The paper's
// RUC upcall handler blocks "the server task" while the client task is
// active (§4.3); the handler is invoked through an ordinary procedure
// pointer, so it has no task argument and must find the current task
// implicitly — on the VAX that is the thread package's current-thread
// global, here it is a goroutine-id registry of per-goroutine cells. The
// server's dispatch executor binds its work items to its worker goroutines
// through the same registry.

// registry maps a goroutine id (uint64) to that goroutine's *Cell[T]. A
// serving goroutine inserts its cell once and deletes it on exit; each
// dispatch in between is one atomic store into the cell. (Storing the
// bound value directly in the map would allocate an entry node per
// overwrite on the current runtime's sync.Map — a per-dispatch allocation
// on the hot path.)
var registry sync.Map

// Cell is one goroutine's binding slot for values of type T. A goroutine
// serves one kind of work, so it registers at most one cell.
type Cell[T any] struct {
	gid     uint64
	v       atomic.Pointer[T]
	handOff func(*T) (resume func())
}

// NewCell registers a cell for the calling goroutine. The goroutine binds
// its current work with Set and must call Drop before it exits. handOff,
// when not nil, is what Wait runs on the bound value before the goroutine
// blocks: it releases whatever the work holds that others need while it
// waits, and returns the function that takes it back.
func NewCell[T any](handOff func(*T) (resume func())) *Cell[T] {
	c := &Cell[T]{gid: goid(), handOff: handOff}
	registry.Store(c.gid, c)
	return c
}

// Set binds v (nil to unbind) to the cell's goroutine.
func (c *Cell[T]) Set(v *T) { c.v.Store(v) }

// Drop removes the cell from the registry.
func (c *Cell[T]) Drop() { registry.Delete(c.gid) }

// release runs the cell's hand-off on its bound value, returning the
// resume function, or nil when there is nothing to hand off.
func (c *Cell[T]) release() func() {
	if c.handOff == nil {
		return nil
	}
	if v := c.v.Load(); v != nil {
		return c.handOff(v)
	}
	return nil
}

// Wait blocks the calling goroutine until done is closed, releasing what
// it holds that others may need meanwhile: a task gives up the run token,
// as in Block; a goroutine whose cell binds work with a hand-off (a
// dispatch worker's message, say, which a reentrant call may be ordered
// behind) hands the work off for the duration of the wait.
func Wait(done <-chan struct{}) {
	select {
	case <-done:
		return
	default:
	}
	if t := Current(); t != nil {
		t.Release()
		defer t.Acquire()
	} else if v, ok := registry.Load(goid()); ok {
		if c, ok := v.(interface{ release() func() }); ok {
			if resume := c.release(); resume != nil {
				defer resume()
			}
		}
	}
	<-done
}

// Bound returns the value the calling goroutine's cell binds, or nil when
// the goroutine has no cell of type T or its cell is unbound. It parses
// the goroutine id from the stack, so callers gate it behind a cheap
// check (a count of live bindings) on paths where it is usually nil.
func Bound[T any]() *T {
	if v, ok := registry.Load(goid()); ok {
		if c, ok := v.(*Cell[T]); ok {
			return c.v.Load()
		}
	}
	return nil
}

// boundTasks counts goroutines currently executing a task function. When
// it is zero — always in a pure client process, and between dispatches on
// an idle server — Current returns nil with one atomic load, keeping the
// stack parse off the RPC hot path.
var boundTasks atomic.Int64

// goid returns the current goroutine's id by parsing the first line of the
// stack trace ("goroutine N [running]:"). This costs a few microseconds —
// negligible next to the wait it precedes: it is consulted only before a
// goroutine blocks (a distributed upcall's round trip, Wait).
func goid() uint64 {
	var buf [40]byte
	n := runtime.Stack(buf[:], false)
	b := buf[:n]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, err := strconv.ParseUint(string(b), 10, 64)
	if err != nil {
		return 0
	}
	return id
}

// Current returns the task the calling goroutine is executing, or nil when
// called outside any task. Blocking primitives use it so that code invoked
// through plain procedure pointers — upcall proxies in particular — can
// yield the run token correctly without threading a *Task through every
// signature.
func Current() *Task {
	if boundTasks.Load() == 0 {
		return nil
	}
	return Bound[Task]()
}
