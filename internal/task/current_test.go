package task

import (
	"fmt"
	"testing"
	"time"
)

func TestCurrentInsideTask(t *testing.T) {
	s := New()
	defer s.Close()
	got := make(chan *Task, 1)
	s.Spawn(func(task *Task) { got <- Current() })
	select {
	case cur := <-got:
		if cur == nil {
			t.Error("Current() = nil inside a task")
		}
	case <-time.After(time.Second):
		t.Fatal("task never ran")
	}
}

func TestCurrentMatchesOwnTask(t *testing.T) {
	s := New()
	defer s.Close()
	type pair struct{ own, cur *Task }
	got := make(chan pair, 1)
	s.Spawn(func(task *Task) { got <- pair{own: task, cur: Current()} })
	p := <-got
	if p.own != p.cur {
		t.Errorf("Current() = %v, want %v", p.cur, p.own)
	}
}

func TestCurrentOutsideTaskIsNil(t *testing.T) {
	if Current() != nil {
		t.Error("Current() != nil on a plain goroutine")
	}
}

func TestCurrentSurvivesBlock(t *testing.T) {
	s := New()
	defer s.Close()
	var e Event
	got := make(chan *Task, 2)
	s.Spawn(func(task *Task) {
		got <- Current()
		task.Block(&e)
		got <- Current() // still bound after resuming
	})
	first := <-got
	for e.Waiters() == 0 {
		time.Sleep(time.Millisecond)
	}
	e.Signal()
	second := <-got
	if first == nil || first != second {
		t.Errorf("binding changed across Block: %v vs %v", first, second)
	}
}

func TestCurrentUnboundAfterPoolExit(t *testing.T) {
	s := New(WithoutReuse())
	done := make(chan struct{})
	s.Spawn(func(*Task) { close(done) })
	<-done
	s.Close()
	// The goroutine has exited; a fresh goroutine must not see its task.
	res := make(chan *Task, 1)
	go func() { res <- Current() }()
	if cur := <-res; cur != nil {
		t.Errorf("stale binding visible: %v", cur)
	}
}

func TestCurrentAcrossReuse(t *testing.T) {
	s := New()
	defer s.Close()
	got := make(chan *Task, 1)
	s.Spawn(func(task *Task) { got <- Current() })
	t1 := <-got
	// Wait for the task to park, then reuse it.
	for {
		s.mu.Lock()
		n := len(s.parked)
		s.mu.Unlock()
		if n > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	s.Spawn(func(task *Task) { got <- Current() })
	t2 := <-got
	if t2 == nil {
		t.Fatal("Current() nil on reused task")
	}
	if t1 != t2 {
		t.Error("reused task changed identity")
	}
}

// TestCellBindsOwnGoroutineAndType: a goroutine's cell answers Bound only
// on that goroutine and only for its own type, so executor workers and
// tasks can share the registry without seeing each other's bindings.
func TestCellBindsOwnGoroutineAndType(t *testing.T) {
	type item struct{ n int }
	it := &item{n: 7}
	ready, done := make(chan struct{}), make(chan struct{})
	type result struct {
		bound, afterUnset, afterDrop *item
		task                         *Task
	}
	res := make(chan result, 1)
	go func() {
		c := NewCell[item](nil)
		c.Set(it)
		close(ready)
		var r result
		r.bound = Bound[item]()
		r.task = Bound[Task]()
		c.Set(nil)
		r.afterUnset = Bound[item]()
		c.Set(it)
		c.Drop()
		r.afterDrop = Bound[item]()
		res <- r
		<-done
	}()
	<-ready
	if got := Bound[item](); got != nil {
		t.Errorf("Bound on another goroutine = %v, want nil", got)
	}
	r := <-res
	close(done)
	if r.bound != it {
		t.Errorf("Bound on the cell's goroutine = %v, want %v", r.bound, it)
	}
	if r.task != nil {
		t.Errorf("Bound[Task] on an item cell = %v, want nil", r.task)
	}
	if r.afterUnset != nil || r.afterDrop != nil {
		t.Errorf("binding survived Set(nil)/Drop: %v, %v", r.afterUnset, r.afterDrop)
	}
}

// TestWaitHandsOffBoundWork: Wait runs the cell's hand-off on the bound
// value before blocking and its resume after, and skips both when done is
// already closed or the cell binds nothing.
func TestWaitHandsOffBoundWork(t *testing.T) {
	type item struct{ n int }
	var log []string
	handOff := func(it *item) func() {
		log = append(log, fmt.Sprintf("handoff %d", it.n))
		return func() { log = append(log, fmt.Sprintf("resume %d", it.n)) }
	}
	fin := make(chan struct{})
	go func() {
		defer close(fin)
		c := NewCell(handOff)
		defer c.Drop()

		closed := make(chan struct{})
		close(closed)
		c.Set(&item{n: 1})
		Wait(closed) // already done: no hand-off

		done := make(chan struct{})
		time.AfterFunc(10*time.Millisecond, func() { close(done) })
		Wait(done)

		c.Set(nil)
		done2 := make(chan struct{})
		time.AfterFunc(time.Millisecond, func() { close(done2) })
		Wait(done2) // nothing bound: no hand-off
	}()
	<-fin
	if got, want := fmt.Sprint(log), "[handoff 1 resume 1]"; got != want {
		t.Fatalf("hand-off log %s, want %s", got, want)
	}
}

// TestWaitReleasesRunToken: a task waiting in Wait gives up the run token,
// so the task that will close its channel can run.
func TestWaitReleasesRunToken(t *testing.T) {
	s := New()
	defer s.Close()
	done, started, finished := make(chan struct{}), make(chan struct{}), make(chan struct{})
	if err := s.Spawn(func(*Task) {
		close(started)
		Wait(done)
		close(finished)
	}); err != nil {
		t.Fatal(err)
	}
	<-started // the first task holds the token from here on
	if err := s.Spawn(func(*Task) { close(done) }); err != nil {
		t.Fatal(err)
	}
	select {
	case <-finished:
	case <-time.After(5 * time.Second):
		t.Fatal("waiting task kept the run token")
	}
}
