package wm

import (
	"fmt"
	"sync"

	"clam/internal/task"
)

// Screen is the lowest layer of the window system: an in-memory
// framebuffer with damage tracking and the input entry points. It plays
// the role of the paper's screen class: "Screen is a low level class that
// handles updates to the display screen" (§4.2), and it is where input
// becomes asynchronous: "A new task is started in the server in response
// to input from the external devices, such as the keyboard and mouse.
// This task propagates the information from the input event upward
// through layers of abstraction by using upcalls" (§4.3).
//
// The display is simulated: a W×H byte array of color indices standing in
// for the MicroVAX's bitmapped display. Everything the paper's
// measurements exercise — drawing through layers, damage, event fan-out —
// hits this code path.
type Screen struct {
	mu     sync.Mutex
	w, h   int16
	pix    []byte
	damage Region

	mouseFns  []func(MouseEvent)
	keyFns    []func(KeyEvent)
	damageFns []func([]Rect)

	sched *task.Sched // nil delivers input inline

	// Input events are delivered strictly in arrival order by a single
	// pump task (reused across bursts, §4.4: "Tasks are reused, instead
	// of being newly created on each input event to reduce overhead").
	inq     []inputEvent
	pumping bool

	// counters for experiments
	injected uint64
	painted  uint64
}

type inputEvent struct {
	mouse *MouseEvent
	key   *KeyEvent
	done  chan struct{} // closed on delivery, if anyone waits for it
}

// complete signals whoever is waiting for this event's delivery.
func (ie *inputEvent) complete() {
	if ie.done != nil {
		close(ie.done)
	}
}

// NewScreen creates a screen of the given size. If sched is non-nil,
// injected input events each start a task that carries the event upward.
func NewScreen(w, h int16, sched *task.Sched) *Screen {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("wm: invalid screen size %dx%d", w, h))
	}
	return &Screen{
		w:     w,
		h:     h,
		pix:   make([]byte, int(w)*int(h)),
		sched: sched,
	}
}

// Width reports the screen width in pixels.
func (s *Screen) Width() int64 { return int64(s.w) }

// Height reports the screen height in pixels.
func (s *Screen) Height() int64 { return int64(s.h) }

// Bounds returns the full screen rectangle.
func (s *Screen) Bounds() Rect { return Rect{W: s.w, H: s.h} }

// Fill paints the clipped rectangle with a color.
func (s *Screen) Fill(r Rect, color int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fillLocked(r, byte(color))
}

func (s *Screen) fillLocked(r Rect, color byte) {
	r = r.Intersect(s.Bounds())
	if r.Empty() {
		return
	}
	for y := r.Y; y < r.Y+r.H; y++ {
		row := s.pix[int(y)*int(s.w):]
		for x := r.X; x < r.X+r.W; x++ {
			row[x] = color
		}
	}
	s.damage.Add(r)
	s.painted++
}

// Border paints a 1-pixel frame along the rectangle's edge.
func (s *Screen) Border(r Rect, color int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := byte(color)
	s.fillLocked(Rect{X: r.X, Y: r.Y, W: r.W, H: 1}, c)
	s.fillLocked(Rect{X: r.X, Y: r.Y + r.H - 1, W: r.W, H: 1}, c)
	s.fillLocked(Rect{X: r.X, Y: r.Y, W: 1, H: r.H}, c)
	s.fillLocked(Rect{X: r.X + r.W - 1, Y: r.Y, W: 1, H: r.H}, c)
}

// PixelAt reads one pixel (out-of-range reads return -1).
func (s *Screen) PixelAt(x, y int64) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if x < 0 || y < 0 || x >= int64(s.w) || y >= int64(s.h) {
		return -1
	}
	return int64(s.pix[y*int64(s.w)+x])
}

// CountColor returns how many pixels currently hold the color — a cheap
// way for tests and remote clients to verify drawing without shipping the
// framebuffer.
func (s *Screen) CountColor(color int64) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	c := byte(color)
	for _, p := range s.pix {
		if p == c {
			n++
		}
	}
	return n
}

// Snapshot copies the framebuffer (row-major, w*h bytes).
func (s *Screen) Snapshot() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]byte(nil), s.pix...)
}

// TakeDamage returns the accumulated damage rectangles and resets them —
// what a display driver would repaint.
func (s *Screen) TakeDamage() []Rect {
	s.mu.Lock()
	defer s.mu.Unlock()
	rects := s.damage.Rects()
	s.damage.Clear()
	return rects
}

// OnDamage registers a procedure to receive batches of damage rectangles
// — how a remote display client mirrors the framebuffer incrementally.
// Damage accumulates (coalesced into disjoint rectangles) until
// FlushDamage posts it, so a burst of drawing costs one upcall.
func (s *Screen) OnDamage(fn func([]Rect)) {
	if fn == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.damageFns = append(s.damageFns, fn)
}

// FlushDamage delivers the accumulated damage to every registered
// observer and resets it, returning how many rectangles were posted.
// With no observers the damage is left in place for TakeDamage.
func (s *Screen) FlushDamage() int64 {
	s.mu.Lock()
	if len(s.damageFns) == 0 || s.damage.Empty() {
		s.mu.Unlock()
		return 0
	}
	rects := s.damage.Rects()
	s.damage.Clear()
	fns := append(([]func([]Rect))(nil), s.damageFns...)
	s.mu.Unlock()
	for _, fn := range fns {
		fn(rects)
	}
	return int64(len(rects))
}

// ReadRect copies the pixels of a clipped rectangle (row-major within the
// rectangle) — the fetch half of incremental display mirroring.
func (s *Screen) ReadRect(r Rect) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	r = r.Intersect(s.Bounds())
	if r.Empty() {
		return nil
	}
	out := make([]byte, 0, r.Area())
	for y := r.Y; y < r.Y+r.H; y++ {
		row := s.pix[int(y)*int(s.w):]
		out = append(out, row[r.X:r.X+r.W]...)
	}
	return out
}

// PostInput registers a procedure to receive mouse events — the paper's
// S.postinput: "the window class registers the window::mouse procedure
// with S (by calling S.postinput) to handle all mouse button events.
// S.postinput saves the pointer to BaseW and window::mouse in S's state"
// (§4.2). The procedure may be local or a RUC proxy; the screen cannot
// tell.
func (s *Screen) PostInput(fn func(MouseEvent)) {
	if fn == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mouseFns = append(s.mouseFns, fn)
}

// PostKey registers a procedure for keyboard events.
func (s *Screen) PostKey(fn func(KeyEvent)) {
	if fn == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.keyFns = append(s.keyFns, fn)
}

// InjectMouse is the external-device entry point: "the screen::mouse
// procedure sees the event and, using the previous registration, makes an
// upcall" (§4.2). With a scheduler, the event is queued and a (reused)
// input task delivers events strictly in arrival order; without one,
// delivery is inline.
func (s *Screen) InjectMouse(ev MouseEvent) {
	s.enqueue(inputEvent{mouse: &ev})
}

// InjectMouseWait is InjectMouse but returns only after delivery has
// completed — used by tests, benchmarks and remote device drivers that
// need a completion edge. It waits in task.Wait: a task releases the run
// token so the input pump can run, and a remote call to it running on a
// dispatch worker hands off its place in the dispatch order while the
// pump's upcalls run.
func (s *Screen) InjectMouseWait(ev MouseEvent) {
	ie := inputEvent{mouse: &ev, done: make(chan struct{})}
	s.enqueue(ie)
	task.Wait(ie.done)
}

// InjectKey delivers a keyboard event through the registered procedures.
func (s *Screen) InjectKey(ev KeyEvent) {
	s.enqueue(inputEvent{key: &ev})
}

// enqueue adds an input event, delivering inline when there is no
// scheduler. It reports whether a done channel (if any) will be closed.
func (s *Screen) enqueue(ie inputEvent) bool {
	s.mu.Lock()
	s.injected++
	if s.sched == nil {
		s.mu.Unlock()
		s.deliver(ie)
		ie.complete()
		return true
	}
	s.inq = append(s.inq, ie)
	spawn := !s.pumping
	if spawn {
		s.pumping = true
	}
	s.mu.Unlock()
	if spawn {
		if err := s.sched.Spawn(func(*task.Task) { s.pump() }); err != nil {
			// Scheduler closed: fall back to inline delivery of the
			// whole queue.
			s.mu.Lock()
			s.pumping = false
			q := s.inq
			s.inq = nil
			s.mu.Unlock()
			for _, e := range q {
				s.deliver(e)
				e.complete()
			}
		}
	}
	return true
}

// pump drains the input queue in order; it runs as a task and exits when
// the queue empties, returning the task to the pool for reuse.
func (s *Screen) pump() {
	for {
		s.mu.Lock()
		if len(s.inq) == 0 {
			s.pumping = false
			s.mu.Unlock()
			return
		}
		ie := s.inq[0]
		s.inq = s.inq[1:]
		s.mu.Unlock()
		s.deliver(ie)
		ie.complete()
	}
}

// deliver upcalls the registered procedures for one event.
func (s *Screen) deliver(ie inputEvent) {
	s.mu.Lock()
	var mfns []func(MouseEvent)
	var kfns []func(KeyEvent)
	if ie.mouse != nil {
		mfns = append(([]func(MouseEvent))(nil), s.mouseFns...)
	}
	if ie.key != nil {
		kfns = append(([]func(KeyEvent))(nil), s.keyFns...)
	}
	s.mu.Unlock()
	if ie.mouse != nil {
		for _, fn := range mfns {
			fn(*ie.mouse)
		}
	}
	if ie.key != nil {
		for _, fn := range kfns {
			fn(*ie.key)
		}
	}
}

// InputCount reports how many events have been injected.
func (s *Screen) InputCount() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int64(s.injected)
}

// PaintCount reports how many fill operations have run.
func (s *Screen) PaintCount() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int64(s.painted)
}
