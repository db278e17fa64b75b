package wm_test

// End-to-end reproduction of the paper's running examples over real CLAM
// sessions: Figure 4.1's registration topology and the §2.1 sweep. These
// tests drive the whole stack — wm classes dynamically loaded into a
// server, clients registering distributed upcalls, input events flowing
// upward across the address-space boundary.

import (
	"path/filepath"
	"testing"
	"time"

	"clam/internal/core"
	"clam/internal/dynload"
	"clam/internal/wm"
)

// bootWMServer builds the §4.2 topology: a server with the wm library,
// screen instance S and base window BaseW created at startup and
// published by name.
func bootWMServer(t testing.TB, opts ...core.ServerOption) (*core.Server, *wm.Screen, *wm.Window, string) {
	t.Helper()
	lib := dynload.NewLibrary()
	wm.MustRegister(lib, wm.Config{Width: 200, Height: 150})
	opts = append([]core.ServerOption{
		core.WithServerLog(func(format string, args ...any) { t.Logf(format, args...) }),
	}, opts...)
	srv := core.NewServer(lib, opts...)

	sobj, _, err := srv.CreateInstance("screen", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	scr := sobj.(*wm.Screen)
	srv.SetNamed("screen", scr)

	wobj, _, err := srv.CreateInstance("window", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	base := wobj.(*wm.Window)
	srv.SetNamed("basewindow", base)

	path := filepath.Join(t.TempDir(), "wm.sock")
	if _, err := srv.Listen("unix", path); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, scr, base, path
}

// Figure 4.1: U1, a client-resident layer, creates a window W1 and
// registers user1::mouse to receive mouse events; a button press inside
// W1 reaches U1 through a distributed upcall.
func TestFigure41RegistrationAndUpcall(t *testing.T) {
	_, scr, _, path := bootWMServer(t)

	c, err := core.Dial("unix", path)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	baseRem, err := c.NamedObject("basewindow")
	if err != nil {
		t.Fatal(err)
	}
	// U1 creates a window W1...
	var w1 *core.Remote
	if err := baseRem.CallInto("Create", []any{&w1}, wm.R(50, 50, 60, 40), int64(3)); err != nil {
		t.Fatal(err)
	}
	// ...and registers its user1::mouse procedure to receive mouse events.
	events := make(chan wm.MouseEvent, 8)
	if err := w1.Call("PostMouse", func(ev wm.MouseEvent) { events <- ev }); err != nil {
		t.Fatal(err)
	}

	// A mouse button is pressed inside W1: screen::mouse sees it, BaseW
	// routes it, and the registration fires a distributed upcall to U1.
	scr.InjectMouseWait(wm.MouseEvent{Kind: wm.MouseDown, X: 55, Y: 60, Buttons: wm.ButtonLeft})
	select {
	case ev := <-events:
		// Coordinates arrive translated into W1's space.
		if ev.X != 5 || ev.Y != 10 || ev.Kind != wm.MouseDown {
			t.Errorf("client saw %v", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("distributed upcall never arrived")
	}

	// A press outside W1 must not reach U1.
	scr.InjectMouseWait(wm.MouseEvent{Kind: wm.MouseDown, X: 5, Y: 5})
	select {
	case ev := <-events:
		t.Errorf("event outside W1 leaked to the client: %v", ev)
	case <-time.After(100 * time.Millisecond):
	}
}

// §2.1: the sweep module is dynamically loaded into the server; the
// per-motion events stay server-side and only the final "window created"
// event crosses to the client, whose handler then creates the window with
// a reentrant call.
func TestSweepExampleEndToEnd(t *testing.T) {
	_, scr, base, path := bootWMServer(t)

	c, err := core.Dial("unix", path)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	baseRem, err := c.NamedObject("basewindow")
	if err != nil {
		t.Fatal(err)
	}
	// Load the sweeping code into the server (version 1: opaque band).
	sweepRem, err := c.NewExact("sweep", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sweepRem.Call("Attach", baseRem); err != nil {
		t.Fatal(err)
	}
	// Client decides the details of window creation: grid alignment on.
	if err := sweepRem.Call("SetGrid", int64(10)); err != nil {
		t.Fatal(err)
	}

	created := make(chan wm.Rect, 1)
	winMade := make(chan error, 1)
	if err := sweepRem.Call("OnCreated", func(r wm.Rect) {
		// The single "window created" event: create the window via a
		// reentrant RPC while the server-side upcall is still active.
		var w *core.Remote
		err := baseRem.CallInto("Create", []any{&w}, r, int64(9))
		winMade <- err
		created <- r
	}); err != nil {
		t.Fatal(err)
	}

	// Drive the sweep from the device layer: down, many motions, up.
	scr.InjectMouseWait(wm.MouseEvent{Kind: wm.MouseDown, X: 20, Y: 20, Buttons: wm.ButtonLeft})
	for x := int16(21); x <= 80; x++ {
		scr.InjectMouseWait(wm.MouseEvent{Kind: wm.MouseMove, X: x, Y: x / 2})
	}
	scr.InjectMouseWait(wm.MouseEvent{Kind: wm.MouseUp, X: 80, Y: 40})

	select {
	case r := <-created:
		if r != wm.R(20, 20, 60, 20) {
			t.Errorf("created rect %v, want [20,20 60x20]", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("window-created upcall never arrived")
	}
	if err := <-winMade; err != nil {
		t.Fatalf("reentrant Create failed: %v", err)
	}

	// The motion events were absorbed inside the server's sweeping layer:
	// 60 moves handled, only one upcall crossed.
	var moves int64
	if err := sweepRem.CallInto("MoveCount", []any{&moves}); err != nil {
		t.Fatal(err)
	}
	if moves != 60 {
		t.Errorf("server-side layer handled %d moves, want 60", moves)
	}
	if base.ChildCount() != 1 {
		t.Errorf("base has %d children", base.ChildCount())
	}
	// The created window is painted.
	if scr.CountColor(9) != 60*20 {
		t.Errorf("window pixels = %d", scr.CountColor(9))
	}
}

// TestRemoteSweepBothDispatchModes is examples/sweep's gesture driven by a
// remote device driver: the client's own InjectMouseWait call is still
// running when the pump's "window created" upcall reaches the client,
// whose handler calls back into the server. Under the serial policy that
// reentrant Create is ordered behind the InjectMouseWait call, so it can
// run only because InjectMouseWait hands off its place while it waits.
func TestRemoteSweepBothDispatchModes(t *testing.T) {
	for _, mode := range []struct {
		name string
		opts []core.ServerOption
	}{
		{"perobject", nil},
		{"serial", []core.ServerOption{core.WithPerObjectDispatch(false)}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			srv, _, base, path := bootWMServer(t, mode.opts...)
			c, err := core.Dial("unix", path)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			baseRem, err := c.NamedObject("basewindow")
			if err != nil {
				t.Fatal(err)
			}
			screen, err := c.NamedObject("screen")
			if err != nil {
				t.Fatal(err)
			}
			sweepRem, err := c.NewExact("sweep", 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := sweepRem.Call("Attach", baseRem); err != nil {
				t.Fatal(err)
			}
			created := make(chan error, 1)
			if err := sweepRem.Call("OnCreated", func(r wm.Rect) {
				var w *core.Remote
				created <- baseRem.CallInto("Create", []any{&w}, r, int64(9))
			}); err != nil {
				t.Fatal(err)
			}

			drag := make(chan error, 1)
			go func() {
				if err := screen.Call("InjectMouse", wm.MouseEvent{Kind: wm.MouseDown, X: 20, Y: 20, Buttons: wm.ButtonLeft}); err != nil {
					drag <- err
					return
				}
				for x := int16(21); x <= 80; x++ {
					if err := screen.Async("InjectMouse", wm.MouseEvent{Kind: wm.MouseMove, X: x, Y: x / 2}); err != nil {
						drag <- err
						return
					}
				}
				drag <- screen.Call("InjectMouseWait", wm.MouseEvent{Kind: wm.MouseUp, X: 80, Y: 40})
			}()
			select {
			case err := <-drag:
				if err != nil {
					t.Fatalf("drag: %v", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("remote InjectMouseWait deadlocked with the reentrant Create")
			}
			select {
			case err := <-created:
				if err != nil {
					t.Fatalf("reentrant Create failed: %v", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("window-created upcall never arrived")
			}
			if base.ChildCount() != 1 {
				t.Errorf("base has %d children, want 1", base.ChildCount())
			}
			if d := srv.Metrics().Dispatch; mode.opts != nil && d.Parallelism > 1 {
				t.Errorf("serial Dispatch.Parallelism = %d, want <= 1", d.Parallelism)
			}
		})
	}
}

// Two clients load different versions of the sweeping class side by side
// (§2.1: "Different clients could have different versions").
func TestCoexistingSweepVersions(t *testing.T) {
	_, _, _, path := bootWMServer(t)

	c1, err := core.Dial("unix", path)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := core.Dial("unix", path)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	s1, err := c1.NewExact("sweep", 1)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := c2.NewExact("sweep", 2)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Version() != 1 || s2.Version() != 2 {
		t.Errorf("versions: %d, %d", s1.Version(), s2.Version())
	}
	if s1.ClassID() == s2.ClassID() {
		t.Error("both versions share a class id")
	}
}

// The button widget clicked from the device layer upcalls into the client.
func TestRemoteButtonClick(t *testing.T) {
	_, scr, _, path := bootWMServer(t)
	c, err := core.Dial("unix", path)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	baseRem, err := c.NamedObject("basewindow")
	if err != nil {
		t.Fatal(err)
	}
	btn, err := c.New("button", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := btn.Call("Attach", baseRem, wm.R(10, 10, 20, 10)); err != nil {
		t.Fatal(err)
	}
	clicks := make(chan int64, 4)
	if err := btn.Call("OnClick", func(n int64) { clicks <- n }); err != nil {
		t.Fatal(err)
	}
	scr.InjectMouseWait(wm.MouseEvent{Kind: wm.MouseDown, X: 15, Y: 15})
	scr.InjectMouseWait(wm.MouseEvent{Kind: wm.MouseUp, X: 15, Y: 15})
	select {
	case n := <-clicks:
		if n != 1 {
			t.Errorf("click count %d", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("click upcall never arrived")
	}
}

// Remote drawing through layers: fill a window from the client, verify on
// the server's framebuffer, and read the pixel back remotely.
func TestRemoteDrawing(t *testing.T) {
	_, scr, _, path := bootWMServer(t)
	c, err := core.Dial("unix", path)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	scrRem, err := c.NamedObject("screen")
	if err != nil {
		t.Fatal(err)
	}
	baseRem, err := c.NamedObject("basewindow")
	if err != nil {
		t.Fatal(err)
	}
	var w *core.Remote
	if err := baseRem.CallInto("Create", []any{&w}, wm.R(0, 0, 10, 10), int64(5)); err != nil {
		t.Fatal(err)
	}
	// Asynchronous drawing calls, then a synchronous pixel read that
	// flushes the batch.
	if err := w.Async("FillRect", wm.R(2, 2, 3, 3), int64(8)); err != nil {
		t.Fatal(err)
	}
	var pix int64
	if err := scrRem.CallInto("PixelAt", []any{&pix}, int64(3), int64(3)); err != nil {
		t.Fatal(err)
	}
	if pix != 8 {
		t.Errorf("remote pixel = %d, want 8", pix)
	}
	if scr.PixelAt(3, 3) != 8 {
		t.Error("server framebuffer disagrees")
	}
}
