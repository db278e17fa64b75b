package main

import (
	"encoding/json"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"clam"
)

func TestQuantileTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		q      float64
		want   int64
		wantOK bool
	}{
		{1000, 0.99, 990, true}, // 10 samples above it
		{999, 0.99, 990, false}, // only 9
		{100, 0.5, 50, true},
		{19, 0.5, 10, false}, // 9 above the median
		{20, 0.5, 10, true},
		{1, 0.5, 1, false},
	} {
		s := make([]int64, tc.n)
		for i := range s {
			s[i] = int64(i + 1)
		}
		got, ok := quantile(s, tc.q)
		if got != tc.want || ok != tc.wantOK {
			t.Errorf("quantile(1..%d, %g) = %d, %v; want %d, %v", tc.n, tc.q, got, ok, tc.want, tc.wantOK)
		}
	}
	if _, ok := quantile(nil, 0.5); ok {
		t.Error("quantile of no samples reported ok")
	}
}

func TestDistReportsSampleCount(t *testing.T) {
	d := newDist([]int64{5, 3, 1, 4, 2})
	if d.n() != 5 || !slices.IsSorted(d.sorted) {
		t.Fatalf("newDist: n=%d sorted=%v", d.n(), d.sorted)
	}
	var errs []string
	d.pct(0.99, "stream A", &errs)
	if len(errs) != 1 || !strings.Contains(errs[0], "5 samples") || !strings.Contains(errs[0], "stream A") {
		t.Errorf("unsupported p99 error = %q, want the stream and its sample count", errs)
	}
	if v := d.pctOr(0.99); v != 0 {
		t.Errorf("pctOr of an unsupported p99 = %v, want 0", v)
	}
}

func TestBestQuarter(t *testing.T) {
	vs := []float64{7, 1, 5, 3, 9, 2, 8, 4}
	if got := bestQuarter(vs, true); got != 2 {
		t.Errorf("best quarter, lower better = %v, want 2", got)
	}
	if got := bestQuarter(vs, false); got != 8 {
		t.Errorf("best quarter, higher better = %v, want 8", got)
	}
	if got := bestQuarter([]float64{4}, true); got != 4 {
		t.Errorf("best quarter of one window = %v, want 4", got)
	}
}

func TestSeedGivesSameOperations(t *testing.T) {
	draw := func(seed uint64) (cycles [][]bulkCall, bursts []int, args []int64, pay []byte) {
		g, b, e := newGen(seed, 3), newGen(seed, 4), newGen(seed, 2)
		for i := 0; i < 500; i++ {
			cycles = append(cycles, g.cycle(nil))
			bursts = append(bursts, b.burst())
			args = append(args, e.echoArg())
		}
		return cycles, bursts, args, newPayload(seed).buf
	}
	c1, b1, a1, p1 := draw(7)
	c2, b2, a2, p2 := draw(7)
	if !slices.EqualFunc(c1, c2, slices.Equal) || !slices.Equal(b1, b2) || !slices.Equal(a1, a2) || !slices.Equal(p1, p2) {
		t.Fatal("seed 7 produced two different operation sequences")
	}
	c3, b3, a3, _ := draw(8)
	if slices.EqualFunc(c1, c3, slices.Equal) || slices.Equal(b1, b3) || slices.Equal(a1, a3) {
		t.Fatal("seeds 7 and 8 produced the same operation sequence")
	}
	slow := 0
	for _, c := range c1 {
		puts := 0
		for _, op := range c {
			if op.slow {
				slow++
				continue
			}
			puts++
			if op.n < minPayload || op.n > maxPayload || op.off+op.n > payloadBufLen {
				t.Fatalf("put out of range: %+v", op)
			}
		}
		if puts < 12 || puts > 20 || len(c)-puts > 1 {
			t.Fatalf("cycle with %d puts and %d slow calls", puts, len(c)-puts)
		}
	}
	if slow < 80 || slow > 170 { // about one cycle in four of 500
		t.Errorf("%d of 500 cycles carry a slow call, want about 125", slow)
	}
	for _, n := range b1 {
		if n < 32 || n > 128 {
			t.Fatalf("burst of %d events", n)
		}
	}
}

func TestPayloadSum(t *testing.T) {
	p := newPayload(3)
	c := bulkCall{off: 100, n: 5000}
	var want uint64
	for _, b := range p.slice(c) {
		want += uint64(b)
	}
	if got := p.sum(c); got != want {
		t.Errorf("payload sum = %d, want %d", got, want)
	}
}

func TestSelfTime(t *testing.T) {
	const tr = 1
	sp := func(slot, parent int, kind spanKind, start, end int64) span {
		var p uint64
		if parent >= 0 {
			p = spanID(tr, parent)
		}
		return span{trace: tr, id: spanID(tr, slot), parent: p, kind: kind, start: start, end: end}
	}
	spans := []span{
		sp(0, -1, kCall, 0, 100),
		sp(1, 0, kHandler, 10, 30),
		sp(2, 0, kHandler, 20, 40),     // overlaps the first child: counted once
		sp(3, 0, kUpcallProc, 90, 120), // runs past its parent: clipped
		sp(4, 1, kInvoke, 12, 18),      // a grandchild does not cover the root
	}
	got := selfTimes(spans)
	want := []int64{60, 14, 20, 30, 6}
	if !slices.Equal(got, want) {
		t.Errorf("self times = %v, want %v", got, want)
	}
	if c := covered(0, 10, [][2]int64{{20, 30}, {-5, -1}}); c != 0 {
		t.Errorf("intervals outside the parent covered %d", c)
	}
}

func TestLayerLegs(t *testing.T) {
	id := traceID(streamA, 2)
	spans := []span{
		{trace: id, id: spanID(id, slotRoot), kind: kCall, start: 100, end: 200},
		{trace: id, id: spanID(id, slotHandler), parent: spanID(id, slotRoot), kind: kHandler, start: 130, end: 160},
	}
	b := traceID(streamB, 2)
	spans = append(spans,
		span{trace: b, id: spanID(b, slotInvoke), parent: spanID(b, slotHandler), kind: kInvoke, start: 10, end: 50},
		span{trace: b, id: spanID(b, slotProc), parent: spanID(b, slotInvoke), kind: kUpcallProc, start: 20, end: 35},
	)
	v := buildLayerView(spans)
	if v.requestLeg.sorted[0] != 30 || v.replyLeg.sorted[0] != 40 || v.handlerA.sorted[0] != 30 {
		t.Errorf("legs: request %v reply %v handler %v, want 30 40 30", v.requestLeg.sorted, v.replyLeg.sorted, v.handlerA.sorted)
	}
	if v.backLeg.sorted[0] != 15 || v.procDur.sorted[0] != 15 {
		t.Errorf("upcall: back leg %v proc %v, want 15 15", v.backLeg.sorted, v.procDur.sorted)
	}
}

// metricNameOK reports whether a metric name starts with a letter or digit,
// uses only letters, digits, '_', '.' and '-', and fits 64 bytes.
func metricNameOK(name string) bool {
	if name == "" || len(name) > 64 || strings.ContainsRune("_.-", rune(name[0])) {
		return false
	}
	return !strings.ContainsFunc(name, func(r rune) bool {
		return !(r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || strings.ContainsRune("_.-", r))
	})
}

func TestMetricNames(t *testing.T) {
	for _, bad := range []string{"", "_x", "a b", "p99/us", "ü", strings.Repeat("a", 65)} {
		if metricNameOK(bad) {
			t.Errorf("metricNameOK(%q) = true", bad)
		}
	}

	// The names the benchmark prints are the names BENCHMARK.json lists.
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	listed := func(ms []struct{ Name, Unit string }) []string {
		var out []string
		for _, m := range ms {
			if !metricNameOK(m.Name) {
				t.Errorf("BENCHMARK.json metric name %q", m.Name)
			}
			out = append(out, m.Name+" "+m.Unit)
		}
		sort.Strings(out)
		return out
	}
	emitted := func(vs []namedValue) []string {
		var out []string
		for _, v := range vs {
			out = append(out, v.name+" "+v.unit)
		}
		sort.Strings(out)
		return out
	}

	// One empty window stands in for a run.
	w := &windowResult{
		elapsed: time.Second,
		m0:      make([]clam.MetricsSnapshot, 1), m1: make([]clam.MetricsSnapshot, 1),
	}
	m := measurement{w}
	var errs []string
	e2e := endToEnd(nil, w, m.figures(&errs))
	if got, want := emitted(e2e), listed(spec.EndToEnd); !slices.Equal(got, want) {
		t.Errorf("end-to-end metrics printed %v, BENCHMARK.json lists %v", got, want)
	}
	pl := perLayer(w, m, m, buildLayerView(nil), []phases{{}}, newTracer(1, 1))
	pl = append(pl, namedValue{"fail_ratio", "share", 0})
	if got, want := emitted(pl), listed(spec.PerLayer); !slices.Equal(got, want) {
		t.Errorf("per-layer metrics printed %v, BENCHMARK.json lists %v", got, want)
	}
}
