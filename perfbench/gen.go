package main

import (
	"math"
	"math/rand/v2"
)

// Every input the program under test sees is drawn from the workload seed:
// echo arguments, the tenants cycle plans and payload bytes, and the events
// burst sizes. Each stream draws from its own generator, so the sequence a
// stream produces does not depend on how far another stream got.

const (
	payloadBufLen = 64 << 10
	minPayload    = 64
	maxPayload    = 16 << 10
	nStores       = 4
	slowHoldUS    = 2000
)

type gen struct{ r *rand.Rand }

func newGen(seed, stream uint64) *gen { return &gen{r: rand.New(rand.NewPCG(seed, stream))} }

// echoArg is the argument of one echo call.
func (g *gen) echoArg() int64 { return g.r.Int64N(1 << 40) }

// burst is the number of events in one events frame.
func (g *gen) burst() int { return 32 + g.r.IntN(97) }

// bulkCall is one async call of a tenants bulk cycle.
type bulkCall struct {
	obj  int
	off  int // payload is payloadBuf[off : off+n]
	n    int
	slow bool
}

// cycle fills dst with one bulk cycle: 12 to 20 puts spread over the
// stores, sized log-uniformly from 64 B to 16 KiB (either side of the
// 4 KiB pooled-body threshold), and in about one cycle of four one slow
// call at a random position.
func (g *gen) cycle(dst []bulkCall) []bulkCall {
	dst = dst[:0]
	n := 12 + g.r.IntN(9)
	for i := 0; i < n; i++ {
		size := int(float64(minPayload) * math.Pow(2, g.r.Float64()*math.Log2(maxPayload/minPayload)))
		dst = append(dst, bulkCall{obj: g.r.IntN(nStores), off: g.r.IntN(payloadBufLen - size + 1), n: size})
	}
	if g.r.IntN(4) == 0 {
		pos := g.r.IntN(n + 1)
		dst = append(dst, bulkCall{})
		copy(dst[pos+1:], dst[pos:])
		dst[pos] = bulkCall{obj: g.r.IntN(nStores), slow: true}
	}
	return dst
}

// payload is the seeded byte pool bulk calls slice their payloads from,
// with prefix sums so the client knows each slice's byte sum in O(1).
type payload struct {
	buf    []byte
	prefix []uint64
}

func newPayload(seed uint64) *payload {
	g := newGen(seed, 0)
	p := &payload{buf: make([]byte, payloadBufLen), prefix: make([]uint64, payloadBufLen+1)}
	for i := range p.buf {
		p.buf[i] = byte(g.r.Uint32())
		p.prefix[i+1] = p.prefix[i] + uint64(p.buf[i])
	}
	return p
}

func (p *payload) slice(c bulkCall) []byte { return p.buf[c.off : c.off+c.n] }

func (p *payload) sum(c bulkCall) uint64 { return p.prefix[c.off+c.n] - p.prefix[c.off] }
