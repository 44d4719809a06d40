package node

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"omcast/internal/wire"
)

// probeTransport is a synchronous Transport for an unstarted node: sends are
// counted (atomically — retransmit timers send too) and go nowhere.
type probeTransport struct {
	addr  wire.Addr
	sends atomic.Int64
}

func (p *probeTransport) Addr() wire.Addr              { return p.addr }
func (p *probeTransport) SetHandler(func(data []byte)) {}
func (p *probeTransport) Close() error                 { return nil }

func (p *probeTransport) Send(wire.Addr, []byte) error {
	p.sends.Add(1)
	return nil
}

// rigParent is long enough that decoding it allocates, as real addresses do.
const rigParent wire.Addr = "parent-0"

// forwardRig is an unstarted node attached under rigParent with fanout
// children, plus count in-order stream datagrams from rigParent, encoded back
// to back: the standing state of a member in mid-stream, and its input.
type forwardRig struct {
	n     *Node
	tr    *probeTransport
	arena []byte
	offs  []int
}

func newForwardRig(fanout, count int) *forwardRig {
	r := &forwardRig{tr: &probeTransport{addr: "self"}}
	r.n = New(Config{Bandwidth: float64(fanout), HeartbeatInterval: time.Hour}, r.tr)
	attachTo(r.n, rigParent)
	r.n.mu.Lock()
	for i := 0; i < fanout; i++ {
		r.n.addChildLocked(wire.Addr(fmt.Sprintf("child-%d", i)), time.Now())
	}
	r.n.mu.Unlock()
	payload := make([]byte, 32)
	r.offs = make([]int, 1, count+1)
	for i := 0; i < count; i++ {
		r.arena = wire.AppendBinary(r.arena, wire.Envelope{Type: wire.TypePacket, From: rigParent, Packet: int64(i + 1), Payload: payload})
		r.offs = append(r.offs, len(r.arena))
	}
	return r
}

// feed hands datagram i to the node as its transport would.
func (r *forwardRig) feed(i int) { r.n.onDatagram(r.arena[r.offs[i]:r.offs[i+1]]) }

// check fails unless the node accepted fed datagrams and sent each to every
// one of its fanout children.
func (r *forwardRig) check(tb testing.TB, fed, fanout int) {
	tb.Helper()
	if s := r.n.Stats(); s.PacketsReceived != int64(fed) || s.GuardImplausible != 0 || s.WireRejects != 0 {
		tb.Fatalf("fed %d datagrams: %+v", fed, s)
	}
	if got, want := r.tr.sends.Load(), int64(fed*fanout); got != want {
		tb.Fatalf("node sent %d datagrams, want %d", got, want)
	}
}

// BenchmarkForward is the live data path of one member — decode, guard,
// store, fan out — per accepted datagram. The transport is synchronous and
// only counts, so the difference between fan-outs is the per-child cost and
// what fan-out 1 leaves is the fixed cost.
func BenchmarkForward(b *testing.B) {
	for _, fanout := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("fanout=%d", fanout), func(b *testing.B) {
			r := newForwardRig(fanout, b.N)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.feed(i)
			}
			b.StopTimer()
			r.check(b, b.N, fanout)
		})
	}
}

// TestForwardAllocs is the data path's allocation ceiling: an accepted and
// forwarded datagram costs the decoded sender address and the one encoded
// copy every child is sent, whatever the fan-out.
func TestForwardAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const runs = 1000
	for _, fanout := range []int{1, 4, 16} {
		r := newForwardRig(fanout, runs+1) // AllocsPerRun warms up with one extra call
		i := 0
		allocs := testing.AllocsPerRun(runs, func() {
			r.feed(i)
			i++
		})
		r.check(t, runs+1, fanout)
		if allocs > 2 {
			t.Errorf("fan-out %d: %.2f allocations per forwarded datagram, want at most 2", fanout, allocs)
		}
	}
}
