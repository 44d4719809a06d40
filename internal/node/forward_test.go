package node

import (
	"fmt"
	"net"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"omcast/internal/metrics/live"
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

// rigParent is long enough that converting it to a string allocates, as real
// addresses do, so only the sender table keeps its decode allocation-free.
const rigParent wire.Addr = "parent-0"

// forwardRig is an unstarted node attached under rigParent with fanout
// children, plus count in-order stream datagrams from rigParent, encoded back
// to back: the standing state of a member in mid-stream, and its input. reg,
// when not nil, is the node's metrics registry.
type forwardRig struct {
	n     *Node
	tr    *probeTransport
	arena []byte
	offs  []int
}

func newForwardRig(fanout, count int, reg *live.Registry) *forwardRig {
	r := &forwardRig{tr: &probeTransport{addr: "self"}}
	r.n = New(Config{Bandwidth: float64(fanout), HeartbeatInterval: time.Hour, Metrics: reg}, r.tr)
	attachTo(r.n, rigParent)
	r.n.mu.Lock()
	for i := 0; i < fanout; i++ {
		r.n.addChild(wire.Addr(fmt.Sprintf("child-%d", i)), time.Now())
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
// what fan-out 1 leaves is the fixed cost. The metered case adds the
// registry a node serving /metrics counts into.
func BenchmarkForward(b *testing.B) {
	for _, fanout := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("fanout=%d", fanout), func(b *testing.B) { benchForward(b, fanout, nil) })
	}
	b.Run("metered,fanout=4", func(b *testing.B) { benchForward(b, 4, live.NewRegistry()) })
}

func benchForward(b *testing.B, fanout int, reg *live.Registry) {
	r := newForwardRig(fanout, b.N, reg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.feed(i)
	}
	b.StopTimer()
	r.check(b, b.N, fanout)
}

// TestForwardAllocs is the data path's allocation ceiling: an accepted and
// forwarded datagram allocates nothing, whatever the fan-out. The sender
// table hands back the parent's address already held, and the one encoded
// copy every child is sent lives in a pooled buffer.
func TestForwardAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const runs = 1000
	for _, fanout := range []int{1, 4, 16} {
		r := newForwardRig(fanout, runs+1, nil) // AllocsPerRun warms up with one extra call
		i := 0
		allocs := testing.AllocsPerRun(runs, func() {
			r.feed(i)
			i++
		})
		r.check(t, runs+1, fanout)
		if allocs != 0 {
			t.Errorf("fan-out %d: %.2f allocations per forwarded datagram, want 0", fanout, allocs)
		}
	}
}

// TestFanOutCountsEveryChild: a datagram forwarded to k children raises the
// transport counters by k datagrams and k times the forwarded length, which
// a fan-out counts with one add each; a single send still counts one.
func TestFanOutCountsEveryChild(t *testing.T) {
	for _, fanout := range []int{1, 4, 16} {
		r := newForwardRig(fanout, 1, live.NewRegistry())
		size := int64(len(wire.AppendBinary(nil, wire.Envelope{Type: wire.TypePacket, From: r.tr.addr, Packet: 1, Payload: make([]byte, 32)})))
		datagrams, bytes := r.n.met.txDatagrams.Value(), r.n.met.txBytes.Value()
		r.feed(0)
		r.check(t, 1, fanout)
		if got := r.n.met.txDatagrams.Value() - datagrams; got != int64(fanout) {
			t.Errorf("fan-out %d: tx datagrams rose by %d, want %d", fanout, got, fanout)
		}
		if got, want := r.n.met.txBytes.Value()-bytes, int64(fanout)*size; got != want {
			t.Errorf("fan-out %d: tx bytes rose by %d, want %d", fanout, got, want)
		}
	}

	r := newForwardRig(1, 0, live.NewRegistry())
	size := int64(len(wire.AppendBinary(nil, wire.Envelope{Type: wire.TypeHeartbeat, From: r.tr.addr, Depth: 3})))
	datagrams, bytes := r.n.met.txDatagrams.Value(), r.n.met.txBytes.Value()
	r.n.send("peer", wire.Envelope{Type: wire.TypeHeartbeat, Depth: 3})
	if got := r.n.met.txDatagrams.Value() - datagrams; got != 1 {
		t.Errorf("one send: tx datagrams rose by %d, want 1", got)
	}
	if got := r.n.met.txBytes.Value() - bytes; got != size {
		t.Errorf("one send: tx bytes rose by %d, want %d", got, size)
	}
}

// TestConcurrentFanOutsKeepTheirBytes: two goroutines deliver stream
// packets at once, as a UDP read loop and a second delivery path could, and
// every child still receives each packet's own bytes: the handler holds the
// node's lock for the whole fan-out, so the one encode buffer is never
// shared (and, under -race, its reuse is race-clean).
func TestConcurrentFanOutsKeepTheirBytes(t *testing.T) {
	const perGoroutine = 500
	n, tr := newGuardNode(nil)
	attachTo(n, "p")
	children := []wire.Addr{"c0", "c1"}
	for _, c := range children {
		n.addChild(c, n.now())
	}
	payload := func(seq int64) []byte { return []byte(fmt.Sprintf("payload-%d", seq)) }
	var wg sync.WaitGroup
	for g := int64(0); g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(0); i < perGoroutine; i++ {
				seq := 1 + 2*i + g
				n.onDatagram(wire.AppendBinary(nil, wire.Envelope{Type: wire.TypePacket, From: "p", Packet: seq, Payload: payload(seq)}))
			}
		}()
	}
	wg.Wait()
	for _, c := range children {
		// Packets arrive out of order, so the sends include ELNs for the
		// gaps they seem to open.
		got := slices.DeleteFunc(tr.sentTo(c), func(env wire.Envelope) bool { return env.Type != wire.TypePacket })
		if len(got) != 2*perGoroutine {
			t.Fatalf("%s got %d packets, want %d", c, len(got), 2*perGoroutine)
		}
		for _, env := range got {
			if string(env.Payload) != string(payload(env.Packet)) {
				t.Fatalf("%s: packet %d carried %q", c, env.Packet, env.Payload)
			}
		}
	}
}

// udpPeer is a bare loopback socket standing in for a remote node; it reads
// and writes without allocating, so an allocation count over a run is the
// transport's and the node's.
func udpPeer(t *testing.T) (*net.UDPConn, netip.AddrPort) {
	t.Helper()
	c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	// One deadline for the whole test: a lost datagram fails the read
	// instead of hanging it.
	if err := c.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	return c, c.LocalAddr().(*net.UDPAddr).AddrPort()
}

func newUDP(t *testing.T) *UDPTransport {
	t.Helper()
	tr, err := NewUDPTransport("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

// TestUDPSendAllocs: sending to an IP-literal peer, the form of every address
// a UDP node learns from the wire, parses it in place and allocates nothing;
// a host name still goes through the resolver and arrives.
func TestUDPSendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	tr := newUDP(t)
	_, ap := udpPeer(t)
	to := wire.Addr(ap.String())
	var sendErr error
	allocs := testing.AllocsPerRun(1000, func() {
		if err := tr.Send(to, []byte("literal")); err != nil {
			sendErr = err
		}
	})
	if sendErr != nil {
		t.Fatal(sendErr)
	}
	t.Logf("UDPTransport.Send to %s: %.2f allocations", to, allocs)
	if allocs != 0 {
		t.Errorf("Send to an IP literal: %.2f allocations, want 0", allocs)
	}

	// A second peer: the first one's receive buffer overflowed above.
	named, ap := udpPeer(t)
	if err := tr.Send(wire.Addr(fmt.Sprintf("localhost:%d", ap.Port())), []byte("by name")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	if n, err := named.Read(buf); err != nil || string(buf[:n]) != "by name" {
		t.Fatalf("datagram sent to localhost: read %q, %v", buf[:n], err)
	}
}

// TestUDPReceiveAllocs: the read loop's one allocation per datagram is the
// copy the handler owns (a decoded Payload aliases it and the repair ring
// keeps it); reading the socket itself allocates nothing.
func TestUDPReceiveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	tr := newUDP(t)
	got := make(chan struct{}, 1)
	tr.SetHandler(func([]byte) { got <- struct{}{} })
	peer, _ := udpPeer(t)
	to, err := netip.ParseAddrPort(string(tr.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("datagram")
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := peer.WriteToUDPAddrPort(msg, to); err != nil {
			panic(err)
		}
		<-got
	})
	t.Logf("UDPTransport read loop: %.2f allocations per datagram", allocs)
	if allocs > 1 {
		t.Errorf("read loop: %.2f allocations per datagram, want at most 1", allocs)
	}
}

// TestUDPForwardAllocs is the whole live data path over loopback sockets: a
// stream packet from the parent is read, decoded, admitted, stored and sent
// to four children at one allocation, the read loop's owning copy.
func TestUDPForwardAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const fanout, runs = 4, 1000
	tr := newUDP(t)
	n := New(Config{Bandwidth: fanout, HeartbeatInterval: time.Hour}, tr)
	parent, _ := udpPeer(t)
	from := wire.Addr(parent.LocalAddr().String())
	attachTo(n, from)
	children := make([]*net.UDPConn, fanout)
	n.mu.Lock()
	for i := range children {
		var ap netip.AddrPort
		children[i], ap = udpPeer(t)
		n.addChild(wire.Addr(ap.String()), time.Now())
	}
	n.mu.Unlock()
	to, err := netip.ParseAddrPort(string(tr.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	var data []byte
	buf := make([]byte, 256)
	seq := int64(0)
	allocs := testing.AllocsPerRun(runs, func() {
		seq++
		data = wire.AppendBinary(data[:0], wire.Envelope{Type: wire.TypePacket, From: from, Packet: seq})
		if _, err := parent.WriteToUDPAddrPort(data, to); err != nil {
			panic(err)
		}
		for _, c := range children {
			if _, err := c.Read(buf); err != nil {
				panic(fmt.Sprintf("packet %d: %v", seq, err))
			}
		}
	})
	if s := n.Stats(); s.PacketsReceived != seq {
		t.Fatalf("node accepted %d of %d packets: %+v", s.PacketsReceived, seq, s)
	}
	t.Logf("forwarded datagram at fan-out %d over loopback: %.2f allocations", fanout, allocs)
	if allocs > 1 {
		t.Errorf("fan-out %d over loopback: %.2f allocations per forwarded datagram, want at most 1", fanout, allocs)
	}
}
