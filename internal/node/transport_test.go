package node

import (
	"errors"
	"sync"
	"testing"
	"time"

	"omcast/internal/eventsim"
	"omcast/internal/metrics/live"
	"omcast/internal/wire"
)

func TestMemNetworkDelivery(t *testing.T) {
	w := newWorld(t)
	a, b := w.endpoint("a"), w.endpoint("b")
	var got []string
	b.SetHandler(func(data []byte) { got = append(got, string(data)) })
	if err := a.Send("b", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatal("delivered inside Send, not by the clock")
	}
	w.advance(0)
	if len(got) != 1 || got[0] != "hello" {
		t.Fatalf("delivered %q, want [hello]", got)
	}
	if a.Addr() != "a" || b.Addr() != "b" {
		t.Fatal("addresses wrong")
	}
}

func TestMemNetworkUnknownAddr(t *testing.T) {
	a := newWorld(t).endpoint("a")
	if err := a.Send("ghost", []byte("x")); !errors.Is(err, ErrUnknownAddr) {
		t.Fatalf("send to ghost = %v, want ErrUnknownAddr", err)
	}
}

func TestMemNetworkDuplicateAddr(t *testing.T) {
	network := NewMemNetwork(nil, nil)
	defer network.Close()
	if _, err := network.Endpoint("dup"); err != nil {
		t.Fatal(err)
	}
	if _, err := network.Endpoint("dup"); err == nil {
		t.Fatal("duplicate registration accepted")
	}
}

func TestMemNetworkCloseSemantics(t *testing.T) {
	w := newWorld(t)
	a, b := w.endpoint("a"), w.endpoint("b")
	delivered := 0
	b.SetHandler(func([]byte) { delivered++ })
	if err := a.Send("b", []byte("in flight")); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	w.advance(0)
	if delivered != 0 {
		t.Fatal("a datagram in flight was delivered to an endpoint closed meanwhile")
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("a", []byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close = %v, want ErrClosed", err)
	}
	if err := a.Close(); err != nil {
		t.Fatal("double close errored")
	}
	w.net.Close()
	if _, err := w.net.Endpoint("late"); !errors.Is(err, ErrClosed) {
		t.Fatalf("endpoint after network close = %v, want ErrClosed", err)
	}
	w.net.Close() // idempotent
}

func TestMemNetworkLatency(t *testing.T) {
	const delay = 50 * time.Millisecond
	sim := eventsim.New()
	network := NewMemNetwork(NewVirtualClock(sim), func(from, to wire.Addr) time.Duration { return delay })
	a, err := network.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := network.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	deliveredAt := time.Duration(-1)
	b.SetHandler(func([]byte) { deliveredAt = sim.Now() })
	if err := a.Send("b", []byte("x")); err != nil {
		t.Fatal(err)
	}
	_ = sim.Run(eventsim.MaxHorizon)
	if deliveredAt != delay {
		t.Fatalf("delivered at %v, want %v", deliveredAt, delay)
	}
}

func TestUDPTransportRoundTrip(t *testing.T) {
	a, err := NewUDPTransport("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := a.Close(); err != nil {
			t.Errorf("close a: %v", err)
		}
	}()
	b, err := NewUDPTransport("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := b.Close(); err != nil {
			t.Errorf("close b: %v", err)
		}
	}()
	var mu sync.Mutex
	var got []byte
	b.SetHandler(func(data []byte) {
		mu.Lock()
		got = append([]byte(nil), data...)
		mu.Unlock()
	})
	if err := a.Send(b.Addr(), []byte("over udp")); err != nil {
		t.Fatal(err)
	}
	wallEventually(t, 2*time.Second, "udp datagram delivered", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return string(got) == "over udp"
	})
}

func TestUDPTransportErrors(t *testing.T) {
	a, err := NewUDPTransport("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send("not-an-addr", []byte("x")); err == nil {
		t.Fatal("send to garbage address succeeded")
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("127.0.0.1:1", []byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close = %v, want ErrClosed", err)
	}
	if _, err := NewUDPTransport("999.999.999.999:70000"); err == nil {
		t.Fatal("bad listen address accepted")
	}
}

// TestUDPTransportMTUCeiling proves the gap between the wire layer's 64 KiB
// datagram cap and UDP's 65507-byte payload ceiling is real and handled: a
// membership reply that validates and would decode fine is still refused by
// Send with ErrOversize and counted on the live registry.
func TestUDPTransportMTUCeiling(t *testing.T) {
	tr, err := NewUDPTransport("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	reg := live.NewRegistry()
	tr.SetMetrics(reg)

	// Grow a maximally padded member list until the encoding crosses the UDP
	// ceiling, then trim the last ancestor back under the wire cap — landing
	// in the narrow window (65507, 65536] where wire accepts what UDP cannot
	// carry.
	longAddr := func(i, n int) wire.Addr {
		b := make([]byte, n)
		for j := range b {
			b[j] = 'a' + byte((i+j)%26)
		}
		return wire.Addr(b)
	}
	env := wire.Envelope{Type: wire.TypeMembershipReply, From: "s", Limit: 8}
	for i := 0; ; i++ {
		m := wire.MemberInfo{Addr: longAddr(i, wire.MaxAddrLen), Spare: 1, Bandwidth: 3}
		for a := 0; a < wire.MaxAncestors; a++ {
			m.Ancestors = append(m.Ancestors, longAddr(i+a+1, wire.MaxAddrLen))
		}
		env.Members = append(env.Members, m)
		if data, err := wire.EncodeBinary(env); err != nil {
			t.Fatal(err)
		} else if len(data) > MaxUDPDatagram {
			break
		}
	}
	data, err := wire.EncodeBinary(env)
	if err != nil {
		t.Fatal(err)
	}
	last := &env.Members[len(env.Members)-1]
	for len(data) > wire.MaxDatagram {
		trim := len(data) - wire.MaxDatagram
		if k := len(last.Ancestors) - 1; k >= 0 {
			if anc := last.Ancestors[k]; trim >= len(anc) {
				last.Ancestors = last.Ancestors[:k]
			} else {
				last.Ancestors[k] = anc[:len(anc)-trim]
			}
		} else {
			last.Addr = last.Addr[:len(last.Addr)-trim]
		}
		if data, err = wire.EncodeBinary(env); err != nil {
			t.Fatal(err)
		}
	}
	if err := wire.Validate(&env); err != nil {
		t.Fatalf("oversize-for-UDP envelope should still validate: %v", err)
	}
	if len(data) <= MaxUDPDatagram || len(data) > wire.MaxDatagram {
		t.Fatalf("encoded %d bytes, want in (%d, %d]", len(data), MaxUDPDatagram, wire.MaxDatagram)
	}
	if _, err := wire.DecodeBinary(data); err != nil {
		t.Fatalf("the same datagram should decode if it ever arrived: %v", err)
	}

	if err := tr.Send(tr.Addr(), data); !errors.Is(err, ErrOversize) {
		t.Fatalf("Send = %v, want ErrOversize", err)
	}
	found := false
	for _, m := range reg.Snapshot().Metrics {
		if m.Name == "omcast_node_udp_oversize_dropped_total" {
			found = true
			if m.Value != 1 {
				t.Fatalf("metric = %v, want 1", m.Value)
			}
		}
	}
	if !found {
		t.Fatal("omcast_node_udp_oversize_dropped_total not registered")
	}
	// A datagram at exactly the ceiling goes through to the socket.
	if err := tr.Send(tr.Addr(), make([]byte, MaxUDPDatagram)); errors.Is(err, ErrOversize) {
		t.Fatalf("Send at exactly MaxUDPDatagram refused: %v", err)
	}
}

// TestUDPCrashRestartRebind is the endpoint crash/restart drill: a member
// dies abruptly, its port frees up (stale sends fail ErrClosed), and a reborn
// node on the same port rejoins the overlay.
func TestUDPCrashRestartRebind(t *testing.T) {
	srcTr, err := NewUDPTransport("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srcCfg := wallFast()
	srcCfg.Source = true
	srcCfg.Bandwidth = 4
	src := New(srcCfg, srcTr)
	src.Start()
	defer src.Kill()

	cfg := wallFast()
	cfg.Bandwidth = 3
	cfg.Bootstrap = []wire.Addr{src.Addr()}
	tr1, err := NewUDPTransport("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	port := tr1.Addr()
	n1 := New(cfg, tr1)
	n1.Start()
	wallEventually(t, 10*time.Second, "first incarnation attached", func() bool {
		return n1.Stats().Attached
	})

	n1.Kill() // crash, not leave: the socket closes with no goodbye
	if err := tr1.Send(src.Addr(), []byte("stale")); !errors.Is(err, ErrClosed) {
		t.Fatalf("stale send after crash = %v, want ErrClosed", err)
	}

	// Rebind the very same port and rejoin. The bind itself must succeed
	// immediately — UDP has no TIME_WAIT — and the reborn node must be
	// re-admitted even though the source may still remember its previous life.
	tr2, err := NewUDPTransport(string(port))
	if err != nil {
		t.Fatalf("rebinding %s: %v", port, err)
	}
	n2 := New(cfg, tr2)
	n2.Start()
	defer n2.Kill()
	wallEventually(t, 10*time.Second, "reborn node rejoined on the same port", func() bool {
		return n2.Stats().Attached
	})
}

// TestNodesOverUDP boots a small overlay on real loopback sockets.
func TestNodesOverUDP(t *testing.T) {
	srcTr, err := NewUDPTransport("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srcCfg := wallFast()
	srcCfg.Source = true
	srcCfg.Bandwidth = 4
	src := New(srcCfg, srcTr)
	src.Start()
	defer src.Kill()

	var nodes []*Node
	for i := 0; i < 5; i++ {
		tr, err := NewUDPTransport("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		cfg := wallFast()
		cfg.Bandwidth = 3
		cfg.Bootstrap = []wire.Addr{src.Addr()}
		nd := New(cfg, tr)
		nodes = append(nodes, nd)
		nd.Start()
	}
	defer func() {
		for _, nd := range nodes {
			nd.Kill()
		}
	}()
	wallEventually(t, 10*time.Second, "udp overlay attached and streaming", func() bool {
		for _, nd := range nodes {
			s := nd.Stats()
			if !s.Attached || s.HighestPacket < 20 {
				return false
			}
		}
		return true
	})
}
