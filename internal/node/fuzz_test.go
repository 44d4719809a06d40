package node

import (
	"fmt"
	"testing"

	"omcast/internal/wire"
)

// fuzzNode builds a sandboxed, unstarted node of the given bandwidth with
// tight caps so the invariant checks are cheap.
func fuzzNode(source bool, bandwidth float64) *Node {
	cfg := Config{
		Source:        source,
		Bandwidth:     bandwidth,
		BufferPackets: 32,
	}
	n := New(cfg, &probeTransport{addr: "self"})
	n.tm.membershipLimit, n.tm.peerCap = 8, 32
	if !source {
		attachTo(n, "p")
	}
	return n
}

// checkInvariants asserts the properties no datagram sequence may break:
// bounded state (the peer table, the children), an in-flight total that is
// the sum of the per-peer windows, a coherent repair ring and coherent
// counters. Panics are caught by the fuzz driver itself.
func checkInvariants(t *testing.T, n *Node, what string) {
	t.Helper()
	n.mu.Lock()
	peers, children := len(n.peers), len(n.children)
	windows := 0
	for _, p := range n.peers {
		windows += len(p.inflight)
	}
	inflight := n.inflight
	highest := n.highest
	// The ring: every written slot holds a sequence that maps to it and that
	// the head has reached, and no more slots are live than the window has
	// sequences.
	slots, live := int64(len(n.ring)), 0
	for i, s := range n.ring {
		if s.seq < 0 {
			continue
		}
		if s.seq%slots != int64(i) || s.seq > highest {
			n.mu.Unlock()
			t.Fatalf("%s: ring slot %d of %d holds sequence %d (head %d)", what, i, slots, s.seq, highest)
		}
		if _, ok := n.buffered(s.seq); ok {
			live++
		}
	}
	attached, parent := n.attached, n.parent
	n.mu.Unlock()
	if max := n.tm.peerCap; peers > max {
		t.Fatalf("%s: peer table %d > cap %d", what, peers, max)
	}
	if inflight != windows {
		t.Fatalf("%s: in-flight total %d, per-peer windows hold %d", what, inflight, windows)
	}
	if max := n.cfg.BufferPackets + 1; live > max || slots != int64(max) {
		t.Fatalf("%s: repair ring has %d live of %d slots, want at most %d", what, live, slots, max)
	}
	if max := n.outDegree(); children > max {
		t.Fatalf("%s: %d children > out-degree %d", what, children, max)
	}
	if highest < -1 {
		t.Fatalf("%s: highest packet %d < -1", what, highest)
	}
	if attached && parent == "" && !n.cfg.Source {
		t.Fatalf("%s: attached without a parent", what)
	}
	s := n.Stats()
	for name, v := range map[string]int64{
		"PacketsReceived": s.PacketsReceived, "PacketsRepaired": s.PacketsRepaired,
		"RepairsServed": s.RepairsServed, "WireRejects": s.WireRejects,
		"GuardRateLimited": s.GuardRateLimited, "GuardQuarantines": s.GuardQuarantines,
		"GuardQuarantineDrops": s.GuardQuarantineDrops, "GuardAuditFails": s.GuardAuditFails,
		"GuardImplausible": s.GuardImplausible,
	} {
		if v < 0 {
			t.Fatalf("%s: counter %s went negative: %d", what, name, v)
		}
	}
}

// FuzzHandlers feeds raw datagrams straight into the dispatch path of two
// sandboxed nodes — one attached member, one source — and asserts the state
// invariants hold after every delivery: no panic, no unbounded growth, no
// stream ingestion at the origin, counters coherent. This is the
// defense-in-depth check behind wire validation: whatever DecodeBinary lets
// through, the handlers must survive.
func FuzzHandlers(f *testing.F) {
	bin := func(env wire.Envelope) []byte {
		b, err := wire.EncodeBinary(env)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	f.Add(bin(wire.Envelope{Type: wire.TypePacket, From: "p", Packet: 1, Payload: []byte{1, 2, 3}}),
		bin(wire.Envelope{Type: wire.TypeRepairRequest, From: "x", FirstMissing: 0, LastMissing: 9}),
		bin(wire.Envelope{Type: wire.TypeHeartbeat, From: "p", Bandwidth: 3, Depth: 1, BTP: 1e9}))
	f.Add(bin(wire.Envelope{Type: wire.TypeMembershipRequest, From: "x", Limit: 1024,
		Members: []wire.MemberInfo{{Addr: "m", Depth: 1, Spare: 1, Bandwidth: 3}}}),
		bin(wire.Envelope{Type: wire.TypeELN, From: "p", FirstMissing: 0, LastMissing: 1 << 40}),
		bin(wire.Envelope{Type: wire.TypeSwitchAccept, From: "p", NewParent: "gp"}))
	f.Add(bin(wire.Envelope{Type: wire.TypePacket, From: "evil", Packet: 999999}),
		[]byte(`{broken`),
		bin(wire.Envelope{Type: wire.TypeSwitchCommit, From: "i", Chain: []wire.Addr{"old"}, NewParent: "np"}))
	f.Add(bin(wire.Envelope{Type: wire.TypeJoin, From: "j", Bandwidth: 3.5}),
		bin(wire.Envelope{Type: wire.TypeLeave, From: "p"}),
		bin(wire.Envelope{Type: wire.TypeRepairData, From: "r", Packet: 2, Payload: []byte("x")}))
	// Ctrl-stamped control messages, their acks, and a datagram that is
	// nothing but a mangled header.
	f.Add(bin(wire.Envelope{Type: wire.TypeJoin, From: "j", Bandwidth: 3, Ctrl: 1}),
		bin(wire.Envelope{Type: wire.TypeAck, From: "p", Ctrl: 1}),
		bin(wire.Envelope{Type: wire.TypePacket, From: "p", Packet: 7, Payload: []byte{1, 2, 3}}))
	f.Add(bin(wire.Envelope{Type: wire.TypeLeave, From: "p", Ctrl: 2}),
		bin(wire.Envelope{Type: wire.TypeMembershipRequest, From: "x", Limit: 8, Ctrl: 3}),
		[]byte{0xF5, 0x4D, 0x02})
	f.Fuzz(func(t *testing.T, d1, d2, d3 []byte) {
		member := fuzzNode(false, 3)
		source := fuzzNode(true, 3)
		for i, d := range [][]byte{d1, d2, d3} {
			member.onDatagram(d)
			checkInvariants(t, member, "member")
			source.onDatagram(d)
			checkInvariants(t, source, "source")
			// The origin never ingests stream or repair data, whatever arrives.
			if s := source.Stats(); s.PacketsReceived != 0 || s.PacketsRepaired != 0 {
				t.Fatalf("datagram %d made the source ingest stream data: %+v", i, s)
			}
		}
	})
}

// TestSenderFloodStaysBounded floods a node of out-degree 2, through the
// dispatch path, with Join and SwitchCommit envelopes from 1 000 distinct
// valid senders: each Join asks for a child slot and each commit asks the
// node to swap a child for its sender, so without the caps both the child
// set and the retransmission table would grow with the sender count.
func TestSenderFloodStaysBounded(t *testing.T) {
	n := fuzzNode(false, 2)
	for i := 0; i < 1000; i++ {
		from := wire.Addr(fmt.Sprintf("10.0.%d.%d:7000", i/250, i%250+1))
		// The commit names the newest child, taken from the ordered
		// child list so the swap sequence is the same on every run.
		n.mu.Lock()
		var child wire.Addr
		if k := len(n.childList); k > 0 {
			child = n.childList[k-1]
		}
		n.mu.Unlock()
		for _, env := range []wire.Envelope{
			{Type: wire.TypeJoin, From: from, Bandwidth: 3},
			{Type: wire.TypeSwitchCommit, From: from, Chain: []wire.Addr{child}},
		} {
			b, err := wire.EncodeBinary(env)
			if err != nil {
				t.Fatal(err)
			}
			n.onDatagram(b)
			checkInvariants(t, n, fmt.Sprintf("sender %d", i))
		}
	}
	// The guard rate-limits per sender, so distinct senders reach the
	// handlers to the end: the last commit swapped its sender in.
	n.mu.Lock()
	_, last := n.children["10.0.3.250:7000"]
	n.mu.Unlock()
	if !last {
		t.Fatal("the flood's last sender holds no child slot: the flood never reached the handlers")
	}
}
