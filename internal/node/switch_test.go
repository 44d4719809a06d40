package node

import (
	"testing"
	"time"

	"omcast/internal/wire"
)

// The switch-lock tests drive a never-started node on a virtual clock through
// its transport handler, playing every remote peer by hand; handler calls
// take no virtual time, and waiting out the lock deadline (3 heartbeats) is
// an advance of the world.
const lockHeartbeat = 100 * time.Millisecond

// newSwitchParent builds an attached node with children c0 and c1 and room
// for one more, so a refused Join can only mean the switch lock.
func newSwitchParent(t *testing.T) (*Node, *sinkTransport, *world) {
	t.Helper()
	w := newWorld(t)
	n, tr := newGuardNode(func(cfg *Config) {
		cfg.HeartbeatInterval = lockHeartbeat
		cfg.Clock = w.clock
	})
	attachTo(n, "p")
	for _, c := range []wire.Addr{"c0", "c1"} {
		if got := answer(t, n, tr, wire.Envelope{Type: wire.TypeJoin, From: c, Bandwidth: 1}); got != wire.TypeAccept {
			t.Fatalf("setup: join from %s answered %v", c, got)
		}
	}
	return n, tr, w
}

// answer delivers env and returns the type of the node's reply to its
// sender: the first non-ack envelope sent there since the call began.
func answer(t *testing.T, n *Node, tr *sinkTransport, env wire.Envelope) wire.Type {
	t.Helper()
	before := len(tr.sentTo(env.From))
	n.onDatagram(envBytes(t, env))
	for _, reply := range tr.sentTo(env.From)[before:] {
		if reply.Type != wire.TypeAck {
			return reply.Type
		}
	}
	return 0
}

func proposeFrom(from wire.Addr) wire.Envelope {
	return wire.Envelope{Type: wire.TypeSwitchPropose, From: from, Bandwidth: 1, BTP: 1e6}
}

func joinFrom(from wire.Addr) wire.Envelope {
	return wire.Envelope{Type: wire.TypeJoin, From: from, Bandwidth: 1}
}

// TestSwitchLockStuckParentRecovers: a parent that accepted an exchange whose
// initiator then died (no commit ever arrives) used to refuse every Join and
// every later switch forever. The lock has a deadline now.
func TestSwitchLockStuckParentRecovers(t *testing.T) {
	n, tr, w := newSwitchParent(t)
	if got := answer(t, n, tr, proposeFrom("c0")); got != wire.TypeSwitchAccept {
		t.Fatalf("propose answered %v, want SwitchAccept", got)
	}
	if got := answer(t, n, tr, joinFrom("j1")); got != wire.TypeReject {
		t.Fatalf("join during the exchange answered %v, want Reject", got)
	}
	if got := answer(t, n, tr, proposeFrom("c1")); got != wire.TypeSwitchReject {
		t.Fatalf("second exchange during the first answered %v, want SwitchReject", got)
	}
	w.advance(4 * lockHeartbeat) // c0 never commits; the 3-heartbeat deadline passes
	if got := answer(t, n, tr, joinFrom("j2")); got != wire.TypeAccept {
		t.Fatalf("join after the lock deadline answered %v, want Accept", got)
	}
}

// TestSwitchLockStaleReleaseIgnored: a release that belongs to exchange k
// (here the late SwitchReject of its abandoned peer) must not unlock exchange
// k+1; only k+1's own peer — or its own deadline — ends it.
func TestSwitchLockStaleReleaseIgnored(t *testing.T) {
	n, tr, w := newSwitchParent(t)
	if got := answer(t, n, tr, proposeFrom("c0")); got != wire.TypeSwitchAccept {
		t.Fatalf("exchange k: propose answered %v", got)
	}
	w.advance(4 * lockHeartbeat) // exchange k is abandoned and expires
	if got := answer(t, n, tr, proposeFrom("c1")); got != wire.TypeSwitchAccept {
		t.Fatalf("exchange k+1: propose answered %v, want SwitchAccept", got)
	}
	n.onDatagram(envBytes(t, wire.Envelope{Type: wire.TypeSwitchReject, From: "c0"}))
	if got := answer(t, n, tr, joinFrom("j1")); got != wire.TypeReject {
		t.Fatalf("stale release from exchange k unlocked exchange k+1: join answered %v", got)
	}
	n.onDatagram(envBytes(t, wire.Envelope{Type: wire.TypeSwitchReject, From: "c1"}))
	if got := answer(t, n, tr, joinFrom("j2")); got != wire.TypeAccept {
		t.Fatalf("the lock's own peer could not release it: join answered %v", got)
	}
}

// TestSwitchLockThirdPartyReject: a SwitchReject from a peer that is no part
// of the exchange leaves the lock held (and is not otherwise remarked on).
func TestSwitchLockThirdPartyReject(t *testing.T) {
	n, tr, _ := newSwitchParent(t)
	if got := answer(t, n, tr, proposeFrom("c0")); got != wire.TypeSwitchAccept {
		t.Fatalf("propose answered %v", got)
	}
	n.onDatagram(envBytes(t, wire.Envelope{Type: wire.TypeSwitchReject, From: "stranger"}))
	if got := answer(t, n, tr, joinFrom("j1")); got != wire.TypeReject {
		t.Fatalf("third-party SwitchReject released the lock: join answered %v", got)
	}
	if s := n.Stats(); s.GuardImplausible != 0 || s.WireRejects != 0 {
		t.Fatalf("third-party reject was counted: %+v", s)
	}
}

// TestSwitchLockGatesAccept covers the initiator's side: a SwitchAccept only
// commits the exchange this node itself opened and still holds the lock for.
func TestSwitchLockGatesAccept(t *testing.T) {
	n, _, w := newSwitchParent(t)
	accept := envBytes(t, wire.Envelope{Type: wire.TypeSwitchAccept, From: "p", NewParent: "gp"})

	n.onDatagram(accept) // unsolicited: no exchange open
	if s := n.Stats(); s.Parent != "p" || s.Switches != 0 {
		t.Fatalf("unsolicited SwitchAccept re-pointed the node: %+v", s)
	}

	// A parent heartbeat and a BTP grown past its zero claim make the node
	// eligible; trySwitch opens the exchange.
	n.onDatagram(envBytes(t, wire.Envelope{Type: wire.TypeHeartbeat, From: "p", Bandwidth: 1, Depth: 1}))
	w.advance(time.Millisecond)
	n.trySwitch()
	n.onDatagram(envBytes(t, wire.Envelope{Type: wire.TypeSwitchAccept, From: "stranger", NewParent: "gp"}))
	if s := n.Stats(); s.Parent != "p" || s.Switches != 0 {
		t.Fatalf("a stranger's SwitchAccept committed the exchange: %+v", s)
	}
	n.onDatagram(accept)
	if s := n.Stats(); s.Parent != "gp" || s.Switches != 1 {
		t.Fatalf("the parent's SwitchAccept did not commit: %+v", s)
	}
	n.onDatagram(accept) // a duplicate after the commit released the lock
	if s := n.Stats(); s.Switches != 1 {
		t.Fatalf("duplicate SwitchAccept committed twice: %+v", s)
	}
}

// TestSwitchDemotesNewestChild: a full initiator that takes its parent as a
// child hands its most recently attached other child to the old parent. The
// choice once followed map iteration order; fresh nodes must all agree.
func TestSwitchDemotesNewestChild(t *testing.T) {
	for i := 0; i < 20; i++ {
		n, tr := newGuardNode(func(cfg *Config) { cfg.Bandwidth = 2 })
		t.Cleanup(n.Kill)
		attachTo(n, "p")
		for _, c := range []wire.Addr{"c0", "c1"} {
			if got := answer(t, n, tr, joinFrom(c)); got != wire.TypeAccept {
				t.Fatalf("setup: join from %s answered %v", c, got)
			}
		}
		n.onDatagram(envBytes(t, wire.Envelope{Type: wire.TypeHeartbeat, From: "p", Bandwidth: 1, Depth: 1}))
		n.trySwitch()
		n.onDatagram(envBytes(t, wire.Envelope{Type: wire.TypeSwitchAccept, From: "p", NewParent: "gp"}))
		if s := n.Stats(); s.Switches != 1 {
			t.Fatalf("node %d: the exchange did not commit: %+v", i, s)
		}
		for _, c := range []wire.Addr{"c0", "c1"} {
			demoted := false
			for _, env := range tr.sentTo(c) {
				demoted = demoted || (env.Type == wire.TypeSwitchCommit && env.NewParent == "p")
			}
			if want := c == "c1"; demoted != want {
				t.Fatalf("node %d: %s demoted = %v, want %v", i, c, demoted, want)
			}
		}
	}
}
