package node

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"omcast/internal/metrics/live"
	"omcast/internal/wire"
)

// sinkTransport is a goroutine-free Transport for guard unit tests: sends are
// recorded, never delivered. It decodes a copy of each datagram, because a
// decoded Payload aliases its input and Send's caller may reuse data once
// Send returns (a fan-out's encode buffer carries the next packet).
type sinkTransport struct {
	addr wire.Addr

	mu   sync.Mutex
	sent []wire.Envelope
	dest []wire.Addr // dest[i] is where sent[i] went
}

func (s *sinkTransport) Addr() wire.Addr { return s.addr }

func (s *sinkTransport) Send(to wire.Addr, data []byte) error {
	env, err := wire.DecodeBinary(append([]byte(nil), data...))
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.sent = append(s.sent, env)
	s.dest = append(s.dest, to)
	s.mu.Unlock()
	return nil
}

func (s *sinkTransport) SetHandler(func(data []byte)) {}
func (s *sinkTransport) Close() error                 { return nil }

func (s *sinkTransport) sentTo(to wire.Addr) []wire.Envelope {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []wire.Envelope
	for i, env := range s.sent {
		if s.dest[i] == to {
			out = append(out, env)
		}
	}
	return out
}

// newGuardNode builds an unstarted node over a sink transport: handlers can
// be driven directly without any background loops running.
func newGuardNode(mutate func(cfg *Config)) (*Node, *sinkTransport) {
	cfg := Config{Bandwidth: 3}
	if mutate != nil {
		mutate(&cfg)
	}
	tr := &sinkTransport{addr: "self"}
	return New(cfg, tr), tr
}

// attachTo puts the node into an attached state under the given parent,
// as the Accept handler would.
func attachTo(n *Node, parent wire.Addr) {
	n.mu.Lock()
	n.attached = true
	n.parent = parent
	n.parentSeen = n.now()
	n.attachedAt = n.parentSeen
	n.depth = 2
	n.joinedAt = n.now()
	n.mu.Unlock()
}

// admit and offerPacket each run one step of onDatagram the way it does,
// for tests that drive that step alone.
func (n *Node) admit(env wire.Envelope) bool {
	return n.guardAdmit(&env, n.now()) != nil
}

func (n *Node) offerPacket(env wire.Envelope, repaired bool) {
	n.acceptPacket(&env, repaired, n.now())
}

// viewAdd puts addr in the view as gossip would, last seen at seen.
func (n *Node) viewAdd(addr wire.Addr, seen time.Time) {
	p := n.peer(addr, seen)
	p.info, p.inView, p.seen = wire.MemberInfo{Addr: addr}, true, seen
}

func envBytes(t *testing.T, env wire.Envelope) []byte {
	t.Helper()
	b, err := wire.EncodeBinary(env)
	if err != nil {
		t.Fatalf("EncodeBinary: %v", err)
	}
	return b
}

func TestGuardRateLimitsRequests(t *testing.T) {
	n, _ := newGuardNode(nil)
	// The bucket holds two seconds of rate: 3 tokens, and the next one is
	// two thirds of a second away — no refill within the test.
	n.tm.requestRate, n.tm.requestBurst = 1.5, 3
	n.tm.quarantineScore = 1000 // keep quarantine out of this test
	req := wire.Envelope{Type: wire.TypeMembershipRequest, From: "flooder"}
	for i := 0; i < 3; i++ {
		if !n.admit(req) {
			t.Fatalf("request %d within burst denied", i)
		}
	}
	if n.admit(req) {
		t.Fatal("request over burst admitted")
	}
	if got := n.Stats().GuardRateLimited; got != 1 {
		t.Fatalf("GuardRateLimited = %d, want 1", got)
	}
	// Non-request types are never metered: the stream must not be throttled.
	if !n.admit(wire.Envelope{Type: wire.TypePacket, From: "flooder", Packet: 1}) {
		t.Fatal("stream packet denied by the request limiter")
	}
}

func TestGuardScoreDecays(t *testing.T) {
	p := &peerRecord{score: 10, scoreAt: time.Now().Add(-4 * time.Second)}
	p.decayScore(2, time.Now()) // 2 points/s over 4s
	if p.score > 2.1 || p.score < 1.9 {
		t.Fatalf("score after decay = %v, want ~2", p.score)
	}
	p.scoreAt = time.Now().Add(-time.Hour)
	p.decayScore(2, time.Now())
	if p.score != 0 {
		t.Fatalf("score decayed below zero: %v", p.score)
	}
}

func TestGuardQuarantinesWireRejecters(t *testing.T) {
	n, _ := newGuardNode(nil)
	n.tm.quarantineScore = 7 // two wire rejects (4 points each) cross it
	// Give the offender a membership record: quarantine must purge it.
	n.mu.Lock()
	n.viewAdd("evil", time.Now())
	n.mu.Unlock()

	n.noteWireReject("evil")
	if n.Stats().QuarantinedPeers != 0 {
		t.Fatal("quarantined after a single reject")
	}
	n.noteWireReject("evil")
	s := n.Stats()
	if s.GuardQuarantines != 1 || s.QuarantinedPeers != 1 {
		t.Fatalf("quarantines=%d quarantined=%d, want 1/1", s.GuardQuarantines, s.QuarantinedPeers)
	}
	if s.KnownMembers != 0 {
		t.Fatal("quarantine did not purge the membership record")
	}
	// Everything from a quarantined peer is dropped before dispatch.
	if n.admit(wire.Envelope{Type: wire.TypeHeartbeat, From: "evil"}) {
		t.Fatal("quarantined peer's datagram admitted")
	}
	if got := n.Stats().GuardQuarantineDrops; got != 1 {
		t.Fatalf("GuardQuarantineDrops = %d, want 1", got)
	}
	// Gossip must not re-introduce the peer while the sentence runs.
	n.mergeMembers("other", []wire.MemberInfo{{Addr: "evil", Spare: 5}})
	if n.Stats().KnownMembers != 0 {
		t.Fatal("gossip re-introduced a quarantined peer")
	}
}

func TestGuardQuarantiningParentDetaches(t *testing.T) {
	n, _ := newGuardNode(nil)
	n.tm.quarantineScore = 7
	attachTo(n, "p")
	n.noteWireReject("p")
	n.noteWireReject("p")
	s := n.Stats()
	if s.Attached {
		t.Fatal("still attached to a quarantined parent")
	}
	if s.Rejoins != 1 {
		t.Fatalf("Rejoins = %d, want 1 (parent-failure path must run)", s.Rejoins)
	}
}

func TestGuardBTPAudit(t *testing.T) {
	n, _ := newGuardNode(nil)
	n.tm.quarantineScore = 1000 // isolate the audit decision
	hb := func(btp float64) wire.Envelope {
		return wire.Envelope{Type: wire.TypeHeartbeat, From: "peer", Bandwidth: 3, BTP: btp}
	}
	// First claim is the baseline, whatever it is.
	if !n.admit(hb(10)) {
		t.Fatal("baseline claim denied")
	}
	// Honest growth (well under bw*dt*slack + grace) passes.
	if !n.admit(hb(10.5)) {
		t.Fatal("honest growth denied")
	}
	// A jump no bandwidth could produce fails.
	if n.admit(hb(1e6)) {
		t.Fatal("forged BTP jump admitted")
	}
	if got := n.Stats().GuardAuditFails; got != 1 {
		t.Fatalf("GuardAuditFails = %d, want 1", got)
	}
	// The failed claim must not have ratcheted the baseline: the same forged
	// value keeps failing.
	if n.admit(hb(1e6)) {
		t.Fatal("forged BTP admitted on retry — baseline advanced on a failed claim")
	}
	// Shrinking claims always pass (peer restart resets its clock).
	if !n.admit(hb(0)) {
		t.Fatal("shrinking claim denied")
	}
	// SwitchPropose claims are audited against the same trajectory.
	if n.admit(wire.Envelope{Type: wire.TypeSwitchPropose, From: "peer", Bandwidth: 3, BTP: 1e6}) {
		t.Fatal("forged SwitchPropose BTP admitted")
	}
}

// TestGuardTableEviction floods a full peer table with forged sender
// addresses: strangers evict each other, and never the quarantined record,
// the parent's, a child's or one with a control message in flight.
func TestGuardTableEviction(t *testing.T) {
	n, _ := newGuardNode(nil)
	n.tm.membershipLimit, n.tm.peerCap = 2, 8 // peer table cap = 8
	n.tm.quarantineScore = 7
	attachTo(n, "p")
	n.mu.Lock()
	n.addChild("c", time.Now())
	n.mu.Unlock()
	// The parent and the child are heard from first, so theirs are the
	// stalest records; then one peer is quarantined, one is sent a control
	// message that stays unacked, and strangers flood the table.
	n.admit(wire.Envelope{Type: wire.TypeHeartbeat, From: "p", Bandwidth: 1})
	n.admit(wire.Envelope{Type: wire.TypeHeartbeat, From: "c", Bandwidth: 1})
	n.noteWireReject("evil")
	n.noteWireReject("evil")
	n.send("pending", wire.Envelope{Type: wire.TypeLeave})
	for i := 0; i < 20; i++ {
		n.admit(wire.Envelope{Type: wire.TypeHeartbeat, From: wire.Addr(fmt.Sprintf("g%02d", i))})
	}
	n.mu.Lock()
	size := len(n.peers)
	kept := map[wire.Addr]bool{}
	for _, a := range []wire.Addr{"p", "c", "evil", "pending", "g19"} {
		_, kept[a] = n.peers[a]
	}
	inflight := kept["pending"] && len(n.peers["pending"].inflight) == 1
	n.mu.Unlock()
	if size > 8 {
		t.Fatalf("peer table grew to %d, cap is 8", size)
	}
	for a, ok := range kept {
		if !ok {
			t.Errorf("the flood evicted %q's record while strangers were available", a)
		}
	}
	if !inflight {
		t.Error("the unacked control message left its window")
	}
	if s := n.Stats(); s.QuarantinedPeers != 1 || s.RetxInflight != 1 {
		t.Fatalf("quarantined=%d in-flight=%d after the flood, want 1/1", s.QuarantinedPeers, s.RetxInflight)
	}
}

func TestRecoveryGroupExcludesQuarantined(t *testing.T) {
	n, _ := newGuardNode(nil)
	n.tm.quarantineScore = 7
	attachTo(n, "p")
	n.noteWireReject("q")
	n.noteWireReject("q")
	// Put the convicted record back in the view by hand: mergeMembers
	// refuses to, and the recovery group must not rely on that alone.
	now := time.Now()
	n.mu.Lock()
	for _, a := range []wire.Addr{"a", "b", "q"} {
		n.viewAdd(a, now)
	}
	n.mu.Unlock()
	group := n.recoveryGroup()
	for _, a := range group {
		if a == "q" {
			t.Fatal("quarantined peer selected into the recovery group")
		}
	}
	if len(group) != 2 {
		t.Fatalf("recovery group = %v, want the 2 honest members", group)
	}
}

func TestRepairRequestRangeRejectedAtHandler(t *testing.T) {
	n, tr := newGuardNode(nil)
	n.mu.Lock()
	n.highest = 100
	n.store(50, nil)
	n.mu.Unlock()
	cases := []wire.Envelope{
		{Type: wire.TypeRepairRequest, From: "r", FirstMissing: 9, LastMissing: 3},
		{Type: wire.TypeRepairRequest, From: "r", FirstMissing: -5, LastMissing: 3},
		{Type: wire.TypeRepairRequest, From: "r", FirstMissing: 0, LastMissing: wire.MaxRepairSpan + 10},
	}
	for _, env := range cases {
		n.handleRepairRequest(env)
	}
	s := n.Stats()
	if s.GuardImplausible != int64(len(cases)) {
		t.Fatalf("GuardImplausible = %d, want %d", s.GuardImplausible, len(cases))
	}
	if s.RepairsServed != 0 || len(tr.sentTo("r")) != 0 {
		t.Fatal("rejected repair request was partially served")
	}
}

func TestRepairRequestScanClamped(t *testing.T) {
	n, _ := newGuardNode(func(cfg *Config) {
		cfg.BufferPackets = 16
		cfg.RecoveryGroup = 1 // this node covers the whole stripe space
	})
	n.mu.Lock()
	for seq := int64(990); seq <= 1000; seq++ {
		n.store(seq, nil)
	}
	n.mu.Unlock()
	// A wire-legal but buffer-impossible range: the scan must clamp to
	// [highest-BufferPackets, highest] rather than walk all 65k sequences.
	n.handleRepairRequest(wire.Envelope{
		Type: wire.TypeRepairRequest, From: "r",
		FirstMissing: 0, LastMissing: wire.MaxRepairSpan - 1,
	})
	if got := n.Stats().RepairsServed; got != 11 {
		t.Fatalf("RepairsServed = %d, want the 11 buffered packets", got)
	}
}

func TestMembershipReplyLimitClamped(t *testing.T) {
	n, tr := newGuardNode(nil)
	n.tm.membershipLimit, n.tm.peerCap = 2, 8
	attachTo(n, "p")
	now := time.Now()
	n.mu.Lock()
	for i := 0; i < 6; i++ {
		n.viewAdd(wire.Addr(fmt.Sprintf("m%d", i)), now)
	}
	n.mu.Unlock()
	n.handleMembershipRequest(wire.Envelope{
		Type: wire.TypeMembershipRequest, From: "greedy", Limit: wire.MaxLimit,
	})
	var reply *wire.Envelope
	for _, env := range tr.sentTo("greedy") {
		if env.Type == wire.TypeMembershipReply {
			reply = &env
			break
		}
	}
	if reply == nil {
		t.Fatal("no membership reply sent")
	}
	if len(reply.Members) > 2 {
		t.Fatalf("reply carries %d members, want <= the partial-view cap 2", len(reply.Members))
	}
}

func TestPacketImplausibilityClamps(t *testing.T) {
	t.Run("at-source", func(t *testing.T) {
		n, _ := newGuardNode(func(cfg *Config) { cfg.Source = true })
		n.offerPacket(wire.Envelope{Type: wire.TypePacket, From: "evil", Packet: 5}, false)
		s := n.Stats()
		if s.PacketsReceived != 0 || s.GuardImplausible != 1 {
			t.Fatalf("source ingested a stream packet: %+v", s)
		}
	})
	t.Run("not-parent", func(t *testing.T) {
		n, _ := newGuardNode(nil)
		attachTo(n, "p")
		n.offerPacket(wire.Envelope{Type: wire.TypePacket, From: "p", Packet: 0}, false)
		n.offerPacket(wire.Envelope{Type: wire.TypePacket, From: "evil", Packet: 1}, false)
		s := n.Stats()
		if s.PacketsReceived != 1 || s.GuardImplausible != 1 {
			t.Fatalf("non-parent stream packet accepted: %+v", s)
		}
		// Repair data is exempt: it legitimately arrives from group members.
		n.offerPacket(wire.Envelope{Type: wire.TypeRepairData, From: "helper", Packet: 1}, true)
		if got := n.Stats().PacketsRepaired; got != 1 {
			t.Fatalf("repair data from a non-parent rejected: repaired=%d", got)
		}
	})
	t.Run("jump-and-resync", func(t *testing.T) {
		n, _ := newGuardNode(nil)
		attachTo(n, "p")
		n.offerPacket(wire.Envelope{Type: wire.TypePacket, From: "p", Packet: 0}, false)
		jump := int64(1 + 4*n.cfg.BufferPackets + 10)
		for i := 0; i < jumpResyncStreak-1; i++ {
			n.offerPacket(wire.Envelope{Type: wire.TypePacket, From: "p", Packet: jump + int64(i)}, false)
		}
		s := n.Stats()
		if s.PacketsReceived != 1 || s.GuardImplausible != int64(jumpResyncStreak-1) {
			t.Fatalf("jump packets accepted before the resync streak: %+v", s)
		}
		// The streak-th consecutive parent jump is a genuine discontinuity.
		n.offerPacket(wire.Envelope{Type: wire.TypePacket, From: "p", Packet: jump + jumpResyncStreak}, false)
		if got := n.Stats().PacketsReceived; got != 2 {
			t.Fatal("parent stream discontinuity never resynchronised")
		}
	})
	t.Run("repair-below-window", func(t *testing.T) {
		n, _ := newGuardNode(nil)
		attachTo(n, "p")
		n.mu.Lock()
		n.highest = 10000
		n.streamSeen = true
		n.mu.Unlock()
		n.offerPacket(wire.Envelope{Type: wire.TypeRepairData, From: "helper", Packet: 1}, true)
		s := n.Stats()
		if s.PacketsRepaired != 0 || s.GuardImplausible != 1 {
			t.Fatalf("ancient repair data accepted: %+v", s)
		}
	})
}

func TestELNRangeClamped(t *testing.T) {
	n, _ := newGuardNode(nil)
	attachTo(n, "p")
	n.mu.Lock()
	n.highest = 100
	n.streamSeen = true
	n.mu.Unlock()
	// A plausible parent ELN advances the suppression mark.
	n.handleELN(wire.Envelope{Type: wire.TypeELN, From: "p", FirstMissing: 50, LastMissing: 120})
	n.mu.Lock()
	mark := n.upstreamRepair
	n.mu.Unlock()
	if mark != 120 {
		t.Fatalf("upstreamRepair = %d, want 120", mark)
	}
	// A forged range far beyond the head must not suppress our repairs.
	n.handleELN(wire.Envelope{Type: wire.TypeELN, From: "p", FirstMissing: 0, LastMissing: 1 << 40})
	n.mu.Lock()
	mark = n.upstreamRepair
	n.mu.Unlock()
	if mark != 120 {
		t.Fatalf("forged ELN moved upstreamRepair to %d", mark)
	}
	if got := n.Stats().GuardImplausible; got != 1 {
		t.Fatalf("GuardImplausible = %d, want 1", got)
	}
}

func TestWireRejectAttribution(t *testing.T) {
	n, _ := newGuardNode(nil)
	n.tm.quarantineScore = 7
	// An envelope that parses but fails validation names its sender; two of
	// them cross the quarantine threshold.
	bad := envBytes(t, wire.Envelope{
		Type: wire.TypeRepairRequest, From: "evil", FirstMissing: 9, LastMissing: 3,
	})
	n.onDatagram(bad)
	n.onDatagram(bad)
	s := n.Stats()
	if s.WireRejects != 2 {
		t.Fatalf("WireRejects = %d, want 2", s.WireRejects)
	}
	if s.GuardQuarantines != 1 {
		t.Fatalf("GuardQuarantines = %d, want 1", s.GuardQuarantines)
	}
	// Unattributable garbage is counted but charges no one.
	n.onDatagram([]byte("{not an envelope"))
	s = n.Stats()
	if s.WireRejects != 3 || s.GuardQuarantines != 1 {
		t.Fatalf("unattributable reject mishandled: %+v", s)
	}
}

// TestJSONDatagramIsGarbage pins the receive path's attack surface at one
// parser. Both datagrams are well-formed envelopes of the retired JSON
// framing: the first is a join the two-parser receive path accepted (child
// slot, ack, accept reply), the second an inverted repair range it charged to
// its claimed sender. Without the magic prefix both are now plain garbage:
// counted malformed, attributed to nobody, answered with nothing.
func TestJSONDatagramIsGarbage(t *testing.T) {
	reg := live.NewRegistry()
	n, tr := newGuardNode(func(cfg *Config) { cfg.Metrics = reg })
	attachTo(n, "p") // with a free slot, so a parsed join would be accepted
	before := n.Stats().WireRejects

	n.onDatagram([]byte(`{"type":1,"from":"evil","bandwidth":3,"ctrl":1}`))
	n.onDatagram([]byte(`{"type":8,"from":"evil","first_missing":9,"last_missing":3}`))

	if got := n.Stats().WireRejects - before; got != 2 {
		t.Fatalf("WireRejects rose by %d, want 2", got)
	}
	for _, m := range reg.Snapshot().Metrics {
		if m.Name != "omcast_node_wire_rejects_total" {
			continue
		}
		want := 0.0
		if m.Labels[0].Value == wire.ReasonMalformed {
			want = 2
		}
		if m.Value != want {
			t.Errorf("wire rejects with reason %q = %v, want %v", m.Labels[0].Value, m.Value, want)
		}
	}
	n.mu.Lock()
	_, record := n.peers["evil"]
	_, child := n.children["evil"]
	n.mu.Unlock()
	if record || child {
		t.Fatalf("garbage left state for its claimed sender: peer record=%t child=%t", record, child)
	}
	if sent := tr.sentTo("evil"); len(sent) != 0 {
		t.Fatalf("garbage was answered: %+v", sent)
	}
}

func TestSwitchCommitShapeRejected(t *testing.T) {
	// The fuzzer's find: a SwitchCommit from the parent naming neither a
	// replaced child (Chain) nor a NewParent used to re-point the node at the
	// empty address — attached with no parent. It must be dropped and counted.
	n, _ := newGuardNode(nil)
	attachTo(n, "p")
	n.onDatagram(envBytes(t, wire.Envelope{Type: wire.TypeSwitchCommit, From: "p"}))
	s := n.Stats()
	if !s.Attached || s.Parent != "p" {
		t.Fatalf("shapeless switch commit re-pointed the node: attached=%t parent=%q", s.Attached, s.Parent)
	}
	if s.GuardImplausible != 1 {
		t.Fatalf("GuardImplausible = %d, want 1", s.GuardImplausible)
	}
	// A well-formed commit from the parent still re-points.
	n.onDatagram(envBytes(t, wire.Envelope{Type: wire.TypeSwitchCommit, From: "p", NewParent: "np"}))
	if s = n.Stats(); s.Parent != "np" {
		t.Fatalf("valid switch commit ignored: parent=%q", s.Parent)
	}
}
