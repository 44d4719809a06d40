package node

import (
	"reflect"
	"testing"
	"time"

	"omcast/internal/metrics/live"
	"omcast/internal/wire"
)

// metricValue returns the current value of the named series (summing across
// label sets), or -1 if the family is absent.
func metricValue(reg *live.Registry, name string) float64 {
	snap := reg.Snapshot()
	sum, found := 0.0, false
	for _, m := range snap.Metrics {
		if m.Name == name {
			found = true
			sum += m.Value
		}
	}
	if !found {
		return -1
	}
	return sum
}

// TestNodeMetrics boots an instrumented overlay, streams for a while, and
// checks the live registry reflects the traffic.
func TestNodeMetrics(t *testing.T) {
	regs := make(map[int]*live.Registry)
	c := newCluster(t, 6, func(i int, cfg *Config) {
		regs[i] = live.NewRegistry()
		cfg.Metrics = regs[i]
	})
	c.eventually(5*time.Second, "all attached", c.allAttached)
	c.eventually(5*time.Second, "stream flowing", func() bool {
		for _, nd := range c.nodes {
			if nd.Stats().PacketsReceived < 20 {
				return false
			}
		}
		return true
	})

	for i, nd := range c.nodes {
		reg := regs[i]
		if got := metricValue(reg, "omcast_node_attached"); got != 1 {
			t.Errorf("node %d: omcast_node_attached = %v, want 1", i, got)
		}
		if got := metricValue(reg, "omcast_node_packets_received_total"); got < 20 {
			t.Errorf("node %d: packets_received = %v, want >= 20", i, got)
		}
		if got := metricValue(reg, "omcast_node_heartbeats_sent_total"); got <= 0 {
			t.Errorf("node %d: heartbeats_sent = %v, want > 0", i, got)
		}
		if got := metricValue(reg, "omcast_node_transport_tx_bytes_total"); got <= 0 {
			t.Errorf("node %d: tx_bytes = %v, want > 0", i, got)
		}
		if got := metricValue(reg, "omcast_node_transport_rx_datagrams_total"); got <= 0 {
			t.Errorf("node %d: rx_datagrams = %v, want > 0", i, got)
		}
		stats := nd.Stats()
		if got := metricValue(reg, "omcast_node_depth"); got != float64(stats.Depth) {
			t.Errorf("node %d: depth gauge = %v, stats depth = %d", i, got, stats.Depth)
		}
	}
}

// TestNodeMetricsRejoin checks the failure-path counters: killing a parent
// must surface as a parent timeout and a rejoin on its child's registry. The
// source has bandwidth 1, so it takes one child and every other member
// attaches below a member: the tree always has an interior node.
func TestNodeMetricsRejoin(t *testing.T) {
	regs := make(map[int]*live.Registry)
	c := newClusterSrc(t, 8, 1, func(i int, cfg *Config) {
		regs[i] = live.NewRegistry()
		cfg.Metrics = regs[i]
	})
	c.eventually(5*time.Second, "all attached", c.allAttached)

	// Find an interior node (one that is some other node's parent) and kill it.
	victim := -1
	for i, nd := range c.nodes {
		addr := nd.Addr()
		for j, other := range c.nodes {
			if j != i && other.Stats().Parent == addr {
				victim = i
				break
			}
		}
		if victim >= 0 {
			break
		}
	}
	if victim < 0 {
		t.Fatal("no interior node formed under a source of bandwidth 1")
	}
	c.nodes[victim].Kill()

	c.eventually(10*time.Second, "orphans recover and count a rejoin", func() bool {
		total := 0.0
		for i, nd := range c.nodes {
			if i == victim {
				continue
			}
			if !nd.Stats().Attached {
				return false
			}
			total += max(0, metricValue(regs[i], "omcast_node_rejoins_total"))
		}
		return total > 0
	})
}

// TestNodeUninstrumented confirms Config.Metrics == nil keeps every metric
// path on the nil-sink branch (compile-time nil-safety contract of
// internal/metrics applies to the live backend too).
func TestNodeUninstrumented(t *testing.T) {
	c := newCluster(t, 3, nil)
	c.eventually(5*time.Second, "all attached", c.allAttached)
}

// statsCounters pairs every counter field of Stats with the series that
// serves it on /metrics (labelled families are summed).
var statsCounters = []struct{ field, series string }{
	{"PacketsReceived", "omcast_node_packets_received_total"},
	{"PacketsRepaired", "omcast_node_packets_repaired_total"},
	{"RepairsServed", "omcast_node_repairs_served_total"},
	{"Rejoins", "omcast_node_rejoins_total"},
	{"Failovers", "omcast_node_failovers_total"},
	{"Switches", "omcast_node_switches_total"},
	{"ELNsSent", "omcast_node_eln_sent_total"},
	{"PlayedSlots", "omcast_node_played_slots_total"},
	{"StarvedSlots", "omcast_node_starved_slots_total"},
	{"JoinAttempts", "omcast_node_join_attempts_total"},
	{"RepairRequests", "omcast_node_repair_requests_total"},
	{"RepairsSuppressed", "omcast_node_repair_suppressed_total"},
	{"Stalls", "omcast_node_playback_stalls_total"},
	{"StallSeconds", "omcast_node_playback_stall_seconds"},
	{"StallRejoins", "omcast_node_stall_rejoins_total"},
	{"WireRejects", "omcast_node_wire_rejects_total"},
	{"CtrlSent", "omcast_node_retx_ctrl_sent_total"},
	{"RetxSent", "omcast_node_retx_sent_total"},
	{"RetxAcked", "omcast_node_retx_acked_total"},
	{"RetxExpired", "omcast_node_retx_expired_total"},
	{"RetxOverflow", "omcast_node_retx_overflow_total"},
	{"RetxDupDrops", "omcast_node_retx_dup_drops_total"},
	{"GuardRateLimited", "omcast_node_guard_rate_limited_total"},
	{"GuardQuarantineDrops", "omcast_node_guard_quarantine_drops_total"},
	{"GuardQuarantines", "omcast_node_guard_quarantines_total"},
	{"GuardAuditFails", "omcast_node_guard_btp_audit_fails_total"},
	{"GuardImplausible", "omcast_node_guard_implausible_total"},
}

// runStatsScript drives a never-started node on a MemNetwork pair — the node
// and one peer endpoint standing in for every remote — through one event of
// every kind Stats counts, and returns the snapshot once the retransmit
// timers have run out. Datagrams go straight into the transport handler and
// the duty bodies (tryJoin, trySwitch, beat) are called by hand; virtual time
// moves only to carry datagrams to the peer and to run the retransmit timers
// out. The heartbeat is an hour: every heartbeat-derived gate (repair
// backoff, switch lock, quarantine) outlasts the script, and the counts are
// exact.
func runStatsScript(t *testing.T, reg *live.Registry) Stats {
	t.Helper()
	w := newWorld(t)
	peer := w.endpoint("p")
	seen := make(map[wire.Type]int) // what reached the peer, by type
	var joinCtrl uint64             // the control sequence of the first Join
	peer.SetHandler(func(data []byte) {
		if env, err := wire.DecodeBinary(data); err == nil {
			seen[env.Type]++
			if env.Type == wire.TypeJoin && joinCtrl == 0 {
				joinCtrl = env.Ctrl
			}
		}
	})
	n := w.node("n", Config{
		Bandwidth:         3,
		HeartbeatInterval: time.Hour,
		PlaybackBuffer:    time.Hour,
		Metrics:           reg,
	})
	n.tm.retxAttempts, n.tm.retxInflight = 2, 1
	n.tm.retxBackoffBase = 100 * time.Millisecond
	n.tm.requestRate, n.tm.requestBurst = 0.5, 1 // a one-token bucket per peer
	n.tm.quarantineScore = 4                     // one attributed wire reject convicts
	in := func(env wire.Envelope) { n.onDatagram(envBytes(t, env)) }
	parentHeartbeat := wire.Envelope{Type: wire.TypeHeartbeat, From: "p", Bandwidth: 1, Depth: 1}

	// Join: learn of p, ask it, have the Join acked and accepted.
	in(wire.Envelope{Type: wire.TypeMembershipReply, From: "p",
		Members: []wire.MemberInfo{{Addr: "p", Depth: 1, Spare: 2, Bandwidth: 1}}})
	n.tryJoin()
	w.eventually(5*time.Second, "the Join reaches p", func() bool { return joinCtrl != 0 })
	in(wire.Envelope{Type: wire.TypeAck, From: "p", Ctrl: joinCtrl})
	in(wire.Envelope{Type: wire.TypeAccept, From: "p", Depth: 1})
	in(parentHeartbeat)
	// A child joins; a leave arrives twice under one control sequence.
	in(wire.Envelope{Type: wire.TypeJoin, From: "c", Bandwidth: 1})
	in(wire.Envelope{Type: wire.TypeLeave, From: "q", Ctrl: 7})
	in(wire.Envelope{Type: wire.TypeLeave, From: "q", Ctrl: 7})
	// Stream: 1 2 _ _ 5 opens a gap (repair request + ELN to the child),
	// 9 opens another inside the backoff gate (suppressed), 3 is repaired.
	for _, seq := range []int64{1, 2, 5, 9} {
		in(wire.Envelope{Type: wire.TypePacket, From: "p", Packet: seq})
	}
	in(wire.Envelope{Type: wire.TypeRepairData, From: "r", Packet: 3})
	// Implausible: a stream packet from a non-parent, an ELN far past the head.
	in(wire.Envelope{Type: wire.TypePacket, From: "stranger", Packet: 10})
	in(wire.Envelope{Type: wire.TypeELN, From: "p", FirstMissing: 10, LastMissing: 5000})
	// x is served its stripe of 1..5, then runs its token bucket dry.
	repairRequest := wire.Envelope{Type: wire.TypeRepairRequest, From: "x", FirstMissing: 1, LastMissing: 5}
	in(repairRequest)
	in(repairRequest)
	// Wire rejects: garbage naming nobody, then an inverted range naming evil,
	// which convicts it; its next datagram is dropped at the door. liar's BTP
	// outruns its own bandwidth claim.
	n.onDatagram([]byte("{not an envelope"))
	in(wire.Envelope{Type: wire.TypeRepairRequest, From: "evil", FirstMissing: 9, LastMissing: 3})
	in(wire.Envelope{Type: wire.TypeHeartbeat, From: "evil", Bandwidth: 1})
	in(wire.Envelope{Type: wire.TypeHeartbeat, From: "liar", Bandwidth: 1})
	in(wire.Envelope{Type: wire.TypeHeartbeat, From: "liar", Bandwidth: 1, BTP: 1e9})
	// Playback: score the slots due one second in (1..11 at the default rate):
	// 1 2 3 play, 4 starves, 5 plays, 6 7 8 starve, 9 plays, 10 11 starve.
	n.mu.Lock()
	n.advancePlayback(n.playStart.Add(time.Second))
	n.mu.Unlock()
	// Switch: once the node's BTP has grown past p's zero claim, propose to p
	// and commit on its accept. With an in-flight window of one, the commit to
	// p overflows behind the unacked propose.
	w.advance(time.Millisecond)
	n.trySwitch()
	in(wire.Envelope{Type: wire.TypeSwitchAccept, From: "p", NewParent: "g"})
	// Stall: the new parent g heartbeats but no stream has come for a day.
	n.mu.Lock()
	n.lastStream = n.lastStream.Add(-24 * time.Hour)
	n.attachedAt = n.attachedAt.Add(-24 * time.Hour)
	n.mu.Unlock()
	n.beat()
	// Failover: rejoin under p.
	n.tryJoin()
	in(wire.Envelope{Type: wire.TypeAccept, From: "p", Depth: 1})

	w.eventually(5*time.Second, "retransmit timers run out", func() bool {
		return n.Stats().RetxInflight == 0
	})
	if seen[wire.TypeJoin] < 2 || seen[wire.TypeSwitchPropose] < 2 {
		t.Fatalf("peer saw %d Join and %d SwitchPropose datagrams, want a rejoin and a retransmit", seen[wire.TypeJoin], seen[wire.TypeSwitchPropose])
	}
	return n.Stats()
}

// TestStatsIsAViewOverMetrics: Stats keeps no counters of its own. Every
// counter field equals the series scraped from the node's registry, every one
// of them moved during the script, and a node built without a registry —
// whose instruments are free-standing — reports the identical snapshot.
func TestStatsIsAViewOverMetrics(t *testing.T) {
	reg := live.NewRegistry()
	s := runStatsScript(t, reg)

	paired := map[string]bool{
		// Read from node state, not counted.
		"Attached": true, "Parent": true, "Depth": true, "Children": true, "HighestPacket": true,
		"KnownMembers": true, "RetxInflight": true, "QuarantinedPeers": true,
	}
	v := reflect.ValueOf(s)
	for _, c := range statsCounters {
		paired[c.field] = true
		f := v.FieldByName(c.field)
		var got float64
		switch f.Kind() {
		case reflect.Int64:
			got = float64(f.Int())
		case reflect.Float64:
			got = f.Float()
		default:
			t.Fatalf("Stats.%s is not a counter field", c.field)
		}
		if scraped := metricValue(reg, c.series); got != scraped {
			t.Errorf("Stats.%s = %v, %s scrapes %v", c.field, got, c.series, scraped)
		}
		if got <= 0 {
			t.Errorf("Stats.%s = %v: the script never moved it", c.field, got)
		}
	}
	for i := 0; i < v.NumField(); i++ {
		if name := v.Type().Field(i).Name; !paired[name] {
			t.Errorf("Stats.%s has no series in statsCounters", name)
		}
	}

	if bare := runStatsScript(t, nil); bare != s {
		t.Errorf("same script, different snapshot without a registry:\n with %+v\n sans %+v", s, bare)
	}
}
