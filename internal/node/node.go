// Package node is the live implementation of the paper's protocol stack: a
// runtime that speaks the wire vocabulary over a Transport (an in-process
// network for tests, UDP for real deployments) and keeps time by a Clock
// (real time, or an eventsim.Simulator's virtual time). It implements:
//
//   - the joining handshake (membership discovery, min-depth parent choice);
//   - parent/child heartbeats with failure detection;
//   - stream forwarding with a repair buffer;
//   - gap detection, Explicit Loss Notification, and CER-style striped
//     repair from a recovery group;
//   - membership gossip (bounded partial views with ancestor paths);
//   - the ROST switching handshake (propose / accept / commit), driven by
//     the bandwidth-time product carried on heartbeats.
//
// The simulation packages answer "does the design work at scale"; this
// package answers "does the protocol actually run" — its integration tests
// boot dozens of nodes, stream packets, kill members and watch the overlay
// heal, on a virtual clock that makes every run a function of its seed.
package node

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"time"

	"omcast/internal/cer"
	"omcast/internal/metrics"
	"omcast/internal/metrics/live"
	"omcast/internal/rost"
	"omcast/internal/tracing"
	"omcast/internal/wire"
	"omcast/internal/xrand"
)

// Config parameterises one protocol node.
type Config struct {
	// Source marks the stream origin (depth 0, never joins).
	Source bool
	// Bandwidth is the node's outbound bandwidth in stream-rate units; its
	// out-degree is floor(Bandwidth).
	Bandwidth float64
	// StreamRate is the source's packet rate (packets per second).
	StreamRate float64
	// Bootstrap lists known members to discover the overlay through.
	Bootstrap []wire.Addr

	// HeartbeatInterval paces liveness messages (default 1 s). It is also the
	// node's one time scale: every timeout, backoff bound and lock deadline
	// is a fixed multiple of it — see timing.
	HeartbeatInterval time.Duration
	// GossipInterval paces membership exchanges (default 2x the heartbeat).
	GossipInterval time.Duration
	// SwitchInterval paces ROST switching checks; zero disables switching.
	SwitchInterval time.Duration
	// BufferPackets bounds the repair buffer (default 256).
	BufferPackets int
	// RecoveryGroup is the CER group size K (default 3).
	RecoveryGroup int
	// PlaybackBuffer is the player's start-up buffering (default 2 s):
	// packet n's playout deadline is firstArrival + PlaybackBuffer +
	// (n-first)/rate; packets absent at their deadline count as starved
	// playback slots (the live analogue of the paper's starving-time ratio).
	PlaybackBuffer time.Duration
	// Seed drives the node's deterministic jitter streams (join and repair
	// backoff); two nodes with the same seed and address draw identical
	// jitter sequences.
	Seed int64
	// Metrics, if non-nil, receives the node's instruments (the concurrent
	// wall-clock backend; serve it over HTTP with live.Handler). Instruments
	// are found by name and Stats reads them back, so give every node its
	// own registry.
	Metrics *live.Registry
	// Trace, if non-nil, receives completed causal spans: join/rejoin
	// episodes with per-attempt children, repair round-trips, and playback
	// starvation windows (see internal/tracing). Point it at a
	// tracing/flight ring to get a crash-forensics recorder served over
	// /debug/trace. Span timestamps count seconds since node creation. Nil
	// costs one pointer check per hook.
	Trace tracing.Recorder
	// Clock is the node's one source of time (see Clock); nil is the wall
	// clock. NewVirtualClock runs the node on an eventsim.Simulator.
	Clock Clock
}

func (c Config) withDefaults() Config {
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = time.Second
	}
	if c.BufferPackets <= 0 {
		c.BufferPackets = 256
	}
	if c.RecoveryGroup <= 0 {
		c.RecoveryGroup = 3
	}
	if c.StreamRate <= 0 {
		c.StreamRate = 10
	}
	if c.PlaybackBuffer <= 0 {
		c.PlaybackBuffer = 2 * time.Second
	}
	if c.Clock == nil {
		c.Clock = WallClock()
	}
	return c
}

// timing is every duration, bound and rate the node fixes instead of taking
// as configuration, computed once in New from the (defaulted) Config;
// newTiming is the one place an interval or a limit is set. A harness that
// speeds the node up through HeartbeatInterval scales every duration
// together.
type timing struct {
	gossipInterval   time.Duration // Config.GossipInterval when set
	heartbeatTimeout time.Duration // silence that declares a neighbour dead
	switchLockFor    time.Duration // longest one exchange may hold the switch lock
	// Bounds of the capped exponential backoffs (see backoffDelay) that pace
	// join attempts, repair requests and control retransmits.
	joinBackoffBase, joinBackoffMax     time.Duration
	repairBackoffBase, repairBackoffMax time.Duration
	retxBackoffBase, retxBackoffMax     time.Duration
	// retxAttempts bounds how many times a control-class message (join,
	// accept/reject, leave, membership, switch, repair-request) is
	// transmitted: the first send plus up to retxAttempts-1 retransmits,
	// each awaiting an ack. Data-class traffic is never retransmitted.
	retxAttempts int
	// retxInflight caps unacked control messages per peer; sends over the
	// cap fall back to fire-and-forget so a dead peer cannot pin unbounded
	// retransmit state.
	retxInflight int
	// memberStaleAfter is the gossip horizon: view entries not heard from for
	// this long are skipped by CER recovery-group selection.
	memberStaleAfter time.Duration
	stallRejoinAfter time.Duration // attached yet streamless this long: rejoin (see beat)
	quarantine       time.Duration // how long a convicted peer stays dropped
	// requestRate refills the per-peer token bucket metering request-type
	// messages (Join, RepairRequest, MembershipRequest), in requests per
	// second; requestBurst is the bucket's depth, two seconds' worth. Honest
	// peers direct at most a few tens of requests per second at any single
	// target.
	requestRate, requestBurst float64
	// quarantineScore is the decayed misbehavior score that convicts a peer.
	quarantineScore float64
	// plausibleSpan is how far from the local stream head a sequence number
	// may stray before it is treated as forged.
	plausibleSpan int64
	// membershipLimit bounds the partial view a membership reply carries.
	membershipLimit int
	// peerCap bounds the peer table (Node.peers), the one per-peer state that
	// grows on wire input: view entries, guard accounts and retransmit
	// windows, so a crowd of forged sender addresses cannot grow it without
	// bound. peer evicts to stay under it.
	peerCap int
}

func newTiming(c Config) timing {
	hb := c.HeartbeatInterval
	t := timing{
		gossipInterval:    c.GossipInterval,
		heartbeatTimeout:  3 * hb,
		switchLockFor:     3 * hb,
		joinBackoffBase:   hb,
		joinBackoffMax:    8 * hb,
		repairBackoffBase: hb / 2,
		repairBackoffMax:  4 * hb,
		retxBackoffBase:   hb / 2,
		retxBackoffMax:    4 * hb,
		retxAttempts:      4,
		retxInflight:      32,
		quarantine:        50 * hb,
		requestRate:       100,
		quarantineScore:   12,
		plausibleSpan:     4 * int64(c.BufferPackets),
		membershipLimit:   100,
	}
	if t.gossipInterval <= 0 {
		t.gossipInterval = 2 * hb
	}
	t.memberStaleAfter = 10 * t.gossipInterval
	t.stallRejoinAfter = 6 * t.heartbeatTimeout
	t.requestBurst = 2 * t.requestRate
	t.peerCap = 4 * t.membershipLimit
	return t
}

// Stats is a snapshot of a node's protocol counters.
type Stats struct {
	Attached        bool
	Parent          wire.Addr
	Depth           int
	Children        int
	HighestPacket   int64
	PacketsReceived int64
	PacketsRepaired int64
	RepairsServed   int64
	Rejoins         int64
	// Failovers counts re-attachments completed after an involuntary
	// detachment (Rejoins counts the detachments; this counts the landings).
	Failovers    int64
	Switches     int64
	ELNsSent     int64
	KnownMembers int
	// PlayedSlots / StarvedSlots drive the live starving-time ratio: slots
	// whose packet was (or was not) buffered by its playout deadline.
	PlayedSlots  int64
	StarvedSlots int64
	// JoinAttempts counts Join envelopes sent (each backoff step retries once).
	JoinAttempts int64
	// RepairRequests counts striped CER requests issued; RepairsSuppressed
	// counts gap detections absorbed into an already-pending request by the
	// repair backoff gate (the storm-bound evidence).
	RepairRequests    int64
	RepairsSuppressed int64
	// Stalls counts transitions into starvation; StallSeconds accumulates the
	// playback time spent starved (StarvedSlots / StreamRate).
	Stalls       int64
	StallSeconds float64
	// StallRejoins counts rejoins forced by the stream-stall watchdog (an
	// attached but streamless parent — the zombie-subtree escape hatch).
	StallRejoins int64
	// WireRejects counts datagrams that failed wire decode/validation.
	WireRejects int64
	// Reliability-shim counters. CtrlSent counts control messages sent under
	// ack protection; RetxSent counts retransmissions of those; RetxAcked
	// counts first acks received; RetxExpired counts messages abandoned
	// after their last allowed transmission or with their evicted peer
	// record; RetxOverflow counts control sends demoted to fire-and-forget by
	// the per-peer in-flight cap; RetxDupDrops
	// counts received control messages suppressed by the dedup window (the
	// ack is still re-sent); RetxInflight is the current unacked total.
	CtrlSent     int64
	RetxSent     int64
	RetxAcked    int64
	RetxExpired  int64
	RetxOverflow int64
	RetxDupDrops int64
	RetxInflight int
	// GuardRateLimited counts requests dropped by the per-peer token bucket,
	// and datagrams from a new peer while the peer table holds only the
	// parent and children;
	// GuardQuarantineDrops counts datagrams dropped because their sender was
	// quarantined; GuardQuarantines counts quarantine sentences handed out;
	// GuardAuditFails counts BTP claims that outran the sender's own claimed
	// bandwidth; GuardImplausible counts handler-level rejections of
	// wire-valid but contextually absurd values (packet-sequence jumps,
	// non-parent stream packets, out-of-window repair ranges).
	GuardRateLimited     int64
	GuardQuarantineDrops int64
	GuardQuarantines     int64
	GuardAuditFails      int64
	GuardImplausible     int64
	// QuarantinedPeers is the number of peers currently quarantined.
	QuarantinedPeers int
}

// StarvingRatio is the fraction of playout slots that starved (0 before
// playback starts).
func (s Stats) StarvingRatio() float64 {
	total := s.PlayedSlots + s.StarvedSlots
	if total == 0 {
		return 0
	}
	return float64(s.StarvedSlots) / float64(total)
}

// nodeMetrics is the node's one counter set. Every protocol event is counted
// at exactly one site, on one of these instruments; Stats is a view that
// reads them back, and a /metrics scrape reads the same atomics through the
// registry. Instruments with a Stats field always exist (registered in
// Config.Metrics when one is given, free-standing otherwise). Those without
// one — traffic volume, neighbour timeouts, and the gauges mirroring state
// Stats reads directly — are nil without a registry, and the live types'
// nil-safe methods make each of their updates a single branch.
type nodeMetrics struct {
	packetsReceived  *live.Counter
	packetsRepaired  *live.Counter
	repairsServed    *live.Counter
	elnSent          *live.Counter
	rejoins          *live.Counter
	failovers        *live.Counter
	switches         *live.Counter
	playedSlots      *live.Counter
	starvedSlots     *live.Counter
	joinAttempts     *live.Counter
	repairRequests   *live.Counter
	repairSuppressed *live.Counter
	stalls           *live.Counter
	stallRejoins     *live.Counter
	stallSeconds     *live.Gauge

	// Reliability-shim counters (see the Stats retx fields).
	ctrlSent     *live.Counter
	retxSent     *live.Counter
	retxAcked    *live.Counter
	retxExpired  *live.Counter
	retxOverflow *live.Counter
	retxDupDrops *live.Counter

	// Guard counters. wireRejects and implausible are pre-registered per
	// reason/kind so label cardinality stays fixed; Stats sums each family.
	wireRejects          map[string]*live.Counter
	implausible          map[string]*live.Counter
	guardRateLimited     *live.Counter
	guardQuarantineDrops *live.Counter
	guardQuarantines     *live.Counter
	guardAuditFails      *live.Counter

	// Registry-only instruments: nil when Config.Metrics is nil.
	heartbeatsSent   *live.Counter
	parentTimeouts   *live.Counter
	childTimeouts    *live.Counter
	packetsForwarded *live.Counter
	packetsDuplicate *live.Counter
	gossipSent       *live.Counter
	txDatagrams      *live.Counter
	rxDatagrams      *live.Counter
	txBytes          *live.Counter
	rxBytes          *live.Counter
	attached         *live.Gauge
	depth            *live.Gauge
	children         *live.Gauge
	knownMembers     *live.Gauge
	joinBackoff      *live.Gauge
	repairBackoff    *live.Gauge
	retxInflight     *live.Gauge
	quarantinedPeers *live.Gauge
}

// implausibleKinds is the fixed vocabulary of handler-level rejections of
// wire-valid but contextually absurd datagrams.
var implausibleKinds = []string{
	"packet-at-source",  // stream/repair data sent at the stream origin
	"packet-not-parent", // stream packet from someone other than the parent
	"packet-jump",       // sequence implausibly far ahead of the local head
	"repair-range",      // repair request outside the serviceable window shape
	"eln-range",         // ELN covering sequences implausibly far ahead
	"switch-shape",      // switch commit naming neither a replaced child nor a new parent
}

// sum totals one labeled counter family.
func sum(family map[string]*live.Counter) int64 {
	var total int64
	for _, c := range family {
		total += c.Value()
	}
	return total
}

// newNodeMetrics builds the counter set; reg may be nil.
func newNodeMetrics(reg *live.Registry) nodeMetrics {
	counter := func(name, help string, labels ...metrics.Label) *live.Counter {
		if reg == nil {
			return new(live.Counter)
		}
		return reg.Counter(name, help, labels...)
	}
	m := nodeMetrics{
		wireRejects:          make(map[string]*live.Counter, len(wire.Reasons())),
		implausible:          make(map[string]*live.Counter, len(implausibleKinds)),
		ctrlSent:             counter("omcast_node_retx_ctrl_sent_total", "Control-class messages sent under ack protection."),
		retxSent:             counter("omcast_node_retx_sent_total", "Retransmissions of unacked control-class messages."),
		retxAcked:            counter("omcast_node_retx_acked_total", "Control-class messages confirmed by a first ack."),
		retxExpired:          counter("omcast_node_retx_expired_total", "Control-class messages abandoned after the retransmit budget or with their evicted peer record."),
		retxOverflow:         counter("omcast_node_retx_overflow_total", "Control sends demoted to fire-and-forget by the per-peer in-flight cap."),
		retxDupDrops:         counter("omcast_node_retx_dup_drops_total", "Received control messages suppressed as duplicates by the dedup window."),
		guardRateLimited:     counter("omcast_node_guard_rate_limited_total", "Requests dropped by the per-peer token bucket."),
		guardQuarantineDrops: counter("omcast_node_guard_quarantine_drops_total", "Datagrams dropped because their sender was quarantined."),
		guardQuarantines:     counter("omcast_node_guard_quarantines_total", "Quarantine sentences handed out to misbehaving peers."),
		guardAuditFails:      counter("omcast_node_guard_btp_audit_fails_total", "BTP claims that outran the sender's own claimed bandwidth."),
		packetsReceived:      counter("omcast_node_packets_received_total", "Stream packets accepted into the buffer."),
		packetsRepaired:      counter("omcast_node_packets_repaired_total", "Packets recovered through CER repair."),
		repairsServed:        counter("omcast_node_repairs_served_total", "Repair packets served to other members."),
		elnSent:              counter("omcast_node_eln_sent_total", "Explicit-loss-notification envelopes sent downstream."),
		rejoins:              counter("omcast_node_rejoins_total", "Times the node lost its parent and re-entered joining."),
		failovers:            counter("omcast_node_failovers_total", "Re-attachments completed after an involuntary detachment (parent death, leave or stall)."),
		switches:             counter("omcast_node_switches_total", "ROST switch commits executed as initiator."),
		playedSlots:          counter("omcast_node_played_slots_total", "Playout slots whose packet arrived by its deadline."),
		starvedSlots:         counter("omcast_node_starved_slots_total", "Playout slots whose packet missed its deadline."),
		joinAttempts:         counter("omcast_node_join_attempts_total", "Join envelopes sent (one per backoff step while detached)."),
		repairRequests:       counter("omcast_node_repair_requests_total", "Striped CER repair requests issued."),
		repairSuppressed:     counter("omcast_node_repair_suppressed_total", "Gap detections absorbed into a pending request by the repair backoff gate."),
		stalls:               counter("omcast_node_playback_stalls_total", "Transitions of the playout clock into starvation."),
		stallRejoins:         counter("omcast_node_stall_rejoins_total", "Rejoins forced by the stream-stall watchdog (live parent, no stream)."),
		stallSeconds:         new(live.Gauge),
	}
	for _, r := range wire.Reasons() {
		m.wireRejects[r] = counter("omcast_node_wire_rejects_total",
			"Datagrams rejected by wire decode/validation, by reason.",
			metrics.Label{Key: "reason", Value: r})
	}
	for _, k := range implausibleKinds {
		m.implausible[k] = counter("omcast_node_guard_implausible_total",
			"Wire-valid datagrams rejected at the handler boundary as contextually absurd, by kind.",
			metrics.Label{Key: "kind", Value: k})
	}
	if reg == nil {
		return m
	}
	peerLabel := func(v string) metrics.Label { return metrics.Label{Key: "peer", Value: v} }
	m.stallSeconds = reg.Gauge("omcast_node_playback_stall_seconds", "Cumulative playback time spent starved, in stream seconds.")
	m.retxInflight = reg.Gauge("omcast_node_retx_inflight", "Control-class messages currently awaiting an ack.")
	m.quarantinedPeers = reg.Gauge("omcast_node_guard_quarantined_peers", "Peers currently quarantined.")
	m.heartbeatsSent = reg.Counter("omcast_node_heartbeats_sent_total", "Heartbeat envelopes sent to the parent and children.")
	m.parentTimeouts = reg.Counter("omcast_node_neighbor_timeouts_total", "Neighbours declared dead after missed heartbeats.", peerLabel("parent"))
	m.childTimeouts = reg.Counter("omcast_node_neighbor_timeouts_total", "Neighbours declared dead after missed heartbeats.", peerLabel("child"))
	m.packetsForwarded = reg.Counter("omcast_node_packets_forwarded_total", "Stream packet copies forwarded to children.")
	m.packetsDuplicate = reg.Counter("omcast_node_packets_duplicate_total", "Stream packets dropped as already buffered.")
	m.gossipSent = reg.Counter("omcast_node_gossip_sent_total", "Membership gossip requests initiated.")
	m.txDatagrams = reg.Counter("omcast_node_transport_tx_datagrams_total", "Datagrams handed to the transport.")
	m.rxDatagrams = reg.Counter("omcast_node_transport_rx_datagrams_total", "Datagrams delivered by the transport.")
	m.txBytes = reg.Counter("omcast_node_transport_tx_bytes_total", "Bytes handed to the transport.")
	m.rxBytes = reg.Counter("omcast_node_transport_rx_bytes_total", "Bytes delivered by the transport.")
	m.attached = reg.Gauge("omcast_node_attached", "1 while the node holds a tree position (sources always 1).")
	m.depth = reg.Gauge("omcast_node_depth", "Current tree depth (0 at the source).")
	m.children = reg.Gauge("omcast_node_children", "Children currently served.")
	m.knownMembers = reg.Gauge("omcast_node_known_members", "Entries in the partial membership view.")
	m.joinBackoff = reg.Gauge("omcast_node_join_backoff_seconds", "Jittered delay chosen before the next join attempt.")
	m.repairBackoff = reg.Gauge("omcast_node_repair_backoff_seconds", "Jittered gate interval chosen after the last repair request.")
	return m
}

// addChild records c as a child heard from at now.
func (n *Node) addChild(c wire.Addr, now time.Time) {
	if _, known := n.children[c]; !known {
		n.childList = append(n.childList, c)
	}
	n.children[c] = now
}

// dropChild forgets child c, if it is one.
func (n *Node) dropChild(c wire.Addr) {
	if _, ok := n.children[c]; ok {
		delete(n.children, c)
		n.childList = slices.DeleteFunc(n.childList, func(a wire.Addr) bool { return a == c })
	}
}

// ringSlot is one cell of the repair ring: the sequence it holds (-1 when
// never written) and that packet's payload.
type ringSlot struct {
	seq     int64
	payload []byte
}

// slot returns the ring slot of sequence seq, or nil when seq is below the
// window [highest-BufferPackets, highest] the buffer keeps. The window has as
// many sequences as the ring has slots, so no two of them share one.
func (n *Node) slot(seq int64) *ringSlot {
	if seq < 0 || seq < n.highest-int64(n.cfg.BufferPackets) {
		return nil
	}
	return &n.ring[seq%int64(len(n.ring))]
}

// buffered returns packet seq's payload and whether the repair buffer holds
// it: seq is in the window and its slot carries that sequence. A slot left
// behind by a head that jumped still carries its old sequence but is below
// the window, hence absent.
func (n *Node) buffered(seq int64) ([]byte, bool) {
	if s := n.slot(seq); s != nil && s.seq == seq {
		return s.payload, true
	}
	return nil, false
}

// store advances the stream head to seq if it is ahead and buffers the
// packet, overwriting whatever its slot held — eviction. A packet below the
// window is not stored: its slot belongs to a newer one.
func (n *Node) store(seq int64, payload []byte) {
	if seq > n.highest {
		n.highest = seq
	}
	if s := n.slot(seq); s != nil {
		*s = ringSlot{seq: seq, payload: payload}
	}
}

// switchLock is the ROST exchange lock (§3.3's lock set, as one node sees
// it): held from proposing or accepting an exchange until its commit. While
// held the node admits no Join and opens or accepts no other exchange. It has
// an owner and a deadline: only the recorded peer's reject or commit releases
// it early, and past until it is simply no longer held — a peer that dies
// mid-exchange costs its partner timing.switchLockFor, not its tree position.
type switchLock struct {
	peer  wire.Addr
	until time.Time
}

func (l switchLock) held(now time.Time) bool { return now.Before(l.until) }

// release ends the exchange held for peer; anyone else's release is not
// theirs to give and leaves the lock alone.
func (l *switchLock) release(peer wire.Addr) {
	if l.peer == peer {
		*l = switchLock{}
	}
}

// Node is one protocol participant. Its entry points — the transport
// handler (onDatagram), the timer runs (repeat's duties, retxFire), Start,
// Stop, Kill and Stats — each hold mu for their whole body, and no code
// below them locks: on either clock one thread of control at a time runs
// the node.
type Node struct {
	cfg       Config
	tm        timing
	transport Transport
	// senders interns the From address of every decoded datagram (intern.go).
	senders *senderTable
	// fanBuf is fanOut's encode buffer, reused from one fan-out to the next.
	fanBuf []byte

	mu sync.Mutex
	// stopped is set by Stop or Kill; every entry point but Stats then
	// returns at once.
	stopped bool

	attached   bool
	parent     wire.Addr
	parentSeen time.Time
	parentBTP  float64
	parentBW   float64
	depth      int
	// children maps each child to when it was last heard from; childList
	// holds the same keys in the order they became children, the order
	// every fan-out and heartbeat sends in. addChild and dropChild are the
	// only code that changes either.
	children  map[wire.Addr]time.Time
	childList []wire.Addr
	ancestors []wire.Addr
	joinedAt  time.Time
	swLock    switchLock

	// peers is the one table of per-peer state that wire input grows: each
	// record holds a peer's view entry, guard account and retransmit windows
	// (peers.go), and peer caps it. inflight counts the unacked control
	// messages across it; ctrlHigh is the highest control sequence this
	// incarnation has used (see retx.go). retxRng draws retransmit jitter
	// and gossipRng the gossip partner.
	peers     map[wire.Addr]*peerRecord
	inflight  int
	ctrlHigh  uint64
	retxRng   *xrand.Source
	gossipRng *xrand.Source
	// jumpStreak counts consecutive parent packets rejected as implausible
	// sequence jumps, so a genuine stream discontinuity resynchronises
	// instead of starving forever.
	jumpStreak int
	// lastJoinTarget detects unanswered join attempts: a candidate that
	// neither accepts nor rejects within one tick is presumed dead and
	// dropped from the view (dead members never send Rejects).
	lastJoinTarget wire.Addr

	// ring holds recent packets for repair service and loss detection:
	// BufferPackets+1 slots, sequence seq in slot seq mod len, so eviction is
	// overwrite (see buffered and store, the only two accessors).
	ring    []ringSlot
	highest int64
	// Playback clock: packet playFirst plays at playStart; the deadline of
	// packet n is playStart + (n - playFirst)/rate. playChecked is the last
	// sequence already scored.
	playFirst   int64
	playStart   time.Time
	playChecked int64
	// upstreamRepair marks ranges under upstream recovery: the highest
	// sequence covered by a received ELN.
	upstreamRepair int64

	// failingOver is set while the node is detached by a failure (not by its
	// own choice); the next successful attach counts as a completed failover.
	failingOver bool
	// Join backoff: joinStreak counts consecutive unanswered attempts (reset
	// on attach and detach); joinRng draws the deterministic jitter.
	joinStreak int
	joinRng    *xrand.Source
	// Repair backoff: detected gaps merge into [pendFirst, pendLast] and
	// drain through a jittered gate — at most one striped request per
	// interval. repairStreak widens the gate while repairs go unanswered and
	// resets when repair data arrives.
	pendFirst    int64
	pendLast     int64
	repairStreak int
	repairNextAt time.Time
	repairRng    *xrand.Source
	// inStall tracks whether the playout clock is currently starved (for
	// stall-transition counting).
	inStall bool
	// Stream-stall watchdog state: streamSeen arms it (never before the first
	// accepted packet, so idle overlays don't churn); lastStream and
	// attachedAt anchor the no-stream window.
	streamSeen bool
	lastStream time.Time
	attachedAt time.Time

	met nodeMetrics

	// Causal span tracing. traceStart anchors the span clock (span times are
	// seconds since node creation). The builders track the open episodes;
	// unfinished ones are simply never recorded (flight-recorder semantics:
	// an episode still open at crash leaves no span).
	trace       *tracing.Tracer
	traceStart  time.Time
	joinSpan    *tracing.SpanBuilder // open join/rejoin episode
	attemptSpan *tracing.SpanBuilder // open attempt within it
	repairSpan  *tracing.SpanBuilder // open repair round-trip
	stallSpan   *tracing.SpanBuilder // open starvation window
	stallBase   int64                // StarvedSlots at stall open

	seq uint64
	// group is recoveryGroup's scratch; selectRng draws its Algorithm 1.
	group     groupScratch
	selectRng *xrand.Source
}

// New creates a node over the given transport.
func New(cfg Config, tr Transport) *Node {
	cfg = cfg.withDefaults()
	n := &Node{
		cfg:       cfg,
		transport: tr,
		senders:   newSenderTable(),
		children:  make(map[wire.Addr]time.Time),
		peers:     make(map[wire.Addr]*peerRecord),
		group:     groupScratch{index: make(map[wire.Addr]int32)},
		highest:   -1,
		playFirst: -1,
		pendFirst: -1,
		pendLast:  -1,
		ctrlHigh:  uint64(cfg.Clock.Now().UnixNano()), // the incarnation (retx.go)
	}
	n.ring = make([]ringSlot, n.cfg.BufferPackets+1)
	for i := range n.ring {
		n.ring[i].seq = -1
	}
	n.tm = newTiming(n.cfg)
	n.met = newNodeMetrics(n.cfg.Metrics)
	n.joinRng = xrand.NewNamed(n.cfg.Seed, "node:join:"+string(tr.Addr()))
	n.repairRng = xrand.NewNamed(n.cfg.Seed, "node:repair:"+string(tr.Addr()))
	n.retxRng = xrand.NewNamed(n.cfg.Seed, "node:retx:"+string(tr.Addr()))
	n.gossipRng = xrand.NewNamed(n.cfg.Seed, "node:gossip:"+string(tr.Addr()))
	n.selectRng = xrand.NewNamed(n.cfg.Seed, "node:select:"+string(tr.Addr()))
	if n.cfg.Trace != nil {
		n.trace = tracing.NewNode(n.cfg.Seed, string(tr.Addr()), n.cfg.Trace)
		n.traceStart = n.now()
	}
	tr.SetHandler(n.onDatagram)
	return n
}

// Addr returns the node's transport address.
func (n *Node) Addr() wire.Addr { return n.transport.Addr() }

// now reads the node's clock.
func (n *Node) now() time.Time { return n.cfg.Clock.Now() }

// Start arms the node's duties on its clock: the join duty (members) or the
// packet clock (sources), the heartbeat, gossip and, when configured, the
// switching check.
func (n *Node) Start() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.stopped {
		return
	}
	if n.cfg.Source {
		n.attached = true
		n.joinedAt = n.now()
		n.every(time.Duration(float64(time.Second)/n.cfg.StreamRate), n.emitPacket)
	} else {
		n.repeat(0, n.joinTick)
	}
	n.every(n.cfg.HeartbeatInterval, n.beat)
	n.every(n.tm.gossipInterval, n.gossip)
	if n.cfg.SwitchInterval > 0 && !n.cfg.Source {
		n.every(n.cfg.SwitchInterval, n.trySwitch)
	}
}

// Stop shuts the node down gracefully: children and parent are notified so
// the overlay heals immediately.
func (n *Node) Stop() { n.end(true) }

// Kill terminates abruptly (no notifications) — the failure case the paper
// studies. Once it returns no duty or timer of the node runs and the node
// sends nothing; the transport is closed.
func (n *Node) Kill() { n.end(false) }

// end stops the node, first sending a Leave to its parent and children when
// leave is set. It closes the transport after releasing mu: closing a UDP
// transport waits for its read loop, which may be waiting for mu.
func (n *Node) end(leave bool) {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return
	}
	if leave {
		if n.attached && n.parent != "" {
			n.send(n.parent, wire.Envelope{Type: wire.TypeLeave})
		}
		for _, c := range n.childList {
			n.send(c, wire.Envelope{Type: wire.TypeLeave})
		}
	}
	n.stopped = true
	n.mu.Unlock()
	_ = n.transport.Close()
}

// Stats snapshots the node: the tree position and table sizes read from its
// state, every counter read from the instruments in n.met. It holds mu, so
// every event an entry point counts appears whole.
func (n *Node) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	m := &n.met
	members, quarantined := n.tableCounts(n.now())
	return Stats{
		Attached:         n.attached,
		Parent:           n.parent,
		Depth:            n.depth,
		Children:         len(n.children),
		HighestPacket:    n.highest,
		KnownMembers:     members,
		QuarantinedPeers: quarantined,
		RetxInflight:     n.inflight,

		PacketsReceived:      m.packetsReceived.Value(),
		PacketsRepaired:      m.packetsRepaired.Value(),
		RepairsServed:        m.repairsServed.Value(),
		Rejoins:              m.rejoins.Value(),
		Failovers:            m.failovers.Value(),
		Switches:             m.switches.Value(),
		ELNsSent:             m.elnSent.Value(),
		PlayedSlots:          m.playedSlots.Value(),
		StarvedSlots:         m.starvedSlots.Value(),
		JoinAttempts:         m.joinAttempts.Value(),
		RepairRequests:       m.repairRequests.Value(),
		RepairsSuppressed:    m.repairSuppressed.Value(),
		Stalls:               m.stalls.Value(),
		StallSeconds:         m.stallSeconds.Value(),
		StallRejoins:         m.stallRejoins.Value(),
		WireRejects:          sum(m.wireRejects),
		CtrlSent:             m.ctrlSent.Value(),
		RetxSent:             m.retxSent.Value(),
		RetxAcked:            m.retxAcked.Value(),
		RetxExpired:          m.retxExpired.Value(),
		RetxOverflow:         m.retxOverflow.Value(),
		RetxDupDrops:         m.retxDupDrops.Value(),
		GuardRateLimited:     m.guardRateLimited.Value(),
		GuardQuarantineDrops: m.guardQuarantineDrops.Value(),
		GuardQuarantines:     m.guardQuarantines.Value(),
		GuardAuditFails:      m.guardAuditFails.Value(),
		GuardImplausible:     sum(m.implausible),
	}
}

// every arms a periodic duty — heartbeat, gossip, the switching check, the
// source's packet clock: tick runs once per interval until the node stops.
func (n *Node) every(interval time.Duration, tick func()) {
	n.repeat(interval, func() time.Duration { tick(); return interval })
}

// repeat is the node's one timer mechanism: tick runs after first, then
// again after each wait it returns, until the node stops. A wait counts from
// the previous deadline, so a fixed one keeps a ticker's fixed rate; a run
// that finds its next deadline past drops the missed ticks, as a ticker does.
// Each run is an entry point.
func (n *Node) repeat(first time.Duration, tick func() time.Duration) {
	at := n.now().Add(first)
	var run func()
	run = func() {
		n.mu.Lock()
		defer n.mu.Unlock()
		if n.stopped {
			return
		}
		at = at.Add(tick())
		now := n.now()
		if at.Before(now) {
			at = now
		}
		n.cfg.Clock.AfterFunc(at.Sub(now), run)
	}
	n.cfg.Clock.AfterFunc(first, run)
}

// send transmits one envelope. Control-class messages go through the
// reliability shim (sequence-numbered, acked, retransmitted — see retx.go)
// unless the peer's in-flight window is full; everything else is
// fire-and-forget.
func (n *Node) send(to wire.Addr, env wire.Envelope) {
	env.From = n.Addr()
	if wire.ControlClass(env.Type) && env.Ctrl == 0 {
		if n.sendReliable(to, env) {
			return
		}
		// In-flight cap reached: demoted to fire-and-forget below.
	}
	data, err := wire.EncodeBinary(env)
	if err != nil {
		return // unencodable envelopes are a programming error; drop
	}
	n.transmit(data, to)
}

// transmit hands the same encoded bytes to the transport once per
// destination, and counts them with one add per counter whatever the number.
func (n *Node) transmit(data []byte, to ...wire.Addr) {
	n.met.txDatagrams.Add(int64(len(to)))
	n.met.txBytes.Add(int64(len(to) * len(data)))
	for _, a := range to {
		_ = n.transport.Send(a, data) // datagram semantics: errors are drops
	}
}

// fanOut sends one data-class envelope (stream packet or ELN) to every
// child: encoded once into fanBuf, the same bytes transmitted to each — the
// Transport.Send contract forbids retaining or mutating them, which is also
// what lets the buffer carry the next packet.
func (n *Node) fanOut(env *wire.Envelope) {
	if len(n.childList) == 0 {
		return
	}
	env.From = n.Addr()
	n.fanBuf = wire.AppendBinary(n.fanBuf[:0], *env)
	n.transmit(n.fanBuf, n.childList...)
}

// outDegree is the node's child capacity.
func (n *Node) outDegree() int {
	if n.cfg.Source {
		if n.cfg.Bandwidth < 1 {
			return 16
		}
	}
	if n.cfg.Bandwidth < 0 {
		return 0
	}
	return int(n.cfg.Bandwidth)
}

// btp returns the node's bandwidth-time product.
func (n *Node) btp() float64 {
	if n.joinedAt.IsZero() {
		return 0
	}
	return n.cfg.Bandwidth * n.now().Sub(n.joinedAt).Seconds()
}

// ---- span tracing ----

// traceAt converts a clock instant to the node's span clock.
func (n *Node) traceAt(now time.Time) time.Duration { return now.Sub(n.traceStart) }

// openEpisode opens a join/rejoin episode span if tracing is on and none is
// already open: kind "join" before the first successful attach, "rejoin"
// after. cause records why the node is hunting for a parent (boot, timeout,
// stall, leave).
func (n *Node) openEpisode(now time.Time, cause string) {
	if n.trace == nil || n.joinSpan != nil {
		return
	}
	kind := tracing.KindRejoin
	if n.joinedAt.IsZero() {
		kind = tracing.KindJoin
	}
	n.joinSpan = n.trace.Start(kind, 0, n.traceAt(now)).Attr("cause", cause)
}

// ---- joining ----

// joinTick is the join duty: it keeps the node attached by discovering
// members and asking the best candidate parent, after a parent failure too.
// It returns the wait before its next run: one heartbeat while attached,
// else the join backoff, which grows (with seeded jitter) while attempts go
// unanswered, so a partitioned node probes gently instead of hammering.
func (n *Node) joinTick() time.Duration {
	if n.attached {
		return n.cfg.HeartbeatInterval
	}
	n.tryJoin()
	d := backoffDelay(n.tm.joinBackoffBase, n.tm.joinBackoffMax, n.joinStreak, n.joinRng)
	n.joinStreak++
	n.met.joinBackoff.Set(d.Seconds())
	return d
}

// backoffDelay is the shared capped-exponential policy: base doubled streak
// times, capped at max, then jittered to [d/2, d) from a deterministic
// per-node stream so retry bursts desynchronise reproducibly.
func backoffDelay(base, max time.Duration, streak int, rng *xrand.Source) time.Duration {
	d := base
	for i := 0; i < streak && d < max; i++ {
		d *= 2
	}
	d = min(d, max)
	return d/2 + rng.UniformDuration(0, d/2)
}

// tryJoin sends a Join to the best-known candidate parent (minimum depth,
// then spare capacity) and seeds discovery from the bootstrap list.
func (n *Node) tryJoin() {
	// The previous attempt went unanswered (no Accept, no Reject): the
	// candidate is dead or unreachable — drop it from the view so we move on.
	if p, ok := n.peers[n.lastJoinTarget]; ok {
		p.inView = false
	}
	n.lastJoinTarget = ""
	var best *wire.MemberInfo
	for _, p := range n.peers {
		if p.inView && p.info.Spare > 0 && (best == nil || betterParent(&p.info, best)) {
			best = &p.info
		}
	}
	if best == nil {
		// Nothing usable known yet: ask the bootstrap members for their
		// views (announcing ourselves in the same datagram).
		for _, b := range n.cfg.Bootstrap {
			n.send(b, n.membershipRequest())
		}
		return
	}
	target := best.Addr
	n.lastJoinTarget = target
	n.met.joinAttempts.Inc()
	now := n.now()
	n.openEpisode(now, "boot")
	if n.attemptSpan != nil {
		// The previous attempt got neither Accept nor Reject before we moved
		// on — the candidate is presumed dead.
		n.attemptSpan.End(n.traceAt(now), "unanswered")
		n.attemptSpan = nil
	}
	if n.joinSpan != nil {
		n.attemptSpan = n.joinSpan.Child(tracing.KindAttempt, 0, n.traceAt(now)).
			Attr("target", string(target))
	}
	n.send(target, wire.Envelope{Type: wire.TypeJoin, Bandwidth: n.cfg.Bandwidth})
}

// betterParent orders join candidates: minimum depth, then most spare
// capacity, then lowest address, a total order over view entries.
func betterParent(a, b *wire.MemberInfo) bool {
	if a.Depth != b.Depth {
		return a.Depth < b.Depth
	}
	if a.Spare != b.Spare {
		return a.Spare > b.Spare
	}
	return a.Addr < b.Addr
}

func (n *Node) handleJoin(env wire.Envelope) {
	now := n.now()
	if n.attached && !n.swLock.held(now) && len(n.children) < n.outDegree() && env.From != n.parent {
		n.addChild(env.From, now)
		n.send(env.From, wire.Envelope{Type: wire.TypeAccept, Depth: n.depth})
	} else {
		n.send(env.From, wire.Envelope{Type: wire.TypeReject})
	}
}

// handleReject invalidates the rejecting member's cached spare capacity so
// the next join attempt moves on instead of hammering a full parent with
// stale gossip data.
func (n *Node) handleReject(env wire.Envelope) {
	if p, ok := n.peers[env.From]; ok {
		p.info.Spare = 0
	}
	if n.lastJoinTarget == env.From {
		n.lastJoinTarget = "" // answered: alive, just full
		if n.attemptSpan != nil {
			n.attemptSpan.End(n.traceAt(n.now()), "rejected")
			n.attemptSpan = nil
		}
	}
}

func (n *Node) handleAccept(env wire.Envelope) {
	if n.attached || n.cfg.Source {
		// Duplicate accept (we joined elsewhere meanwhile): we simply never
		// heartbeat this parent; it will drop us.
		return
	}
	n.attached = true
	n.parent = env.From
	n.parentSeen = n.now()
	n.attachedAt = n.parentSeen
	n.depth = env.Depth + 1
	if n.failingOver {
		n.failingOver = false
		n.met.failovers.Inc()
	}
	n.met.attached.Set(1)
	n.met.depth.Set(float64(n.depth))
	n.lastJoinTarget = ""
	n.joinStreak = 0
	n.met.joinBackoff.Set(0)
	at := n.traceAt(n.parentSeen)
	if n.attemptSpan != nil {
		n.attemptSpan.End(at, "accepted")
		n.attemptSpan = nil
	}
	if n.joinSpan != nil {
		outcome := "reattached"
		if n.joinedAt.IsZero() {
			outcome = "attached"
		}
		n.joinSpan.AttrInt("depth", int64(n.depth)).Attr("parent", string(env.From)).
			End(at, outcome)
		n.joinSpan = nil
	}
	if n.joinedAt.IsZero() {
		n.joinedAt = n.now()
	}
}

// ---- heartbeats & failure detection ----

// beat is the heartbeat tick: expire silent neighbours, run the stall
// watchdog, score playback, retry gated repairs and greet every neighbour.
func (n *Node) beat() {
	n.seq++
	parent := wire.Addr("")
	if n.attached && !n.cfg.Source {
		parent = n.parent
	}
	var deadChildren []wire.Addr
	now := n.now()
	for _, c := range n.childList {
		if now.Sub(n.children[c]) > n.tm.heartbeatTimeout {
			deadChildren = append(deadChildren, c)
		}
	}
	for _, c := range deadChildren {
		n.dropChild(c)
	}
	parentDead := parent != "" && now.Sub(n.parentSeen) > n.tm.heartbeatTimeout
	// Stream-stall watchdog: a parent can be alive (heartbeating) yet cut off
	// from the stream — e.g. after a source partition the orphans re-attach to
	// each other and the re-formed tree is not rooted at the source, so
	// heartbeats keep flowing while playback starves forever. Going
	// stallRejoinAfter attached without accepting a packet treats the parent
	// as failed, so the node hunts for a stream-bearing position.
	streamStalled := false
	if !parentDead && parent != "" && n.streamSeen {
		ref := n.lastStream
		if n.attachedAt.After(ref) {
			ref = n.attachedAt
		}
		if now.Sub(ref) > n.tm.stallRejoinAfter {
			streamStalled = true
			n.met.stallRejoins.Inc()
		}
	}
	btp := n.btp()
	n.advancePlayback(now)
	n.met.childTimeouts.Add(int64(len(deadChildren)))
	n.met.attached.Set(boolGauge(n.attached))
	n.met.children.Set(float64(len(n.children)))
	members, quarantined := n.tableCounts(now)
	n.met.knownMembers.Set(float64(members))
	n.met.quarantinedPeers.Set(float64(quarantined))

	if parentDead {
		n.met.parentTimeouts.Inc()
		n.onParentFailure("timeout")
		parent = ""
	} else if streamStalled {
		n.onParentFailure("stall")
		parent = ""
	}
	n.flushRepairs(now)
	n.met.depth.Set(float64(n.depth))
	hb := wire.Envelope{Type: wire.TypeHeartbeat, Seq: n.seq, BTP: btp, Bandwidth: n.cfg.Bandwidth, Depth: n.depth}
	if parent != "" {
		n.met.heartbeatsSent.Inc()
		n.send(parent, hb)
	}
	for _, c := range n.childList {
		n.met.heartbeatsSent.Inc()
		n.send(c, hb)
	}
}

// boolGauge maps a bool to the 0/1 convention Prometheus gauges use.
func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// advancePlayback scores every playout slot whose deadline has passed:
// present packets count as played, absent ones as starved.
func (n *Node) advancePlayback(now time.Time) {
	if n.playFirst < 0 || now.Before(n.playStart) {
		return
	}
	due := n.playFirst + int64(now.Sub(n.playStart).Seconds()*n.cfg.StreamRate)
	for seq := n.playChecked + 1; seq <= due; seq++ {
		if _, ok := n.buffered(seq); ok {
			n.met.playedSlots.Inc()
			// A present slot ends any stall: playback resumed.
			n.inStall = false
			if n.stallSpan != nil {
				n.stallSpan.AttrInt("slots", n.met.starvedSlots.Value()-n.stallBase).
					End(n.traceAt(now), "resumed")
				n.stallSpan = nil
			}
		} else {
			n.met.starvedSlots.Inc()
			// Consecutive starved slots are one stall; each contributes one
			// slot-time of stalled playback.
			if !n.inStall {
				n.inStall = true
				n.met.stalls.Inc()
				if n.trace != nil && n.stallSpan == nil {
					n.stallSpan = n.trace.Start(tracing.KindStall, 0, n.traceAt(now))
					n.stallBase = n.met.starvedSlots.Value() - 1
				}
			}
			n.met.stallSeconds.Set(n.met.stallSeconds.Value() + 1/n.cfg.StreamRate)
		}
		n.playChecked = seq
	}
}

func (n *Node) handleHeartbeat(env wire.Envelope) {
	now := n.now()
	if env.From == n.parent {
		n.parentSeen, n.parentBTP, n.parentBW = now, env.BTP, env.Bandwidth
		// Depths drift after switches; the parent's heartbeat is the truth.
		n.depth = env.Depth + 1
		return
	}
	if _, ok := n.children[env.From]; ok {
		n.children[env.From] = now
	}
}

// onParentFailure detaches, launches CER recovery for the in-flight gap and
// lets joinTick find a new parent. cause labels the rejoin episode span
// ("timeout" for missed heartbeats, "stall" for the stream watchdog).
func (n *Node) onParentFailure(cause string) {
	n.detach(cause)
	first := n.highest + 1
	// Ask the recovery group for everything from the gap start; the range
	// end is open-ended — estimated as one detection window of packets.
	last := first + int64(n.cfg.StreamRate*n.tm.heartbeatTimeout.Seconds()) + 1
	n.recoverGap(first, last)
}

// detach gives up the tree position involuntarily and opens the rejoin
// episode labelled cause; the next successful attach counts as a failover.
func (n *Node) detach(cause string) {
	n.attached = false
	n.parent = ""
	n.failingOver = true
	n.met.rejoins.Inc()
	n.met.attached.Set(0)
	// A fresh detachment restarts the join backoff so recovery begins at
	// base cadence rather than wherever the last outage left the streak.
	n.joinStreak = 0
	n.openEpisode(n.now(), cause)
}

func (n *Node) handleLeave(env wire.Envelope) {
	n.dropChild(env.From)
	if env.From == n.parent && n.attached {
		n.detach("leave")
	}
	// A graceful leave needs no loss recovery: the stream stops cleanly and
	// resumes after the rejoin; repair fills whatever the rejoin gap misses.
}

// ---- streaming ----

// emitPacket generates the source's next packet.
func (n *Node) emitPacket() {
	seq := n.highest + 1
	n.store(seq, nil)
	n.fanOut(&wire.Envelope{Type: wire.TypePacket, Packet: seq})
}

// jumpResyncStreak is how many consecutive implausible-jump packets from the
// attached parent it takes to accept the discontinuity as a genuine stream
// resync (e.g. rejoining after an outage longer than the plausibility
// window) rather than a forgery.
const jumpResyncStreak = 16

// packetReject is the handler-boundary sanity check for stream/repair data:
// wire-valid packets can still be contextually absurd — stream data at the
// source, stream packets from a non-parent while attached (the stream has
// exactly one upstream), or sequence numbers so far from the local head
// that accepting them would wipe the repair buffer and wreck the playback
// clock. Returns the implausible-kind token, or "" to accept.
func (n *Node) packetReject(env *wire.Envelope, repaired bool) string {
	if n.cfg.Source {
		// The origin never ingests stream or repair data; a forged packet
		// here would poison the buffer every downstream repair draws from.
		return "packet-at-source"
	}
	fromParent := n.attached && env.From == n.parent
	if !repaired && n.attached && !fromParent {
		return "packet-not-parent"
	}
	span := n.tm.plausibleSpan
	if n.streamSeen && env.Packet > n.highest+span {
		if fromParent && !repaired {
			// The parent itself is consistently ahead of us: after enough
			// consecutive jumps this is a real discontinuity, not a stray
			// corruption — resynchronise to the parent's head.
			n.jumpStreak++
			if n.jumpStreak >= jumpResyncStreak {
				n.jumpStreak = 0
				return ""
			}
		}
		return "packet-jump"
	}
	if repaired && n.streamSeen && env.Packet < n.highest-span {
		return "packet-jump" // below any window we could have requested
	}
	if fromParent && !repaired {
		n.jumpStreak = 0
	}
	return ""
}

// acceptPacket is a stream or repair packet's whole handling: sanity check,
// duplicate check, store, playback and stall bookkeeping, the forward to
// every child and recovery of the gap the packet reveals. now is the
// datagram's one clock reading. It reports whether the packet was accepted.
func (n *Node) acceptPacket(env *wire.Envelope, repaired bool, now time.Time) bool {
	if kind := n.packetReject(env, repaired); kind != "" {
		n.met.implausible[kind].Inc()
		return false
	}
	if _, dup := n.buffered(env.Packet); dup {
		n.met.packetsDuplicate.Inc()
		return false
	}
	n.met.packetsReceived.Inc()
	n.streamSeen = true
	n.lastStream = now
	if repaired {
		n.met.packetsRepaired.Inc()
		// Repair data flowing again: relax the backoff gate.
		n.repairStreak = 0
		if n.repairSpan != nil {
			n.repairSpan.AttrInt("packet", env.Packet).
				End(n.traceAt(now), "repaired")
			n.repairSpan = nil
		}
	}
	if n.playFirst < 0 {
		// Playback starts one buffering interval after the first packet.
		n.playFirst = env.Packet
		n.playChecked = env.Packet - 1
		n.playStart = now.Add(n.cfg.PlaybackBuffer)
	}
	var gapFirst, gapLast int64 = 0, -1 // empty unless the packet skips ahead
	if env.Packet > n.highest+1 && n.highest >= 0 {
		gapFirst, gapLast = n.highest+1, env.Packet-1
		// Skip ranges an upstream ELN already covers.
		if gapFirst <= n.upstreamRepair {
			gapFirst = n.upstreamRepair + 1
		}
	}
	n.store(env.Packet, env.Payload)
	n.met.packetsForwarded.Add(int64(len(n.childList)))
	n.fanOut(&wire.Envelope{Type: wire.TypePacket, Packet: env.Packet, Payload: env.Payload})
	n.recoverGap(gapFirst, gapLast)
	return true
}

// ---- repair pacing ----

// recoverGap merges a detected loss range into the pending-repair window and
// flushes it through the backoff gate: at most one striped request (and its
// ELN) leaves per jittered interval, so a burst of gap detections — a
// partition healing, a lossy parent — collapses into a bounded request
// stream instead of a storm. Gated detections are counted as suppressed.
func (n *Node) recoverGap(first, last int64) {
	if last < first {
		return
	}
	now := n.now()
	if n.pendFirst < 0 {
		n.pendFirst, n.pendLast = first, last
	} else {
		n.pendFirst, n.pendLast = min(n.pendFirst, first), max(n.pendLast, last)
	}
	if now.Before(n.repairNextAt) {
		n.met.repairSuppressed.Inc()
		return
	}
	n.flushRepairs(now)
}

// takeRepair drains the pending window if the backoff gate is open,
// advancing the gate and streak. It returns ok=false when nothing is
// pending, the gate is closed, or the window fell out of the buffer.
func (n *Node) takeRepair(now time.Time) (int64, int64, bool) {
	if n.pendFirst < 0 || now.Before(n.repairNextAt) {
		return 0, 0, false
	}
	// Discard sub-ranges too old to live in anyone's repair buffer.
	first, last := max(n.pendFirst, n.highest-int64(n.cfg.BufferPackets)), n.pendLast
	n.pendFirst, n.pendLast = -1, -1
	if last < first {
		return 0, 0, false
	}
	last = min(last, first+int64(n.cfg.BufferPackets)-1) // one buffer's worth
	d := backoffDelay(n.tm.repairBackoffBase, n.tm.repairBackoffMax, n.repairStreak, n.repairRng)
	n.repairStreak++
	n.repairNextAt = now.Add(d)
	n.met.repairRequests.Inc()
	n.met.repairBackoff.Set(d.Seconds())
	if n.trace != nil {
		// The span measures request → first repair data (the live repair
		// round-trip). A re-request superseding an unanswered one closes it.
		if n.repairSpan != nil {
			n.repairSpan.End(n.traceAt(now), "unanswered")
		}
		n.repairSpan = n.trace.Start(tracing.KindRepair, 0, n.traceAt(now)).
			AttrInt("first", first).AttrInt("last", last)
	}
	return first, last, true
}

// flushRepairs drains the pending window through the gate: one striped
// request to the recovery group plus the ELN telling the subtree the range is
// in hand. recoverGap calls it on detection; the heartbeat loop calls it
// again once the gate reopens (gap detections that arrived while gated would
// otherwise never be requested).
func (n *Node) flushRepairs(now time.Time) {
	if first, last, ok := n.takeRepair(now); ok {
		n.requestRepair(first, last)
		n.notifyELN(first, last)
	}
}

// ---- ELN & repair (CER) ----

// notifyELN tells the subtree that the given range is being repaired
// upstream, so descendants do not issue duplicate requests.
func (n *Node) notifyELN(first, last int64) {
	n.met.elnSent.Add(int64(len(n.childList)))
	n.fanOut(&wire.Envelope{Type: wire.TypeELN, FirstMissing: first, LastMissing: last})
}

func (n *Node) handleELN(env wire.Envelope) {
	if env.From != n.parent {
		return
	}
	// Plausibility clamp: an ELN claims upstream recovery for a range, and a
	// forged LastMissing far beyond the stream head would suppress our own
	// repair requests forever. Once we have seen stream data, ignore claims
	// implausibly far ahead of it.
	if n.streamSeen && env.LastMissing > n.highest+n.tm.plausibleSpan {
		n.met.implausible["eln-range"].Inc()
		return
	}
	n.upstreamRepair = max(n.upstreamRepair, env.LastMissing)
	// Propagate downstream.
	n.fanOut(&wire.Envelope{Type: wire.TypeELN, FirstMissing: env.FirstMissing, LastMissing: env.LastMissing})
}

// requestRepair sends a striped CER request down the recovery group's chain.
func (n *Node) requestRepair(first, last int64) {
	if group := n.recoveryGroup(); len(group) > 0 {
		n.send(group[0], wire.Envelope{Type: wire.TypeRepairRequest, FirstMissing: first, LastMissing: last, Chain: group[1:]})
	}
}

// recoveryGroup picks up to K recovery members with Algorithm 1 (§4.1), the
// simulator's cer.MLC, on the partial tree of self's path and the view's
// (groupScratch), sampling the view in viewOrder. Algorithm 1 excludes self's
// ancestors and descendants. Banned too are the parent, quarantined peers
// (should anything put one back in the view), stale ones (they may be dead,
// wasting a whole stripe) and addresses out of the view. The group keeps
// Algorithm 1's order: there is no delay estimate to order it by.
func (n *Node) recoveryGroup() []wire.Addr {
	g, now := &n.group, n.now()
	clear(g.index)
	g.addrs, g.parent, g.depth, g.keep = append(g.addrs[:0], ""), append(g.parent[:0], -1), append(g.depth[:0], 0), append(g.keep[:0], false)
	self := g.enter(n.ancestors, n.Addr())
	g.sample = g.sample[:0]
	for _, p := range n.orderedView(len(n.peers)) {
		i := g.enter(p.info.Ancestors, p.info.Addr)
		g.sample = append(g.sample, i)
		g.keep[i] = p.info.Addr != n.parent && !p.quarantined(now) && now.Sub(p.seen) <= n.tm.memberStaleAfter
	}
	g.mlc.Reset(g.parent, g.depth, 0, self)
	for i, keep := range g.keep {
		if !keep {
			g.mlc.Ban(int32(i))
		}
	}
	var out []wire.Addr
	for _, i := range g.mlc.Group(g.sample, n.cfg.RecoveryGroup, n.selectRng) {
		out = append(out, g.addrs[i])
	}
	return out
}

// groupScratch is recoveryGroup's reusable partial tree: an index per address
// on the view and its paths (index maps it, addrs back) with parent and depth.
// Index 0 is a virtual root above every path's top, so an empty or truncated
// path still has a place. keep marks the in-view entries that may serve.
type groupScratch struct {
	index         map[wire.Addr]int32
	addrs         []wire.Addr
	parent, depth []int32
	keep          []bool
	sample        []int32
	mlc           cer.MLC
}

// enter indexes path (nearest ancestor first) from the top down, then addr,
// and returns addr's index. A new address goes below the one before it; one
// already indexed keeps the parent its first path gave it, so stale or
// contradictory paths only ever add leaves, never a cycle.
func (g *groupScratch) enter(path []wire.Addr, addr wire.Addr) int32 {
	at := int32(0)
	for i := len(path); i >= 0; i-- {
		a := addr
		if i > 0 {
			a = path[i-1]
		}
		j, ok := g.index[a]
		if !ok {
			j = int32(len(g.addrs))
			g.index[a] = j
			g.addrs, g.keep = append(g.addrs, a), append(g.keep, false)
			g.parent, g.depth = append(g.parent, at), append(g.depth, g.depth[at]+1)
		}
		at = j
	}
	return at
}

// handleRepairRequest serves the packets it has (its epsilon share of the
// stripe space) and forwards the remainder along the chain.
func (n *Node) handleRepairRequest(env wire.Envelope) {
	// Handler-boundary re-check: Decode already rejects inverted, negative
	// and over-wide ranges, but this handler walks the range — it must never
	// trust its bounds, whatever path the envelope took in.
	if env.FirstMissing < 0 || env.LastMissing < env.FirstMissing ||
		env.LastMissing-env.FirstMissing+1 > wire.MaxRepairSpan {
		n.met.implausible["repair-range"].Inc()
		return
	}
	requester := env.Requester
	if requester == "" {
		requester = env.From
	}
	share := 1.0 / float64(n.cfg.RecoveryGroup) // static residual-share model
	lo, hi := env.Epsilon, env.Epsilon+share
	// Clamp the scan to the window the buffer can actually serve, so the
	// walk is bounded by BufferPackets no matter what range was requested.
	first := max(env.FirstMissing, n.highest-int64(n.cfg.BufferPackets))
	last := min(env.LastMissing, n.highest)
	for seq := first; seq <= last; seq++ {
		if cer.InStripe(seq, lo, hi) {
			if payload, ok := n.buffered(seq); ok {
				n.met.repairsServed.Inc()
				n.send(requester, wire.Envelope{Type: wire.TypeRepairData, Packet: seq, Payload: payload})
			}
		}
	}
	// NACK-chain forwarding: the next node covers the next stripe slice.
	if len(env.Chain) > 0 && hi < 1 {
		n.send(env.Chain[0], wire.Envelope{Type: wire.TypeRepairRequest, Requester: requester,
			FirstMissing: env.FirstMissing, LastMissing: env.LastMissing, Chain: env.Chain[1:], Epsilon: hi})
	}
}

// ---- membership gossip ----

// gossip is one membership round: push-pull with a random known member.
func (n *Node) gossip() {
	if target := n.gossipTarget(); target != "" {
		n.met.gossipSent.Inc()
		n.send(target, n.membershipRequest())
	}
	n.refreshAncestors()
}

// membershipRequest pulls a view and pushes a handful of our entries.
func (n *Node) membershipRequest() wire.Envelope {
	return wire.Envelope{Type: wire.TypeMembershipRequest, Limit: n.tm.membershipLimit, Members: n.viewSample(9)}
}

// viewSample returns up to limit member records: our own (when we hold a
// tree position) first, then the view's first entries in viewOrder.
func (n *Node) viewSample(limit int) []wire.MemberInfo {
	out := make([]wire.MemberInfo, 0, limit)
	if n.attached || n.cfg.Source {
		out = append(out, n.selfInfo())
	}
	for _, p := range n.orderedView(max(limit-len(out), 0)) {
		out = append(out, p.info)
	}
	return out
}

// orderedView returns the view's first k records in viewOrder. Only those
// are sorted: a selection finds them first.
func (n *Node) orderedView(k int) []*peerRecord {
	view := n.viewRecords()
	if k < len(view) {
		selectView(view, k) // the k records before view[k] are the first k
		view = view[:k]
	}
	slices.SortFunc(view, viewOrder)
	return view
}

// viewRecords returns the records in the view, in no particular order.
func (n *Node) viewRecords() []*peerRecord {
	view := make([]*peerRecord, 0, len(n.peers))
	for _, p := range n.peers {
		view = append(view, p)
	}
	return slices.DeleteFunc(view, func(p *peerRecord) bool { return !p.inView })
}

// viewOrder is the order view entries are sent and drawn in: most recently
// seen first, then by address (a record's info.Addr is its key), so it is
// total.
func viewOrder(a, b *peerRecord) int {
	if c := b.seen.Compare(a.seen); c != 0 {
		return c
	}
	return cmp.Compare(a.info.Addr, b.info.Addr)
}

// selectView reorders view so that view[k] is the record sorted position k
// would hold under viewOrder and every record before it precedes it, and
// returns view[k]: a quickselect, linear on average where a sort is not.
// viewOrder is total, so the answer does not depend on the input order.
func selectView(view []*peerRecord, k int) *peerRecord {
	lo, hi := 0, len(view)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		view[mid], view[hi] = view[hi], view[mid]
		pivot, i := view[hi], lo
		for j := lo; j < hi; j++ {
			if viewOrder(view[j], pivot) < 0 {
				view[i], view[j] = view[j], view[i]
				i++
			}
		}
		view[i], view[hi] = view[hi], view[i]
		switch {
		case k < i:
			hi = i - 1
		case k > i:
			lo = i + 1
		default:
			return view[i]
		}
	}
	return view[k]
}

// gossipTarget draws the gossip partner uniformly from the view, in
// viewOrder, from the node's seeded gossip stream; with an empty view it is
// the first bootstrap member.
func (n *Node) gossipTarget() wire.Addr {
	if view := n.viewRecords(); len(view) > 0 {
		return selectView(view, n.gossipRng.Intn(len(view))).info.Addr
	}
	if len(n.cfg.Bootstrap) > 0 {
		return n.cfg.Bootstrap[0]
	}
	return ""
}

// refreshAncestors asks the parent chain implicitly: the node's own ancestor
// list is parent + parent's advertised ancestors from gossip.
func (n *Node) refreshAncestors() {
	if !n.attached || n.cfg.Source {
		n.ancestors = nil
		return
	}
	anc := []wire.Addr{n.parent}
	if p, ok := n.peers[n.parent]; ok && p.inView {
		anc = append(anc, p.info.Ancestors...)
	}
	n.ancestors = anc[:min(len(anc), 16)]
}

func (n *Node) selfInfo() wire.MemberInfo {
	return wire.MemberInfo{
		Addr:      n.Addr(),
		Depth:     n.depth,
		Spare:     n.outDegree() - len(n.children),
		Bandwidth: n.cfg.Bandwidth,
		Ancestors: append([]wire.Addr(nil), n.ancestors...),
	}
}

func (n *Node) handleMembershipRequest(env wire.Envelope) {
	// Push-pull: the request carries the requester's own view (at least its
	// self record), so knowledge spreads in both directions — without this
	// the bootstrap member would never learn the overlay exists.
	n.mergeMembers(env.From, env.Members)
	limit := env.Limit
	if limit <= 0 || limit > n.tm.membershipLimit {
		limit = n.tm.membershipLimit
	}
	n.send(env.From, wire.Envelope{Type: wire.TypeMembershipReply, Members: n.viewSample(limit)})
}

// mergeMembers folds gossip entries into the view: first-hand entries (the
// sender describing itself) always win; second-hand copies fill gaps only —
// stale relays must not clobber live capacity data. An entry takes a peer
// record like any datagram does, so the table's one cap bounds the view.
func (n *Node) mergeMembers(from wire.Addr, members []wire.MemberInfo) {
	now := n.now()
	for _, info := range members {
		if info.Addr == n.Addr() {
			continue
		}
		p := n.peer(info.Addr, now)
		// Gossip must not re-introduce a quarantined peer (third parties keep
		// relaying it until their own guards convict).
		if p == nil || p.quarantined(now) {
			continue
		}
		if info.Addr == from || !p.inView {
			p.info, p.inView, p.seen = info, true, now
		}
	}
}

// ---- ROST switching ----

// trySwitch runs one switching check: a node that has outgrown its parent
// (rost.ShouldSwitch on the parent's last heartbeat) takes the switch lock
// and proposes to trade places with it.
func (n *Node) trySwitch() {
	now := n.now()
	btp := n.btp()
	if n.attached && !n.swLock.held(now) && n.parent != "" &&
		n.parentBW > 0 && // a heartbeat told us the parent's properties
		rost.ShouldSwitch(n.cfg.Bandwidth, btp, n.parentBW, n.parentBTP) &&
		n.depth > 1 { // never displace the source
		n.swLock = switchLock{peer: n.parent, until: now.Add(n.tm.switchLockFor)}
		n.send(n.parent, wire.Envelope{Type: wire.TypeSwitchPropose, BTP: btp})
	}
}

// handleSwitchPropose runs on the parent: re-validate and accept. It
// re-checks only the half of rost.ShouldSwitch that moves with time, the
// BTP: the initiator checked the bandwidth half against the bandwidth this
// node's own heartbeats announce, which never changes, and a bandwidth the
// propose carried would be the proposer's own claim, so re-checking it
// would add no safety.
func (n *Node) handleSwitchPropose(env wire.Envelope) {
	now := n.now()
	_, isChild := n.children[env.From]
	if !isChild || !n.attached || n.swLock.held(now) || n.cfg.Source || !(env.BTP > n.btp()) {
		n.send(env.From, wire.Envelope{Type: wire.TypeSwitchReject})
		return
	}
	n.swLock = switchLock{peer: env.From, until: now.Add(n.tm.switchLockFor)}
	n.send(env.From, wire.Envelope{Type: wire.TypeSwitchAccept, NewParent: n.parent})
}

// handleSwitchAccept runs on the initiator: commit the exchange it holds the
// lock for. An accept from anyone else, or one arriving past the deadline,
// answers no exchange this node still has open and is ignored.
func (n *Node) handleSwitchAccept(env wire.Envelope) {
	now := n.now()
	if env.From != n.swLock.peer || !n.swLock.held(now) {
		return
	}
	n.swLock = switchLock{}
	if env.From != n.parent || env.NewParent == "" {
		return
	}
	oldParent := n.parent
	grandparent := env.NewParent
	// Re-point: we take the parent's position.
	n.parent, n.parentSeen, n.parentBTP, n.parentBW = grandparent, now, 0, 0
	n.depth-- // we move one layer up
	// The old parent becomes our child.
	n.addChild(oldParent, now)
	// Capacity overflow: hand our most recently attached other child to the
	// old parent (it just freed the slot we occupied).
	var demoted wire.Addr
	if len(n.children) > n.outDegree() {
		for i := len(n.childList) - 1; i >= 0; i-- {
			if c := n.childList[i]; c != oldParent {
				demoted = c
				break
			}
		}
		n.dropChild(demoted)
	}
	n.met.switches.Inc()

	// Tell the grandparent to swap its child pointer, the old parent to
	// demote itself, and the displaced child where to go.
	n.send(grandparent, wire.Envelope{Type: wire.TypeSwitchCommit, Chain: []wire.Addr{oldParent}})
	n.send(oldParent, wire.Envelope{Type: wire.TypeSwitchCommit, NewParent: n.Addr()})
	if demoted != "" {
		n.send(demoted, wire.Envelope{Type: wire.TypeSwitchCommit, NewParent: oldParent})
	}
}

// handleSwitchCommit adjusts links after an exchange. Three shapes:
//   - at the grandparent: Chain[0] names the child being replaced by From;
//   - at the demoted parent: NewParent names its new parent (the initiator);
//   - at a displaced grandchild: NewParent names where to re-join.
func (n *Node) handleSwitchCommit(env wire.Envelope) {
	if len(env.Chain) == 1 {
		// Grandparent: replace the child entry.
		old := env.Chain[0]
		if _, ok := n.children[old]; ok {
			n.dropChild(old)
			n.addChild(env.From, n.now())
		}
		return
	}
	if env.NewParent == n.Addr() {
		return
	}
	if env.NewParent == "" {
		// No valid shape: a commit naming neither a replaced child nor a new
		// parent would re-point us at the empty address — attached with no
		// parent, a one-datagram orphaning. Forged or corrupt; drop it.
		n.met.implausible["switch-shape"].Inc()
		return
	}
	// Demoted parent or displaced grandchild: re-point to NewParent.
	n.parent, n.parentSeen, n.parentBTP, n.parentBW = env.NewParent, n.now(), 0, 0
	n.depth++ // one layer down (approximate; gossip refreshes it)
	n.dropChild(env.NewParent)
	n.swLock.release(env.From)
	// Greet the new parent so it knows us (idempotent join-as-child).
	n.send(env.NewParent, wire.Envelope{Type: wire.TypeJoin, Bandwidth: n.cfg.Bandwidth})
}

// ---- dispatch ----

// onDatagram is the transport handler, an entry point.
func (n *Node) onDatagram(data []byte) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.stopped {
		return
	}
	n.met.rxDatagrams.Inc()
	n.met.rxBytes.Add(int64(len(data)))
	var env wire.Envelope
	if err := wire.DecodeBinaryWith(&env, data, n.senders); err != nil {
		// Malformed or semantically invalid: drop, count by reason, and —
		// when the envelope parsed far enough to name a sender — charge the
		// claimed sender's misbehavior score.
		n.met.wireRejects[wire.Reason(err)].Inc()
		n.noteWireReject(env.From)
		return
	}
	// One clock reading and one peer-table lookup cover admission, the
	// sender's freshness, control dedup and, for stream and repair data, the
	// packet itself.
	now := n.now()
	p := n.guardAdmit(&env, now)
	if p == nil {
		return // rate-limited, quarantined or audit-failed
	}
	if env.Type == wire.TypePacket || env.Type == wire.TypeRepairData {
		n.acceptPacket(&env, env.Type == wire.TypeRepairData, now)
		return
	}
	// Reliable control delivery: always (re-)ack a tagged message — the
	// sender retransmits until an ack survives the network — but hand only
	// the first copy to its handler.
	if env.Ctrl != 0 && env.Type != wire.TypeAck {
		dup := p.ctrlSeen(env.Ctrl)
		n.send(env.From, wire.Envelope{Type: wire.TypeAck, Ctrl: env.Ctrl})
		if dup {
			n.met.retxDupDrops.Inc()
			return
		}
	}
	switch env.Type {
	case wire.TypeJoin:
		n.handleJoin(env)
	case wire.TypeAccept:
		n.handleAccept(env)
	case wire.TypeReject:
		n.handleReject(env)
	case wire.TypeLeave:
		n.handleLeave(env)
	case wire.TypeHeartbeat:
		n.handleHeartbeat(env)
	case wire.TypeELN:
		n.handleELN(env)
	case wire.TypeRepairRequest:
		n.handleRepairRequest(env)
	case wire.TypeMembershipRequest:
		n.handleMembershipRequest(env)
	case wire.TypeMembershipReply:
		n.mergeMembers(env.From, env.Members)
	case wire.TypeSwitchPropose:
		n.handleSwitchPropose(env)
	case wire.TypeSwitchAccept:
		n.handleSwitchAccept(env)
	case wire.TypeSwitchReject:
		n.swLock.release(env.From)
	case wire.TypeSwitchCommit:
		n.handleSwitchCommit(env)
	case wire.TypeAck:
		n.handleAck(env)
	}
}

// String renders a debug summary.
func (n *Node) String() string {
	s := n.Stats()
	return fmt.Sprintf("node(%s depth=%d children=%d highest=%d)", n.Addr(), s.Depth, s.Children, s.HighestPacket)
}
