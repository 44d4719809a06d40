package node

import (
	"time"

	"omcast/internal/wire"
)

// The guard layer is the node's per-peer misbehavior defense, and the
// repository's only answer to the paper's Section 3.4 threat of members that
// inflate their claimed bandwidth-time products. Wire validation
// (internal/wire) rejects envelopes no honest node could send; the guard
// decides what to do about the *sender*. Its state is part of the sender's
// record in the one peer table (peers.go), so it is bounded and evicted with
// the view entry and retransmit windows, by peer's one rule — which
// keeps quarantined records until nothing else is left to evict:
//
//   - every peer carries a misbehavior score that decays linearly over time;
//     malformed datagrams, validation rejects, request floods and implausible
//     BTP claims add points;
//   - request-type messages (Join, RepairRequest, MembershipRequest — the
//     ones a peer can use to make us do work) pass through a per-peer token
//     bucket; over-rate requests are dropped and scored;
//   - BTP claims on heartbeats and switch proposes are audited against the
//     peer's own earlier claims: a bandwidth-time product can only grow as
//     fast as the claimed bandwidth allows (delta <= bw * dt * slack + grace);
//   - a peer whose score crosses the threshold is quarantined: all of its
//     datagrams are dropped unacked, it leaves the view and the children (and
//     the tree position, if it was the parent), is excluded from CER
//     recovery-group selection, and gossip about it is ignored until the
//     quarantine expires.
//
// Known residual: a peer that lies about its BTP *consistently from birth*
// (constant inflation factor baked into every claim) keeps a self-consistent
// trajectory and passes the delta audit. Catching that requires comparing
// claims against independently observed forwarding throughput over long
// windows, which the paper's bandwidth witnesses do and nothing here
// models; DESIGN.md §11 records the gap.

// Guard scoring constants: points per offense and the offense vocabulary.
const (
	// scoreWireReject is charged when a peer's datagram fails wire
	// validation (parseable enough to attribute).
	scoreWireReject = 4
	// scoreRateLimited is charged per request dropped by the token bucket.
	scoreRateLimited = 1
	// scoreAuditFail is charged when a BTP claim outruns the peer's own
	// claimed bandwidth.
	scoreAuditFail = 6
	// scoreDecay is the linear decay of a peer's score, in points per second.
	scoreDecay = 1
	// auditSlack scales the BTP growth the audit allows between two claims
	// (delta <= bandwidth * dt * auditSlack + grace).
	auditSlack = 2
)

// decayScore applies the linear score decay up to now.
func (p *peerRecord) decayScore(rate float64, now time.Time) {
	if dt := now.Sub(p.scoreAt).Seconds(); dt > 0 {
		p.score -= rate * dt
		if p.score < 0 {
			p.score = 0
		}
	}
	p.scoreAt = now
}

// noteMisbehavior charges points against a peer and quarantines it when the
// decayed score crosses the threshold: the peer leaves the view and the
// child set so it stops influencing CER selection and the tree, and a
// quarantined parent is a failed one.
func (n *Node) noteMisbehavior(addr wire.Addr, p *peerRecord, points float64, now time.Time) {
	p.decayScore(scoreDecay, now)
	p.score += points
	if p.score < n.tm.quarantineScore || p.quarantined(now) {
		return
	}
	p.quarantinedUntil = now.Add(n.tm.quarantine)
	p.score = 0 // the sentence restarts the account
	n.met.guardQuarantines.Inc()
	p.inView = false
	n.dropChild(addr)
	if n.attached && addr == n.parent {
		n.onParentFailure("quarantine")
	}
}

// guardTypeIsRequest reports whether a message type asks us to do work on
// the sender's behalf — the types the token bucket meters. Stream, repair
// data and handshake replies are deliberately exempt: rate-limiting the
// stream would turn the guard itself into a loss source.
func guardTypeIsRequest(t wire.Type) bool {
	switch t {
	case wire.TypeJoin, wire.TypeRepairRequest, wire.TypeMembershipRequest:
		return true
	}
	return false
}

// guardAdmit is the per-datagram admission decision for a decoded,
// wire-valid envelope: the sender's record (created if new) and its
// freshness, then quarantine drop, request rate limit, BTP audit. It returns
// the sender's record, or nil when the datagram must not reach its handler.
func (n *Node) guardAdmit(env *wire.Envelope, now time.Time) *peerRecord {
	p := n.peer(env.From, now)
	if p == nil {
		// The table holds only the parent and children: a stranger has no
		// bucket to draw from.
		n.met.guardRateLimited.Inc()
		return nil
	}
	p.seen = now
	if p.quarantined(now) {
		n.met.guardQuarantineDrops.Inc()
		return nil
	}
	switch {
	case guardTypeIsRequest(env.Type):
		if dt := now.Sub(p.tokensAt).Seconds(); dt > 0 {
			p.tokens += dt * n.tm.requestRate
			if p.tokens > n.tm.requestBurst {
				p.tokens = n.tm.requestBurst
			}
		}
		p.tokensAt = now
		if p.tokens < 1 {
			n.met.guardRateLimited.Inc()
			n.noteMisbehavior(env.From, p, scoreRateLimited, now)
			return nil
		}
		p.tokens--
	case env.Type == wire.TypeHeartbeat || env.Type == wire.TypeSwitchPropose:
		if !n.auditBTP(p, env, now) {
			n.met.guardAuditFails.Inc()
			n.noteMisbehavior(env.From, p, scoreAuditFail, now)
			return nil
		}
	}
	return p
}

// noteWireReject attributes a failed decode/validation to its claimed sender
// (when one parsed) and scores it. Quarantined senders are silently dropped.
//
// The sender address comes from the REJECTED envelope, so it is the one field
// here that never passed validation: without the ValidAddr check below, a
// forger could plant arbitrary ~64KB strings (or invalid UTF-8) as peer-table
// keys — memory amplification via the very table that exists to punish it,
// and quarantine entries no honest sender address can ever match. Found by
// the wire-taint lint rule (param-sink flow into the peer table's map index).
func (n *Node) noteWireReject(from wire.Addr) {
	if from == "" || !wire.ValidAddr(from) {
		return
	}
	now := n.now()
	if p := n.peer(from, now); p != nil {
		p.seen = now
		if !p.quarantined(now) {
			n.noteMisbehavior(from, p, scoreWireReject, now)
		}
	}
}

// auditBTP checks a claimed bandwidth-time product against the peer's
// own claim trajectory: between two claims dt apart, the product may grow by
// at most claimed_bandwidth * dt * slack, plus a grace floor that absorbs
// delivery jitter (reordered heartbeats compress dt). Claims may always
// *shrink* — a restarted peer resets its clock. The baseline is only
// advanced by claims that pass, so a forging peer keeps failing against its
// last honest claim instead of ratcheting the baseline up.
func (n *Node) auditBTP(p *peerRecord, env *wire.Envelope, now time.Time) bool {
	if p.lastBTPAt.IsZero() {
		// First claim: nothing to compare against. (A peer inflating from its
		// very first heartbeat with a consistent trajectory evades the delta
		// audit — see the package comment on residual risk.)
		if env.Type == wire.TypeHeartbeat {
			p.lastBTP, p.lastBTPAt, p.lastBW = env.BTP, now, env.Bandwidth
		}
		return true
	}
	dt := now.Sub(p.lastBTPAt).Seconds()
	bw := env.Bandwidth
	if p.lastBW > bw {
		bw = p.lastBW
	}
	grace := bw * n.tm.heartbeatTimeout.Seconds()
	if grace < 1 {
		grace = 1
	}
	allowed := bw*dt*auditSlack + grace
	if env.BTP > p.lastBTP+allowed {
		return false
	}
	if env.Type == wire.TypeHeartbeat {
		p.lastBTP, p.lastBTPAt, p.lastBW = env.BTP, now, env.Bandwidth
	}
	return true
}
