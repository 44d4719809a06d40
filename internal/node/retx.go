package node

import (
	"omcast/internal/metrics/live"
	"omcast/internal/wire"
)

// Reliability shim for control-class messages. The paper's ROST/CER
// machinery assumes control exchanges eventually complete; over real UDP a
// single lost join/accept/repair datagram instead costs a full watchdog
// timeout. The shim closes that gap at the wire layer: each control-class
// send carries a per-peer sequence (Envelope.Ctrl), the receiver always acks
// it (and re-acks duplicates, since the first ack may itself have been
// lost), and the sender retransmits on a capped jittered backoff until acked
// or out of attempts. Sequences never restart: a record's send sequence
// starts at the highest this incarnation has used (Node.ctrlHigh), and an
// incarnation starts at its creation time in nanoseconds, so neither a
// re-created record nor a node restarted at the same address reuses a
// sequence its peer may still hold as seen. Data-class traffic — stream
// packets, heartbeats, ELN, repair data — is periodic or best-effort by
// design and stays fire-and-forget, so the shim adds no load to the
// steady-state data plane.

// retxDedupWindow is the receive window: a sequence more than this far
// behind the highest seen is treated as a duplicate. 64 fits the bitmap in
// one word and is far wider than timing.retxInflight ever lets a sender stray.
const retxDedupWindow = 64

// retxPending is one unacked control message awaiting its ack.
type retxPending struct {
	data     []byte
	attempts int // transmissions so far
	timer    Timer
}

// retxSettled takes k messages out of the in-flight total, counting them on
// how (acked or expired).
func (n *Node) retxSettled(k int, how *live.Counter) {
	n.inflight -= k
	how.Add(int64(k))
	n.met.retxInflight.Set(float64(n.inflight))
}

// sendReliable registers env (with From already stamped) in the peer's
// in-flight window, stamps its Ctrl sequence and transmits the first copy.
// It returns false — caller falls back to fire-and-forget — when the peer's
// window is full or no record can be had for it.
func (n *Node) sendReliable(to wire.Addr, env wire.Envelope) bool {
	p := n.peer(to, n.now())
	if p == nil || len(p.inflight) >= n.tm.retxInflight {
		n.met.retxOverflow.Inc()
		return false
	}
	if p.inflight == nil {
		p.inflight = make(map[uint64]*retxPending)
	}
	p.nextSeq++
	seq := p.nextSeq
	n.ctrlHigh = max(n.ctrlHigh, seq)
	env.Ctrl = seq
	data, err := wire.EncodeBinary(env)
	if err != nil {
		return true // unencodable envelopes are a programming error; drop
	}
	pend := &retxPending{data: data, attempts: 1}
	p.inflight[seq] = pend
	d := backoffDelay(n.tm.retxBackoffBase, n.tm.retxBackoffMax, 0, n.retxRng)
	pend.timer = n.cfg.Clock.AfterFunc(d, func() { n.retxFire(to, seq) })
	n.met.ctrlSent.Inc()
	n.inflight++
	n.met.retxInflight.Set(float64(n.inflight))
	n.transmit(data, to)
	return true
}

// retxFire is the retransmit timer callback, an entry point: resend the
// still-unacked message with the next backoff step, or abandon it once the
// attempt budget is spent. The message stays in the window until acked or
// expired, so late acks still clear it.
func (n *Node) retxFire(to wire.Addr, seq uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.stopped {
		return // let the state die with the node
	}
	p := n.peers[to]
	if p == nil {
		return
	}
	pend, ok := p.inflight[seq]
	if !ok {
		return // acked in the meantime
	}
	if pend.attempts >= n.tm.retxAttempts {
		delete(p.inflight, seq)
		n.retxSettled(1, n.met.retxExpired)
		return
	}
	pend.attempts++
	d := backoffDelay(n.tm.retxBackoffBase, n.tm.retxBackoffMax, pend.attempts-1, n.retxRng)
	pend.timer = n.cfg.Clock.AfterFunc(d, func() { n.retxFire(to, seq) })
	n.met.retxSent.Inc()
	n.transmit(pend.data, to)
}

// handleAck clears the acked message from the sender-side window.
func (n *Node) handleAck(env wire.Envelope) {
	p := n.peers[env.From]
	if p == nil {
		return
	}
	pend, ok := p.inflight[env.Ctrl]
	if !ok {
		return // duplicate ack, or ack for an expired message
	}
	pend.timer.Stop()
	delete(p.inflight, env.Ctrl)
	n.retxSettled(1, n.met.retxAcked)
}

// ctrlSeen records a received control sequence in the peer's dedup window
// and reports whether it was already delivered. Sequences that fell off the
// window's far edge count as duplicates (the safe direction: the shim may
// suppress a redelivery, never double-deliver within the window).
func (p *peerRecord) ctrlSeen(seq uint64) bool {
	switch {
	case p.rxHighest == 0:
		p.rxHighest = seq
		return false
	case seq > p.rxHighest:
		d := seq - p.rxHighest
		if d >= retxDedupWindow {
			p.rxBitmap = 0
		} else {
			p.rxBitmap = p.rxBitmap<<d | 1<<(d-1)
		}
		p.rxHighest = seq
		return false
	case seq == p.rxHighest:
		return true
	}
	d := p.rxHighest - seq
	if d > retxDedupWindow {
		return true
	}
	bit := uint64(1) << (d - 1)
	if p.rxBitmap&bit != 0 {
		return true
	}
	p.rxBitmap |= bit
	return false
}
