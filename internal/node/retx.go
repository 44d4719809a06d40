package node

import (
	"time"

	"omcast/internal/wire"
)

// Reliability shim for control-class messages. The paper's ROST/CER
// machinery assumes control exchanges eventually complete; over real UDP a
// single lost join/accept/repair datagram instead costs a full watchdog
// timeout. The shim closes that gap at the wire layer: each control-class
// send carries a per-peer sequence (Envelope.Ctrl), the receiver always acks
// it (and re-acks duplicates, since the first ack may itself have been
// lost), and the sender retransmits on a capped jittered backoff until acked
// or out of attempts. Data-class traffic — stream packets, heartbeats, ELN,
// repair data — is periodic or best-effort by design and stays
// fire-and-forget, so the shim adds no load to the steady-state data plane.

// retxDedupWindow is the receive window: a sequence more than this far
// behind the highest seen is treated as a duplicate. 64 fits the bitmap in
// one word and is far wider than timing.retxInflight ever lets a sender stray.
const retxDedupWindow = 64

// retxPending is one unacked control message awaiting its ack.
type retxPending struct {
	data     []byte
	attempts int // transmissions so far
	timer    *time.Timer
}

// retxPeer is the shim state for one peer: the send window (sequences,
// in-flight messages) and the receive dedup window (highest sequence seen
// plus a bitmap of the 64 below it).
type retxPeer struct {
	nextSeq  uint64
	inflight map[uint64]*retxPending

	rxHighest uint64
	rxBitmap  uint64 // bit i = sequence (rxHighest-1-i) seen
}

// retxPeerLocked finds or creates the shim state for addr, respecting
// timing.peerCap: beyond it control sends are demoted to fire-and-forget and
// receives go un-deduped (still acked). Requires mu.
func (n *Node) retxPeerLocked(addr wire.Addr) *retxPeer {
	if p, ok := n.retx[addr]; ok {
		return p
	}
	if len(n.retx) >= n.tm.peerCap {
		return nil
	}
	p := &retxPeer{}
	n.retx[addr] = p
	return p
}

// retxInflightLocked totals the unacked control messages. Requires mu.
func (n *Node) retxInflightLocked() int {
	total := 0
	for _, p := range n.retx {
		total += len(p.inflight)
	}
	return total
}

// sendReliable registers env (with From already stamped) in the peer's
// in-flight window, stamps its Ctrl sequence and transmits the first copy.
// It returns false — caller falls back to fire-and-forget — when the peer's
// window is full or the peer table is at its cap.
func (n *Node) sendReliable(to wire.Addr, env wire.Envelope) bool {
	n.mu.Lock()
	p := n.retxPeerLocked(to)
	if p == nil || len(p.inflight) >= n.tm.retxInflight {
		n.met.retxOverflow.Inc()
		n.mu.Unlock()
		return false
	}
	if p.inflight == nil {
		p.inflight = make(map[uint64]*retxPending)
	}
	p.nextSeq++
	seq := p.nextSeq
	env.Ctrl = seq
	data, err := wire.EncodeBinary(env)
	if err != nil {
		n.mu.Unlock()
		return true // unencodable envelopes are a programming error; drop
	}
	pend := &retxPending{data: data, attempts: 1}
	p.inflight[seq] = pend
	d := backoffDelay(n.tm.retxBackoffBase, n.tm.retxBackoffMax, 0, n.retxRng)
	pend.timer = time.AfterFunc(d, func() { n.retxFire(to, seq) })
	n.met.ctrlSent.Inc()
	n.met.retxInflight.Set(float64(n.retxInflightLocked()))
	n.mu.Unlock()
	n.transmit(to, data)
	return true
}

// retxFire is the retransmit timer callback: resend the still-unacked
// message with the next backoff step, or abandon it once the attempt budget
// is spent. The message stays in the window until acked or expired, so late
// acks still clear it.
func (n *Node) retxFire(to wire.Addr, seq uint64) {
	select {
	case <-n.done:
		return // node stopped: let the state die with it
	default:
	}
	n.mu.Lock()
	p := n.retx[to]
	if p == nil {
		n.mu.Unlock()
		return
	}
	pend, ok := p.inflight[seq]
	if !ok {
		n.mu.Unlock()
		return // acked in the meantime
	}
	if pend.attempts >= n.tm.retxAttempts {
		delete(p.inflight, seq)
		n.met.retxExpired.Inc()
		n.met.retxInflight.Set(float64(n.retxInflightLocked()))
		n.mu.Unlock()
		return
	}
	pend.attempts++
	d := backoffDelay(n.tm.retxBackoffBase, n.tm.retxBackoffMax, pend.attempts-1, n.retxRng)
	pend.timer = time.AfterFunc(d, func() { n.retxFire(to, seq) })
	data := pend.data
	n.met.retxSent.Inc()
	n.mu.Unlock()
	n.transmit(to, data)
}

// handleAck clears the acked message from the sender-side window.
func (n *Node) handleAck(env wire.Envelope) {
	n.mu.Lock()
	p := n.retx[env.From]
	if p == nil {
		n.mu.Unlock()
		return
	}
	pend, ok := p.inflight[env.Ctrl]
	if !ok {
		n.mu.Unlock()
		return // duplicate ack, or ack for an expired message
	}
	pend.timer.Stop()
	delete(p.inflight, env.Ctrl)
	n.met.retxAcked.Inc()
	n.met.retxInflight.Set(float64(n.retxInflightLocked()))
	n.mu.Unlock()
}

// ctrlSeen records a received control sequence in the peer's dedup window
// and reports whether it was already delivered. Sequences that fell off the
// window's far edge count as duplicates (the safe direction: the shim may
// suppress a redelivery, never double-deliver within the window).
func (n *Node) ctrlSeen(from wire.Addr, seq uint64) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	p := n.retxPeerLocked(from)
	if p == nil {
		return false // peer table full: process un-deduped rather than starve
	}
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
