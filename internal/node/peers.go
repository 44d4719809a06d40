package node

import (
	"time"

	"omcast/internal/wire"
)

// peerRecord is everything the node keeps about one remote address: its
// first-hand freshness, its entry in the partial view (the paper's §4.1 view
// of ~100 members with their ancestor paths), the guard's account of its
// behaviour (guard.go) and the reliability shim's windows (retx.go). All of
// it lives in Node.peers, the one per-peer table that grows on wire input;
// peer holds its cap and its eviction rule.
type peerRecord struct {
	// seen is when the peer was last heard from first-hand, or entered the
	// view: it orders eviction, and CER group selection skips view entries
	// not seen within timing.memberStaleAfter.
	seen time.Time

	// info is the peer's view entry, meaningful while inView.
	info   wire.MemberInfo
	inView bool

	// Guard state. score is the decayed misbehavior score, decayed up to
	// scoreAt; tokens is the request bucket, refilled up to tokensAt;
	// quarantinedUntil, when in the future, drops everything from the peer;
	// lastBTP/lastBTPAt/lastBW anchor the BTP delta audit: the peer's last
	// accepted claim and when it was made.
	score            float64
	scoreAt          time.Time
	tokens           float64
	tokensAt         time.Time
	quarantinedUntil time.Time
	lastBTP          float64
	lastBTPAt        time.Time
	lastBW           float64

	// Retransmit state: the send window (the last control sequence used, the
	// unacked messages) and the receive dedup window (the highest sequence
	// seen plus a bitmap of the 64 below it).
	nextSeq   uint64
	inflight  map[uint64]*retxPending
	rxHighest uint64
	rxBitmap  uint64 // bit i = sequence (rxHighest-1-i) seen
}

func (p *peerRecord) quarantined(now time.Time) bool { return now.Before(p.quarantinedUntil) }

// peer returns addr's record, creating it when absent. However it is
// created — by a datagram, a gossip entry or a send — a record starts with a
// full request bucket and its send sequence at the highest this incarnation
// has used (Node.ctrlHigh), so a re-created record never reuses a sequence
// the peer may still hold in its dedup window.
//
// At timing.peerCap records one is evicted first, by one rule: never the
// parent or a child; of the rest the stalest by seen (the lowest address
// among equals), taking a record that
// is neither quarantined nor awaiting an ack before one with control
// messages in flight (abandoned with it), and a quarantined record only when
// nothing else is left. It returns nil, and the caller does without, only
// when every record is the parent or a child.
func (n *Node) peer(addr wire.Addr, now time.Time) *peerRecord {
	if p, ok := n.peers[addr]; ok {
		return p
	}
	if len(n.peers) >= n.tm.peerCap {
		var victim wire.Addr
		var vp *peerRecord
		vrank := 0
		for a, p := range n.peers {
			if _, child := n.children[a]; child || a == n.parent {
				continue
			}
			rank := 0
			if p.quarantined(now) {
				rank = 2
			} else if len(p.inflight) > 0 {
				rank = 1
			}
			if vp == nil || rank < vrank || rank == vrank && (p.seen.Before(vp.seen) || p.seen.Equal(vp.seen) && a < victim) {
				victim, vp, vrank = a, p, rank
			}
		}
		if vp == nil {
			return nil
		}
		for _, pend := range vp.inflight {
			pend.timer.Stop()
		}
		n.retxSettled(len(vp.inflight), n.met.retxExpired)
		delete(n.peers, victim)
	}
	p := &peerRecord{seen: now, scoreAt: now, tokensAt: now, tokens: n.tm.requestBurst, nextSeq: n.ctrlHigh}
	n.peers[addr] = p
	return p
}

// tableCounts walks the table once for the two sizes Stats and the gauges
// report: entries in the view, and peers under quarantine.
func (n *Node) tableCounts(now time.Time) (members, quarantined int) {
	for _, p := range n.peers {
		if p.inView {
			members++
		}
		if p.quarantined(now) {
			quarantined++
		}
	}
	return members, quarantined
}
