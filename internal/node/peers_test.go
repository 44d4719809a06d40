package node

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"omcast/internal/wire"
)

// TestPeerTableAdmitsLiveMemberPastStaleView fills the peer table with view
// entries nobody has heard from in two gossip horizons. A live member's
// first-hand gossip must still enter the view, evicting a stale entry, and
// be the recovery group CER picks.
func TestPeerTableAdmitsLiveMemberPastStaleView(t *testing.T) {
	n, _ := newGuardNode(nil)
	n.tm.membershipLimit, n.tm.peerCap = 2, 8
	attachTo(n, "p")
	stale := time.Now().Add(-2 * n.tm.memberStaleAfter)
	n.mu.Lock()
	for i := 0; i < n.tm.peerCap; i++ {
		n.viewAdd(wire.Addr(fmt.Sprintf("gone%d", i)), stale)
	}
	n.mu.Unlock()
	n.onDatagram(envBytes(t, wire.Envelope{Type: wire.TypeMembershipReply, From: "live",
		Members: []wire.MemberInfo{{Addr: "live", Depth: 1, Spare: 1, Bandwidth: 2}}}))
	if group := n.recoveryGroup(); len(group) != 1 || group[0] != "live" {
		t.Fatalf("recovery group = %v, want [live]", group)
	}
	if got := n.Stats().KnownMembers; got != n.tm.peerCap {
		t.Fatalf("KnownMembers = %d, want the cap %d (one stale entry gave way)", got, n.tm.peerCap)
	}
}

// TestPeerTableKeepsControlSendsProtected sends one control message each to
// three tables' worth of distinct peers, each acked before the next: every
// send must go out under ack protection, none fire-and-forget. A peer whose
// record was evicted meanwhile gets a fresh one whose sequence is above
// every one it was sent before.
func TestPeerTableKeepsControlSendsProtected(t *testing.T) {
	n, tr := newGuardNode(nil)
	n.tm.membershipLimit, n.tm.peerCap = 2, 8
	sendAcked := func(to wire.Addr) uint64 {
		n.send(to, wire.Envelope{Type: wire.TypeLeave})
		sent := tr.sentTo(to)
		ctrl := sent[len(sent)-1].Ctrl
		n.onDatagram(envBytes(t, wire.Envelope{Type: wire.TypeAck, From: to, Ctrl: ctrl}))
		return ctrl
	}
	first := sendAcked("x0")
	peers := 3 * n.tm.peerCap
	for i := 1; i < peers; i++ {
		sendAcked(wire.Addr(fmt.Sprintf("x%d", i)))
	}
	s := n.Stats()
	if s.RetxOverflow != 0 || s.CtrlSent != int64(peers) || s.RetxAcked != int64(peers) || s.RetxInflight != 0 {
		t.Fatalf("overflow=%d ctrl-sent=%d acked=%d in-flight=%d, want 0/%d/%d/0",
			s.RetxOverflow, s.CtrlSent, s.RetxAcked, s.RetxInflight, peers, peers)
	}
	if again := sendAcked("x0"); first == 0 || again <= first {
		t.Fatalf("re-created record sent sequence %d after %d", again, first)
	}
}

// TestRebornSenderIsNotDeduped restarts a sender at the same address after
// its receiver has seen two dedup windows of its control messages. The new
// incarnation's first message must reach its handler, and a replay of the
// old incarnation's datagrams must still count as a duplicate. Both run on
// one virtual clock, so the incarnations differ only by the virtual time
// between the crash and the restart.
func TestRebornSenderIsNotDeduped(t *testing.T) {
	w := newWorld(t)
	r, _ := newGuardNode(nil)
	attachTo(r, "p")
	deliver := func(from *sinkTransport, i int) []byte {
		from.mu.Lock()
		env := from.sent[i]
		from.mu.Unlock()
		b := envBytes(t, env)
		r.onDatagram(b)
		return b
	}
	oldTr := &sinkTransport{addr: "s"}
	old := New(Config{Bandwidth: 1, Clock: w.clock}, oldTr)
	old.tm.retxInflight = 4 * retxDedupWindow // no acks come back: keep every send protected
	var replay []byte
	for i := 0; i < 2*retxDedupWindow; i++ {
		old.send("self", wire.Envelope{Type: wire.TypeLeave})
		if b := deliver(oldTr, i); i == retxDedupWindow {
			replay = b
		}
	}
	old.Kill()
	w.advance(time.Millisecond) // the restart takes a moment
	if got := r.Stats().RetxDupDrops; got != 0 {
		t.Fatalf("RetxDupDrops = %d before the restart, want 0", got)
	}

	bornTr := &sinkTransport{addr: "s"}
	born := New(Config{Bandwidth: 1, Clock: w.clock}, bornTr)
	born.send("self", wire.Envelope{Type: wire.TypeJoin, Bandwidth: 1})
	deliver(bornTr, 0)
	if s := r.Stats(); s.Children != 1 || s.RetxDupDrops != 0 {
		t.Fatalf("reborn sender's join: children=%d dup-drops=%d, want 1/0", s.Children, s.RetxDupDrops)
	}
	r.onDatagram(replay) // a Leave: handled, it would drop the child
	if s := r.Stats(); s.RetxDupDrops != 1 || s.Children != 1 {
		t.Fatalf("old incarnation's leave replayed: dup-drops=%d children=%d, want 1/1", s.RetxDupDrops, s.Children)
	}
}

// TestSelectViewMatchesSort: the selection gossip draws through and
// viewSample trims by finds, for every position, the record a full sort by
// viewOrder puts there, with exactly the records sorted before it ahead of
// it, whatever order the view arrives in. Seen times tie in pairs, so the
// address tie-break is exercised.
func TestSelectViewMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	base := time.Unix(1000, 0)
	for _, size := range []int{1, 2, 3, 8, 65} {
		view := make([]*peerRecord, size)
		for i := range view {
			view[i] = &peerRecord{
				seen: base.Add(time.Duration(rng.Intn(size/2+1)) * time.Second),
				info: wire.MemberInfo{Addr: wire.Addr(fmt.Sprintf("10.0.0.%d:7000", rng.Intn(1000)*100+i))},
			}
		}
		sorted := slices.Clone(view)
		slices.SortFunc(sorted, viewOrder)
		for k := range view {
			got := slices.Clone(view)
			rng.Shuffle(len(got), func(i, j int) { got[i], got[j] = got[j], got[i] })
			if p := selectView(got, k); p != sorted[k] || got[k] != p {
				t.Fatalf("size %d: selectView(k=%d) = %v, sort puts %v there", size, k, p.info.Addr, sorted[k].info.Addr)
			}
			head := slices.Clone(got[:k])
			slices.SortFunc(head, viewOrder)
			if !slices.Equal(head, sorted[:k]) {
				t.Fatalf("size %d k=%d: the records before position k are not the first k", size, k)
			}
		}
	}
}
