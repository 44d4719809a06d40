package node

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"omcast/internal/wire"
	"omcast/internal/xrand"
)

// oraclePayload is the payload every copy of packet seq carries in the oracle
// runs: a few bytes that name the sequence, or none at all.
func oraclePayload(seq int64) []byte {
	if seq%5 == 0 {
		return nil
	}
	return []byte(fmt.Sprintf("%0*d", int(seq%5)+1, seq))
}

// oracleEpoch is when the oracle runs' synthetic clock starts.
var oracleEpoch = time.Unix(1_000_000_000, 0)

// oracleRun drives one node and its map-based reference (reference_test.go)
// through the same operations and compares them after every one.
type oracleRun struct {
	t     *testing.T
	n     *Node
	tr    *sinkTransport
	ref   *refNode
	rng   *xrand.Source
	now   time.Time
	slot  time.Duration // one packet's playout time
	depth int64         // BufferPackets
	kids  []wire.Addr
	step  int
	// How often the run reached the branches the ring changes.
	unstored, resyncs, served int64
}

func newOracleRun(t *testing.T, cfg Config, parent wire.Addr, seed int64) *oracleRun {
	cfg.HeartbeatInterval = time.Hour // one repair request, then the gate stays shut
	cfg.Bandwidth = 2
	tr := &sinkTransport{addr: "self"}
	o := &oracleRun{
		t: t, tr: tr,
		n:   New(cfg, tr),
		ref: newRefNode(cfg, parent),
		rng: xrand.NewNamed(seed, fmt.Sprintf("ring-oracle:%d:%t", cfg.BufferPackets, cfg.Source)),
		now: oracleEpoch,
	}
	o.slot = time.Duration(float64(time.Second) / o.n.cfg.StreamRate)
	o.depth = int64(o.n.cfg.BufferPackets)
	if parent != "" {
		attachTo(o.n, parent)
	}
	o.n.mu.Lock()
	for _, c := range []wire.Addr{"c0", "c1"} {
		o.n.addChild(c, o.now)
		o.kids = append(o.kids, c)
	}
	o.n.mu.Unlock()
	o.ref.stats = o.n.Stats() // the standing state; every counter is zero
	return o
}

func (o *oracleRun) fatalf(format string, args ...any) {
	o.t.Helper()
	o.t.Fatalf("BufferPackets %d, step %d: %s", o.depth, o.step, fmt.Sprintf(format, args...))
}

// sentEnv is one datagram the node sent.
type sentEnv struct {
	to  wire.Addr
	env wire.Envelope
}

// sent takes what the node sent since the last call, split into the stream
// packets fanned out to the children and the repair data served; ELNs (paced
// by the wall clock, and no business of the buffer's) are dropped.
func (o *oracleRun) sent() (packets, repairs []sentEnv) {
	for i, env := range o.tr.sent {
		if env.From != "self" {
			o.fatalf("node sent a datagram from %q", env.From)
		}
		switch env.Type {
		case wire.TypePacket:
			packets = append(packets, sentEnv{o.tr.dest[i], env})
		case wire.TypeRepairData:
			repairs = append(repairs, sentEnv{o.tr.dest[i], env})
		}
	}
	o.tr.sent, o.tr.dest = o.tr.sent[:0], o.tr.dest[:0]
	return packets, repairs
}

// packet offers one stream or repair packet to both sides and checks that
// they agree on accepting it and that every child was sent the same bytes.
func (o *oracleRun) packet(from wire.Addr, seq int64, repaired bool) {
	env := wire.Envelope{Type: wire.TypePacket, From: from, Packet: seq, Payload: oraclePayload(seq)}
	if repaired {
		env.Type = wire.TypeRepairData
	}
	wasBelow := seq < o.ref.highest-o.depth
	want := o.ref.accept(from, seq, env.Payload, repaired, o.now)
	if want && wasBelow {
		o.unstored++
	}
	got := o.n.acceptPacket(&env, repaired, o.now)
	if got != want {
		o.fatalf("packet %d from %s (repaired %t): node accepted = %t, oracle %t", seq, from, repaired, got, want)
	}
	packets, _ := o.sent()
	if !want {
		if len(packets) != 0 {
			o.fatalf("refused packet %d was forwarded %d times", seq, len(packets))
		}
		return
	}
	if len(packets) != len(o.kids) {
		o.fatalf("packet %d was forwarded %d times, want %d", seq, len(packets), len(o.kids))
	}
	for i, s := range packets {
		if s.to != o.kids[i] || s.env.Packet != seq || !bytes.Equal(s.env.Payload, env.Payload) {
			o.fatalf("copy %d of packet %d went to %s as packet %d payload %q", i, seq, s.to, s.env.Packet, s.env.Payload)
		}
	}
}

// emit has the source generate its next packet on both sides.
func (o *oracleRun) emit() {
	seq := o.ref.emit()
	o.n.emitPacket()
	packets, _ := o.sent()
	if len(packets) != len(o.kids) {
		o.fatalf("emitted packet %d was sent %d times, want %d", seq, len(packets), len(o.kids))
	}
	for _, s := range packets {
		if s.env.Packet != seq {
			o.fatalf("source emitted packet %d, oracle %d", s.env.Packet, seq)
		}
	}
}

// repairRequest asks both sides for [first, last] at stripe offset epsilon and
// compares what is served, payloads included.
func (o *oracleRun) repairRequest(first, last int64, epsilon float64) {
	want := o.ref.serve(first, last, epsilon)
	o.n.handleRepairRequest(wire.Envelope{Type: wire.TypeRepairRequest, From: "asker",
		FirstMissing: first, LastMissing: last, Epsilon: epsilon})
	_, repairs := o.sent()
	if len(repairs) != len(want) {
		o.fatalf("repair request [%d, %d] at %.2f served %d packets, oracle %d", first, last, epsilon, len(repairs), len(want))
	}
	for i, s := range repairs {
		if s.to != "asker" || s.env.Packet != want[i] || !bytes.Equal(s.env.Payload, o.ref.buffer[want[i]]) {
			o.fatalf("repair %d of [%d, %d]: packet %d payload %q to %s, oracle packet %d payload %q",
				i, first, last, s.env.Packet, s.env.Payload, s.to, want[i], o.ref.buffer[want[i]])
		}
	}
	o.served += int64(len(want))
}

// compare holds the node to the oracle: presence and payload of every
// sequence around the window, and every counter the data path writes.
func (o *oracleRun) compare() {
	o.n.mu.Lock()
	head := o.n.highest
	if head != o.ref.highest {
		o.n.mu.Unlock()
		o.fatalf("stream head %d, oracle %d", head, o.ref.highest)
	}
	check := func(seq int64) {
		got, ok := o.n.buffered(seq)
		want, wantOK := o.ref.buffer[seq]
		if ok != wantOK || !bytes.Equal(got, want) {
			o.n.mu.Unlock()
			o.fatalf("sequence %d (head %d): buffered %t payload %q, oracle %t payload %q", seq, head, ok, got, wantOK, want)
		}
	}
	for seq := head - o.depth - 3; seq <= head+3; seq++ {
		check(seq)
	}
	for i := 0; i < 8; i++ { // and a few probes far from it, stale slots included
		check(head - 6*o.depth + int64(o.rng.Intn(int(12*o.depth))))
	}
	o.n.mu.Unlock()

	got := o.n.Stats()
	// The repair pacing counters follow the wall-clock backoff gate, which
	// reads the head but never the buffer; they are not the oracle's.
	got.RepairRequests, got.RepairsSuppressed, got.ELNsSent = 0, 0, 0
	want := o.ref.stats
	want.HighestPacket = o.ref.highest
	if got != want {
		o.fatalf("stats diverged:\n node   %+v\n oracle %+v", got, want)
	}
}

// playback scores the playout slots due at the run's clock on both sides.
func (o *oracleRun) playback() {
	o.ref.advancePlayback(o.now)
	o.n.mu.Lock()
	o.n.advancePlayback(o.now)
	o.n.mu.Unlock()
}

// memberStep performs one random operation of a member in mid-stream.
func (o *oracleRun) memberStep() {
	head, b := o.ref.highest, o.depth
	// The clock follows the stream head, give or take a slot, so playback
	// trails the head by its buffering interval however the head got there.
	o.now = oracleEpoch.Add(time.Duration(head)*o.slot + time.Duration(o.rng.Intn(int(o.slot))))
	below := func(lo, hi int64) int64 { // a sequence in [head-hi, head-lo], not negative
		seq := head - lo - int64(o.rng.Intn(int(hi-lo+1)))
		if seq < 0 {
			seq = 0
		}
		return seq
	}
	switch r := o.rng.Intn(100); {
	case r < 40: // in order
		o.packet("p", head+1, false)
	case r < 47: // skips ahead: a gap opens
		o.packet("p", head+2+int64(o.rng.Intn(int(b/4+2))), false)
	case r < 57: // late or duplicate, inside the window
		o.packet("p", below(0, b), false)
	case r < 60: // the head again
		o.packet("p", head, false)
	case r < 70: // repaired, inside the window
		o.packet("helper", below(0, b), true)
	case r < 78: // below the window but plausible: counted, forwarded, not stored
		if head > b {
			o.packet("p", below(b+1, 4*b), false)
			o.packet("helper", below(b+1, 4*b), true)
		}
	case r < 80: // repair data below anything plausible
		if head > 4*b+1 {
			o.packet("helper", below(4*b+1, 6*b), true)
		}
	case r < 82: // a stream packet from a stranger
		o.packet("evil", head+1, false)
	case r < 84: // the parent far ahead, part of a resync streak or all of it
		streak := 1 + o.rng.Intn(jumpResyncStreak-1)
		if o.rng.Intn(4) == 0 {
			streak = jumpResyncStreak
		}
		far := head + 4*b + 1 + int64(o.rng.Intn(int(3*b+1)))
		for i := 0; i < streak; i++ {
			o.packet("p", far+int64(i), false)
		}
		if o.ref.highest > head {
			o.resyncs++
		}
	case r < 94: // a repair request over some stretch near the window
		first := below(0, 3*b)
		o.repairRequest(first, first+int64(o.rng.Intn(int(2*b+2))), float64(o.rng.Intn(3))/3)
	default:
		o.playback()
	}
}

// sourceStep performs one random operation of the stream origin.
func (o *oracleRun) sourceStep() {
	head, b := o.ref.highest, o.depth
	switch r := o.rng.Intn(100); {
	case r < 60:
		o.emit()
	case r < 65: // stream data offered to the origin is refused
		o.packet("evil", head+1, o.rng.Intn(2) == 0)
	default:
		first := head - int64(o.rng.Intn(int(3*b+1)))
		if first < 0 {
			first = 0
		}
		o.repairRequest(first, first+int64(o.rng.Intn(int(2*b+2))), float64(o.rng.Intn(3))/3)
	}
}

// TestRingMatchesMapOracle holds the repair ring to the map it replaced:
// through in-order, late, duplicate, repaired, below-window, implausible and
// resynchronising packets, source emissions, repair requests and playback
// scoring, the node and the reference agree after every operation on which
// sequences are buffered with which payload, on what a repair request is
// served, and on every counter.
func TestRingMatchesMapOracle(t *testing.T) {
	steps := 40_000
	if raceEnabled {
		steps = 4_000
	}
	for _, depth := range []int{1, 16, 256} {
		cfg := Config{
			BufferPackets: depth,
			// Playback trails the head by half a window, so the slots it
			// scores are in the window or just out of it.
			PlaybackBuffer: time.Duration(depth) * 50 * time.Millisecond,
		}
		o := newOracleRun(t, cfg, "p", 23)
		for o.step = 0; o.step < steps; o.step++ {
			o.memberStep()
			o.compare()
		}
		o.playback()
		o.compare()
		if s := o.ref.stats; s.PlayedSlots == 0 || s.StarvedSlots == 0 || o.unstored == 0 || o.resyncs == 0 || o.served == 0 {
			t.Errorf("BufferPackets %d: run missed a branch: played %d, starved %d, below-window accepts %d, resyncs %d, repairs served %d",
				depth, s.PlayedSlots, s.StarvedSlots, o.unstored, o.resyncs, o.served)
		}

		cfg.Source = true
		src := newOracleRun(t, cfg, "", 23)
		for src.step = 0; src.step < steps/4; src.step++ {
			src.sourceStep()
			src.compare()
		}
		if src.served == 0 || src.ref.stats.GuardImplausible == 0 {
			t.Errorf("BufferPackets %d: source run served %d repairs and refused %d packets", depth, src.served, src.ref.stats.GuardImplausible)
		}
	}
}

// TestRepairCarriesPayload: a member that lost a stream packet gets it back
// from its recovery group with the payload, so it ends up holding — and
// forwarding to its own child — the same bytes as the sibling that never
// lost it.
func TestRepairCarriesPayload(t *testing.T) {
	w := newWorld(t)
	member := func(addr wire.Addr) *Node {
		// A recovery group of one serves the whole stripe space.
		n := w.node(addr, Config{Bandwidth: 2, RecoveryGroup: 1, HeartbeatInterval: time.Hour})
		attachTo(n, "src")
		return n
	}
	sibling, loser := member("sibling"), member("loser")
	// The loser knows its sibling and has a child of its own, a bare endpoint
	// recording the stream packets it is sent.
	forwarded := map[int64][]byte{}
	w.endpoint("leaf").SetHandler(func(data []byte) {
		if env, err := wire.DecodeBinary(data); err == nil && env.Type == wire.TypePacket {
			forwarded[env.Packet] = env.Payload
		}
	})
	loser.mu.Lock()
	loser.viewAdd("sibling", w.clock.Now())
	loser.addChild("leaf", w.clock.Now())
	loser.mu.Unlock()

	const count, lost = 8, 5
	payload := func(seq int64) []byte { return []byte(fmt.Sprintf("media-%03d", seq)) }
	for _, n := range []*Node{sibling, loser} {
		for seq := int64(0); seq < count; seq++ {
			if n == loser && seq == lost {
				continue // the gap the next packet reveals; CER does the rest
			}
			n.onDatagram(envBytes(t, wire.Envelope{Type: wire.TypePacket, From: "src", Packet: seq, Payload: payload(seq)}))
		}
	}
	w.eventually(5*time.Second, "the lost packet to be repaired and forwarded", func() bool {
		return loser.Stats().PacketsRepaired == 1 && len(forwarded) == count
	})
	for seq := int64(0); seq < count; seq++ {
		sibling.mu.Lock()
		want, _ := sibling.buffered(seq)
		sibling.mu.Unlock()
		loser.mu.Lock()
		got, ok := loser.buffered(seq)
		loser.mu.Unlock()
		fwd := forwarded[seq]
		if !ok || !bytes.Equal(want, payload(seq)) || !bytes.Equal(got, want) || !bytes.Equal(fwd, want) {
			t.Errorf("packet %d: sent %q, sibling holds %q, loser holds %q (buffered %t) and forwarded %q",
				seq, payload(seq), want, got, ok, fwd)
		}
	}
}
