package main

import (
	"fmt"
	"runtime"
	"time"

	"omcast/internal/node"
	"omcast/internal/wire"
	"omcast/internal/xrand"
)

// liveSpec sizes the forwarding workload: one node, fed in-order stream
// packets by a fake parent, forwarding each to fanout fake children.
type liveSpec struct {
	datagrams int // timed datagrams per repetition
	fanout    int
	view      int // membership entries seeded before the feed
}

// verifyDatagrams is how many datagrams are fed, and their forwarded copies
// decoded and checked, before timing starts.
const verifyDatagrams = 1000

// probeTransport is the benchmark's synchronous node.Transport: Send records
// what the node emits, and the captured handler is called directly, so one
// goroutine drives the node and no timer or socket is involved.
type probeTransport struct {
	addr    wire.Addr
	handler func([]byte)
	// keep retains a copy of every datagram sent (set-up and verification);
	// the timed feed only counts.
	keep  bool
	kept  []sentDatagram
	sends int64
}

type sentDatagram struct {
	to   wire.Addr
	data []byte
}

func (t *probeTransport) Addr() wire.Addr           { return t.addr }
func (t *probeTransport) SetHandler(h func([]byte)) { t.handler = h }
func (t *probeTransport) Close() error              { return nil }

func (t *probeTransport) Send(to wire.Addr, data []byte) error {
	t.sends++
	if t.keep {
		t.kept = append(t.kept, sentDatagram{to: to, data: append([]byte(nil), data...)})
	}
	return nil
}

// liveRig is one attached node with its inputs encoded and ready to feed.
type liveRig struct {
	spec     liveSpec
	tr       *probeTransport
	nd       *node.Node
	parent   wire.Addr
	children []wire.Addr
	firstSeq int64
	// arena holds the encoded datagrams back to back; datagram i is
	// arena[offs[i]:offs[i+1]].
	arena []byte
	offs  []int
}

// inject hands one envelope to the node as the transport would.
func (r *liveRig) inject(env wire.Envelope) error {
	data, err := wire.BinaryV1.Encode(env)
	if err != nil {
		return fmt.Errorf("encoding %v: %w", env.Type, err)
	}
	r.tr.handler(data)
	return nil
}

// newLiveRig builds a node over the probe transport and never Start()s it (no
// goroutines, no loops), attaches it under a fake parent, joins fanout fake
// children, acknowledges every control message the node sends so no
// retransmit timer is left armed, seeds its membership view, and encodes
// total in-order stream packets. The seed names the peers, fills the view and
// picks the first sequence number.
func newLiveRig(spec liveSpec, seed int64, fanout, total int) (*liveRig, error) {
	rng := xrand.NewNamed(seed, "benchmark.live")
	tag := fmt.Sprintf("%04x", rng.Intn(1<<16))
	r := &liveRig{
		spec:     spec,
		tr:       &probeTransport{addr: wire.Addr("node-" + tag), keep: true},
		parent:   wire.Addr("parent-" + tag),
		firstSeq: 1 + int64(rng.Intn(1<<20)),
	}
	r.nd = node.New(node.Config{
		Bandwidth:         float64(fanout),
		HeartbeatInterval: time.Hour,
		Seed:              seed,
	}, r.tr)
	if r.tr.handler == nil {
		return nil, fmt.Errorf("node.New installed no handler")
	}
	if err := r.inject(wire.Envelope{Type: wire.TypeAccept, From: r.parent}); err != nil {
		return nil, err
	}
	for i := 0; i < fanout; i++ {
		child := wire.Addr(fmt.Sprintf("child-%s-%d", tag, i))
		r.children = append(r.children, child)
		if err := r.inject(wire.Envelope{Type: wire.TypeJoin, From: child, Bandwidth: 1}); err != nil {
			return nil, err
		}
	}
	for _, sent := range r.tr.kept {
		env, err := wire.BinaryV1.Decode(sent.data)
		if err != nil {
			return nil, fmt.Errorf("node sent an undecodable datagram during attach: %w", err)
		}
		if env.Ctrl == 0 || env.Type == wire.TypeAck {
			continue
		}
		if err := r.inject(wire.Envelope{Type: wire.TypeAck, From: sent.to, Ctrl: env.Ctrl}); err != nil {
			return nil, err
		}
	}
	members := make([]wire.MemberInfo, spec.view)
	for i := range members {
		members[i] = wire.MemberInfo{
			Addr:      wire.Addr(fmt.Sprintf("member-%s-%03d", tag, i)),
			Depth:     1 + rng.Intn(8),
			Spare:     rng.Intn(4),
			Bandwidth: 0.5 + 4*rng.Float64(),
			Ancestors: []wire.Addr{r.parent},
		}
	}
	if err := r.inject(wire.Envelope{Type: wire.TypeMembershipReply, From: r.parent, Members: members}); err != nil {
		return nil, err
	}
	r.tr.kept = nil

	// Empty payloads: what streamLoop really sends, and the smallest size,
	// where per-packet cost dominates.
	r.offs = make([]int, 1, total+1)
	for i := 0; i < total; i++ {
		r.arena = wire.AppendBinary(r.arena, wire.Envelope{Type: wire.TypePacket, From: r.parent, Packet: r.firstSeq + int64(i)})
		r.offs = append(r.offs, len(r.arena))
	}
	return r, nil
}

func (r *liveRig) datagram(i int) []byte { return r.arena[r.offs[i]:r.offs[i+1]] }

// rejects sums every way the node can refuse a datagram.
func rejects(s node.Stats) int64 {
	return s.WireRejects + s.GuardImplausible + s.GuardRateLimited + s.GuardQuarantineDrops + s.GuardAuditFails
}

// checkAttached verifies the rig's standing state before any packet flows.
func (r *liveRig) checkAttached(out *repOutput, fanout int) {
	s := r.nd.Stats()
	out.attempted++
	switch {
	case !s.Attached:
		out.fail("node is not attached")
	case s.Children != fanout:
		out.fail("node has %d children, want %d", s.Children, fanout)
	case s.KnownMembers != r.spec.view:
		out.fail("node knows %d members, want %d", s.KnownMembers, r.spec.view)
	case s.RetxInflight != 0:
		out.fail("%d control messages still await an ack", s.RetxInflight)
	case rejects(s) != 0:
		out.fail("node rejected %d datagrams during attach", rejects(s))
	}
}

// verify feeds the first verifyDatagrams datagrams with capture on and checks
// that every forwarded copy decodes to the sequence number offered and goes
// to each child once.
func (r *liveRig) verify(out *repOutput, count int) {
	r.tr.keep = true
	for i := 0; i < count; i++ {
		r.tr.kept = r.tr.kept[:0]
		r.tr.handler(r.datagram(i))
		out.attempted++
		want := r.firstSeq + int64(i)
		if len(r.tr.kept) != len(r.children) {
			out.fail("packet %d was forwarded %d times, want %d", want, len(r.tr.kept), len(r.children))
			continue
		}
		seen := map[wire.Addr]bool{}
		for _, sent := range r.tr.kept {
			env, err := wire.BinaryV1.Decode(sent.data)
			if err != nil || env.Type != wire.TypePacket || env.Packet != want || env.From != r.tr.addr || seen[sent.to] {
				out.fail("packet %d: forwarded copy to %s is wrong (type %v, packet %d, err %v)", want, sent.to, env.Type, env.Packet, err)
				break
			}
			seen[sent.to] = true
		}
	}
	r.tr.keep = false
	r.tr.kept = nil
}

// liveWorkload is the closed loop with one client: each datagram is offered
// when the handler has returned from the previous one.
func liveWorkload(spec liveSpec, nominal float64) *workload {
	w := &workload{
		name:    "live-forward",
		why:     "one never-started live node forwarding an in-order packet stream to 4 children over a synchronous probe transport: only wire and node run, every sim layer is idle",
		opsUnit: "datagrams in and out",
		nominal: nominal,
	}
	total := verifyDatagrams + spec.datagrams
	w.setup = func(seed int64) error {
		_, err := newLiveRig(spec, seed, spec.fanout, total)
		return err
	}
	w.prepare = func(seed int64, tr *tracer) (func() (repOutput, error), error) {
		out := repOutput{layer: map[string]float64{}}
		sp := tr.begin(spanAttach)
		rig, err := newLiveRig(spec, seed, spec.fanout, total)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		rig.checkAttached(&out, spec.fanout)
		rig.verify(&out, verifyDatagrams)
		if tr == nil {
			return func() (repOutput, error) {
				rig.feed(&out, verifyDatagrams, total, nil, spanDatagram)
				return out, nil
			}, nil
		}
		// The decorated pass times every handler call. Before it, the same
		// feed runs a quarter as long at fan-out 1 on a node of its own, for
		// the fixed/per-child split; after it, the codec loops over the same
		// datagrams.
		one, err := newLiveRig(spec, seed, 1, total/4)
		if err != nil {
			return nil, err
		}
		tr.reserve(total/4 + spec.datagrams)
		scratch := repOutput{layer: map[string]float64{}}
		one.feed(&scratch, 0, total/4, tr, spanDatagramFan1)
		return func() (repOutput, error) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			rig.feed(&out, verifyDatagrams, total, tr, spanDatagram)
			runtime.ReadMemStats(&after)
			out.finish = func(r *repOutput) {
				rig.ledger(r, tr, float64(after.Mallocs-before.Mallocs), float64(after.TotalAlloc-before.TotalAlloc))
			}
			return out, nil
		}, nil
	}
	return w
}

// feed offers datagrams [from, to) to the node, one handler call at a time,
// and checks the counters afterwards. With a tracer every call is a span.
func (r *liveRig) feed(out *repOutput, from, to int, tr *tracer, kind spanKind) {
	h := r.tr.handler
	before := r.nd.Stats()
	sendsBefore := r.tr.sends
	start := time.Now()
	if tr == nil {
		for i := from; i < to; i++ {
			h(r.datagram(i))
		}
	} else {
		for i := from; i < to; i++ {
			sp := tr.begin(kind)
			h(r.datagram(i))
			tr.end(sp)
		}
	}
	wall := time.Since(start)
	after := r.nd.Stats()

	offered := int64(to - from)
	received := after.PacketsReceived - before.PacketsReceived
	sends := r.tr.sends - sendsBefore
	wantSends := offered * int64(len(r.children))
	out.attempted += int(offered + wantSends)
	if lost := offered - received; lost != 0 {
		out.failed += int(lost)
		out.problems = append(out.problems, fmt.Sprintf("%d of %d offered datagrams were not received", lost, offered))
	}
	if missing := wantSends - sends; missing != 0 {
		if missing < 0 {
			missing = -missing
		}
		out.failed += int(missing)
		out.problems = append(out.problems, fmt.Sprintf("node sent %d datagrams, want %d", sends, wantSends))
	}
	if n := rejects(after); n != 0 {
		out.fail("node rejected %d datagrams", n)
	}
	out.ops = offered + sends
	d := newDigester()
	d.int(int(received))
	d.int(int(sends))
	d.int(int(after.HighestPacket))
	d.int(after.Children)
	d.int(after.KnownMembers)
	out.digest = d.sum()
	out.layer["node.datagrams_per_s"] = float64(out.ops) / wall.Seconds()
	out.layer["node.packets_received"] = float64(received)
	out.layer["node.packets_forwarded"] = float64(sends)
	out.layer["node.rejects"] = float64(rejects(after))
}

// ledger fills the node and wire layers of one decorated repetition.
func (r *liveRig) ledger(out *repOutput, tr *tracer, mallocs, allocBytes float64) {
	st := tr.analyze()
	n := float64(st[spanDatagram].count)
	p50 := percentile(st[spanDatagram].durations, 50) * 1e3 // ns
	p50one := percentile(st[spanDatagramFan1].durations, 50) * 1e3
	fan := float64(len(r.children))
	perChild := (p50 - p50one) / (fan - 1)

	// The codec alone, over this workload's own datagrams.
	loops := len(r.offs) - 1
	if loops > 100_000 {
		loops = 100_000
	}
	start := time.Now()
	for i := 0; i < loops; i++ {
		if _, err := wire.BinaryV1.Decode(r.datagram(i)); err != nil {
			out.fail("decoding offered datagram %d: %v", i, err)
			break
		}
	}
	decodeNs := float64(time.Since(start).Nanoseconds()) / float64(loops)
	start = time.Now()
	for i := 0; i < loops; i++ {
		if _, err := wire.BinaryV1.Encode(wire.Envelope{Type: wire.TypePacket, From: r.tr.addr, Packet: r.firstSeq + int64(i)}); err != nil {
			out.fail("encoding forwarded datagram %d: %v", i, err)
			break
		}
	}
	encodeNs := float64(time.Since(start).Nanoseconds()) / float64(loops)

	out.layer["node.attach_s"] = st[spanAttach].total.Seconds()
	out.layer["node.fwd_p50_us"] = p50 / 1e3
	out.layer["node.fwd_p99_us"] = percentile(st[spanDatagram].durations, 99)
	out.layer["node.per_child_ns"] = perChild
	out.layer["node.fixed_ns"] = p50one - perChild
	out.layer["node.handler_self_ns"] = p50 - decodeNs - fan*encodeNs
	out.layer["node.allocs_per_datagram"] = mallocs / n
	out.layer["node.alloc_bytes_per_datagram"] = allocBytes / n
	out.layer["wire.decode_ns"] = decodeNs
	out.layer["wire.encode_ns"] = encodeNs
	out.layer["wire.datagram_bytes"] = float64(len(r.arena)) / float64(len(r.offs)-1)
}
