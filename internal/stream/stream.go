// Package stream implements the packet-level streaming model behind the
// paper's CER evaluation (Section 6, Figures 12-14): a constant-rate stream
// (10 packets/second), per-member playback buffers, parent-failure outages
// (5 s detection + 10 s rejoin), Explicit Loss Notification down the failed
// subtree, recovery-group repair planned by the cer package, and the
// starving-time-ratio metric (total disruption time over total view time).
//
// The model is episode-lazy: packets flow implicitly while the tree is
// healthy (they arrive well inside the buffer), and exact per-sequence
// accounting happens only inside disruption episodes. This yields the same
// per-packet outcomes as simulating every hop of every packet at a tiny
// fraction of the event count (see DESIGN.md).
//
// Episode accounting is interval-based: the repair plan is computed once per
// episode into a dense arrival buffer (cer.PlanRecoveryInto), converted to a
// per-packet slack array (deadline minus arrival), and each subtree member's
// missed-packet count falls out of one binary search over the sorted slacks
// — a member at repair-hop distance h misses exactly the packets with slack
// below h. Per-member loss state is one watermark below which every
// sequence is accounted (spanSet), never per-packet.
//
// There is one episode loop, traced or not: with Config.Trace set it also
// records each episode as a repair span with detect, fetch and stall
// children, so the spans an operator reads describe the accounting the
// figures execute. The per-packet loop that interval accounting replaced
// survives only as a test oracle (equivalence_test.go).
package stream

import (
	"math"
	"slices"
	"sort"
	"time"

	"omcast/internal/cer"
	"omcast/internal/metrics"
	"omcast/internal/overlay"
	"omcast/internal/stats"
	"omcast/internal/topology"
	"omcast/internal/tracing"
	"omcast/internal/xrand"
)

// Paper defaults (Section 6, "Effects of Recovery Group Size").
const (
	// DefaultRate is the stream rate in packets per second.
	DefaultRate = 10.0
	// DefaultBuffer is the playback buffer ("5 seconds, or 50 packets").
	DefaultBuffer = 5 * time.Second
	// DefaultDetectDelay is the parent-failure detection time.
	DefaultDetectDelay = 5 * time.Second
	// DefaultRejoinDelay is the parent re-finding time after detection.
	DefaultRejoinDelay = 10 * time.Second
	// DefaultResidualMax bounds the uniform residual bandwidth members
	// donate to error recovery, in packets per second.
	DefaultResidualMax = 9.0
	// DefaultMinViewTime is the minimum view time for a member's starving
	// ratio to enter the statistics (very short visits carry no signal).
	DefaultMinViewTime = 30 * time.Second
)

// none marks an ID with no present member in the model's slot table.
const none int32 = -1

// lostSlack marks a packet with no repair arrival in the slack array; it
// compares below every real hop distance.
const lostSlack = time.Duration(math.MinInt64)

// Config parameterises the streaming model. The source sends DefaultRate
// packets per second, each member donates a residual bandwidth drawn from
// U[0, DefaultResidualMax] to recovery, and every orphan detects its parent's
// failure DefaultDetectDelay after it and is back in the tree
// DefaultRejoinDelay later; no figure varies these.
type Config struct {
	Buffer time.Duration // playback buffer; 0 means DefaultBuffer
	// GroupSize is the recovery group size K.
	GroupSize int
	// Striped selects CER multi-source striping; false is the
	// single-source baseline.
	Striped bool
	// MeasureFrom discards starving ratios finalised before this time
	// (warm-up). Zero keeps everything.
	MeasureFrom time.Duration
	// Trace, if non-nil, records each outage as a causal "repair" span
	// with detect/fetch/stall children (see internal/tracing). The episode
	// path is the same either way; nil makes its span calls no-ops.
	Trace *tracing.Tracer
}

func (c Config) withDefaults() Config {
	if c.Buffer <= 0 {
		c.Buffer = DefaultBuffer
	}
	if c.GroupSize <= 0 {
		c.GroupSize = 1
	}
	return c
}

// state is the per-member playback bookkeeping. States live in one flat
// slice with a slot per present member, so there are no per-member heap
// objects, and the slice is reserved once, for the live membership the tree
// reserved its own slots for, not for the arrivals.
type state struct {
	viewStart time.Duration
	// residual is the bandwidth (packets per second) this member donates to
	// others' recovery.
	residual float64
	// starved accumulates playback slots whose packet missed its deadline.
	starved time.Duration
	// outageUntil marks the end of the member's current feed interruption;
	// a member cannot serve repairs while its own feed is down.
	outageUntil time.Duration
	// acc tracks the sequence numbers already accounted (a watermark), so
	// overlapping episodes are not double-counted.
	acc spanSet
}

// Model tracks playback quality for every overlay member.
type Model struct {
	cfg      Config
	tree     *overlay.Tree
	delay    func(a, b topology.NodeID) time.Duration
	selector cer.Selector
	rng      *xrand.Source

	// states holds one slot per present member; a departed member's slot
	// goes on free for the next arrival. The first Register reserves both
	// for the tree's reservation (Tree.Reserved), which bounds the live
	// membership. slotOf is indexed by member ID and holds the member's
	// slot, or none when it is not present: IDs are sequential and never
	// reused, so a flat table serves where a map would. It cannot be the
	// tree's own ID table, because Depart runs after the member has left the
	// tree.
	states []state
	free   []int32
	slotOf []int32
	// ratios holds the finalised starving ratios in finalisation order, in
	// blocks of ratioBlock: a full block is never copied, and Result lays
	// the blocks end to end once.
	ratios [][]float64

	// Reusable episode scratch: a failure's orphans, repair arrivals,
	// per-packet slacks, the sorted slack copy and the server list. All
	// bounded by the degree, the episode span or the group size, and reused
	// forever.
	orphanBuf  []*overlay.Member
	arrivalBuf []time.Duration
	slackBuf   []time.Duration
	sortedBuf  []time.Duration
	serverBuf  []cer.Server

	// Episodes counts processed outage episodes (one per orphan per
	// failure).
	Episodes int
	// ELNMessages counts explicit-loss-notification sends (one per edge of
	// each disrupted subtree per episode; sequence gaps are batched).
	ELNMessages int
	// RepairRequests counts recovery-group requests issued (orphans only —
	// descendants rely on upstream recovery thanks to ELN).
	RepairRequests int
	// PacketsRepaired and PacketsLost tally the orphans' missing packets.
	PacketsRepaired int
	PacketsLost     int
}

// Instrument registers the CER streaming model's instruments on reg:
// episode, ELN-message and repair-request counters plus the per-packet
// repair outcome tallies, each read from the field above that keeps it.
func (m *Model) Instrument(reg *metrics.Registry) {
	reg.CounterFunc("omcast_cer_episodes_total", "Outage episodes processed (one per orphan per failure).",
		func() float64 { return float64(m.Episodes) })
	reg.CounterFunc("omcast_cer_eln_messages_total", "Explicit-loss-notification messages sent down disrupted subtrees.",
		func() float64 { return float64(m.ELNMessages) })
	reg.CounterFunc("omcast_cer_repair_requests_total", "Recovery-group repair requests issued by orphans.",
		func() float64 { return float64(m.RepairRequests) })
	reg.CounterFunc("omcast_cer_packets_repaired_total", "Orphan packets recovered in time by the recovery group.",
		func() float64 { return float64(m.PacketsRepaired) })
	reg.CounterFunc("omcast_cer_packets_lost_total", "Orphan packets missing their playback deadline despite recovery.",
		func() float64 { return float64(m.PacketsLost) })
}

// NewModel builds a streaming model over tree. selector chooses recovery
// groups; delay supplies underlay latencies; rng draws residual bandwidths.
func NewModel(tree *overlay.Tree, delay func(a, b topology.NodeID) time.Duration, selector cer.Selector, rng *xrand.Source, cfg Config) *Model {
	return &Model{
		cfg:      cfg.withDefaults(),
		tree:     tree,
		delay:    delay,
		selector: selector,
		rng:      rng,
	}
}

// gen returns the generation time of packet n.
func (m *Model) gen(n int64) time.Duration {
	return time.Duration(float64(n) / DefaultRate * float64(time.Second))
}

// packetAfter returns the first sequence number generated at or after t.
func (m *Model) packetAfter(t time.Duration) int64 {
	n := int64(t.Seconds() * DefaultRate)
	for m.gen(n) < t {
		n++
	}
	return n
}

// slot returns the present member id's state slot, or none.
func (m *Model) slot(id overlay.MemberID) int32 {
	if id <= 0 || int64(id) >= int64(len(m.slotOf)) {
		return none
	}
	return m.slotOf[id]
}

// stateOf returns the live state for id, or nil. The pointer is valid until
// the next Register.
func (m *Model) stateOf(id overlay.MemberID) *state {
	i := m.slot(id)
	if i == none {
		return nil
	}
	return &m.states[i]
}

// Register starts playback tracking for a member (call on join).
func (m *Model) Register(member *overlay.Member, now time.Duration) {
	if m.slot(member.ID) != none {
		return
	}
	for int64(len(m.slotOf)) <= int64(member.ID) {
		m.slotOf = append(m.slotOf, none)
	}
	var i int32
	if n := len(m.free); n > 0 {
		i = m.free[n-1]
		m.free = m.free[:n-1]
	} else {
		if m.states == nil {
			m.states = make([]state, 0, m.tree.Reserved())
			m.free = make([]int32, 0, m.tree.Reserved())
		}
		i = int32(len(m.states))
		m.states = append(m.states, state{})
	}
	m.slotOf[member.ID] = i
	m.states[i] = state{
		viewStart: now,
		residual:  m.rng.Float64() * DefaultResidualMax,
		acc:       spanSet{watermark: -1},
	}
}

// Depart finalises a member's starving ratio (call when it leaves) and
// frees its slot.
func (m *Model) Depart(id overlay.MemberID, now time.Duration) {
	i := m.slot(id)
	if i == none {
		return
	}
	m.finalize(&m.states[i], now)
	m.slotOf[id] = none
	m.free = append(m.free, i)
}

// Finish finalises every still-present member at the end of a run, in
// ascending ID order, the order slotOf is indexed in: the ratios it appends
// feed the reported mean and CDF, so slot order may not leak into results.
func (m *Model) Finish(now time.Duration) {
	for id, i := range m.slotOf {
		if i != none {
			m.Depart(overlay.MemberID(id), now)
		}
	}
}

func (m *Model) finalize(st *state, now time.Duration) {
	view := now - st.viewStart
	if view < DefaultMinViewTime || now < m.cfg.MeasureFrom {
		return
	}
	starved := st.starved
	if starved > view {
		starved = view
	}
	if n := len(m.ratios); n == 0 || len(m.ratios[n-1]) == ratioBlock {
		m.ratios = append(m.ratios, make([]float64, 0, ratioBlock))
	}
	last := &m.ratios[len(m.ratios)-1]
	*last = append(*last, float64(starved)/float64(view))
}

// ratioBlock is the length of one block of finalised ratios (8 KiB).
const ratioBlock = 1024

// OnFailure processes an abrupt departure: every child of the failed member
// becomes the root of a disrupted subtree, runs CER recovery, and the
// resulting per-packet outcomes are folded into every subtree member's
// playback accounting. Call before the failed member is removed from the
// tree.
func (m *Model) OnFailure(failed *overlay.Member, now time.Duration) {
	m.orphanBuf = failed.AppendChildren(m.orphanBuf[:0])
	orphans := m.orphanBuf
	if len(orphans) == 0 {
		return
	}
	outageEnd := now + DefaultDetectDelay + DefaultRejoinDelay
	// Phase 1: mark every affected member's outage window first, so that
	// recovery-server health checks in phase 2 see members of concurrently
	// failed sibling subtrees as unavailable.
	for _, c := range orphans {
		m.tree.VisitSubtree(c, func(d *overlay.Member) {
			if st := m.stateOf(d.ID); st != nil && st.viewStart <= now && st.outageUntil < outageEnd {
				st.outageUntil = outageEnd
			}
		})
	}
	// Phase 2: each orphan plans recovery and the plan applies to its whole
	// subtree (ELN suppresses duplicate recovery below the orphan).
	for _, c := range orphans {
		m.runEpisode(c, now, outageEnd)
	}
}

// runEpisode handles one orphan's outage. The span calls are no-ops on the
// nil builder an untraced run gets: tracing observes this loop, it never
// replaces it.
func (m *Model) runEpisode(c *overlay.Member, failedAt, outageEnd time.Duration) {
	m.Episodes++
	first := m.packetAfter(failedAt)
	last := m.packetAfter(outageEnd) - 1
	if last < first {
		return
	}
	requestAt := failedAt + DefaultDetectDelay
	// The episode span covers the service-interruption window (the paper's
	// resilience metric); its children decompose it causally.
	sp := m.cfg.Trace.Start(tracing.KindRepair, int64(c.ID), failedAt).
		AttrInt("first", first).AttrInt("last", last)
	sp.Child(tracing.KindDetect, int64(c.ID), failedAt).End(requestAt, "gap-detected")
	servers, ep := m.episodeInputs(c, first, last, requestAt, outageEnd)
	m.arrivalBuf = cer.PlanRecoveryInto(ep, servers, m.arrivalBuf)
	arrivals := m.arrivalBuf
	if sp != nil {
		for _, fd := range cer.ServerPlans(ep, servers, arrivals) {
			start := requestAt + fd.Server.ChainDelay
			if fd.Phase == "backlog" {
				start = outageEnd
			}
			sp.Child(tracing.KindFetch, int64(c.ID), start).
				AttrInt("server", int64(fd.Server.Member.ID)).
				AttrInt("packets", int64(fd.Packets)).
				End(fd.Last, fd.Phase)
		}
	}
	// slack(n) = playback deadline minus repair arrival: a member whose
	// repairs travel one extra hop h misses exactly the packets with
	// slack < h. Lost packets get a -inf slack. One sort, then each
	// member's miss count is a binary search; a leaf orphan, the episode's
	// only member, counts its misses in one pass instead and sorts nothing.
	count := len(arrivals)
	if cap(m.slackBuf) < count {
		m.slackBuf = make([]time.Duration, count)
	}
	slacks := m.slackBuf[:count]
	for i, at := range arrivals {
		if at < 0 {
			slacks[i] = lostSlack
		} else {
			slacks[i] = m.gen(first+int64(i)) + m.cfg.Buffer - at
		}
	}
	var sorted []time.Duration
	if c.NumChildren() > 0 {
		sorted = append(m.sortedBuf[:0], slacks...)
		slices.Sort(sorted)
		m.sortedBuf = sorted
	}
	slot := time.Duration(float64(time.Second) / DefaultRate)
	repairedTotal, lostTotal := 0, 0
	// Fold into the subtree. ELN: c's loss notifications walk the subtree
	// edges so descendants wait for upstream repair instead of re-requesting.
	m.tree.VisitSubtree(c, func(d *overlay.Member) {
		if d != c {
			m.ELNMessages++
		}
		st := m.stateOf(d.ID)
		if st == nil || st.viewStart > failedAt {
			return
		}
		hop := time.Duration(0)
		if d != c {
			hop = m.delay(c.Attach(), d.Attach())
		}
		u := st.acc.uncovered(first, last+1)
		missed := 0
		if u.from == first && sorted != nil {
			// Whole episode uncovered (the steady-state case): count via
			// the sorted slacks.
			missed = sort.Search(len(sorted), func(i int) bool { return sorted[i] >= hop })
		} else {
			// A leaf orphan's window, or one the watermark clips: linear
			// over the raw slack window.
			for n := u.from; n < u.to; n++ {
				if slacks[n-first] < hop {
					missed++
				}
			}
		}
		st.starved += time.Duration(missed) * slot
		if d == c {
			repairedTotal += int(u.to-u.from) - missed
			lostTotal += missed
			if sp != nil && missed > 0 {
				m.traceStall(sp, c, u, first, slacks, missed, slot)
			}
		}
		st.acc.add(last + 1)
	})
	m.PacketsRepaired += repairedTotal
	m.PacketsLost += lostTotal
	outcome := "filled"
	switch {
	case lostTotal > 0 && repairedTotal > 0:
		outcome = "partial"
	case lostTotal > 0:
		outcome = "abandoned"
	}
	sp.AttrInt("repaired", int64(repairedTotal)).AttrInt("lost", int64(lostTotal)).
		End(outageEnd, outcome)
}

// traceStall records the orphan's starving window as a stall child of its
// repair span: from the playback deadline of the first packet it missed to
// one slot past that of the last. u is the orphan's uncovered range; at
// hop 0 a missed packet is one with negative slack.
func (m *Model) traceStall(sp *tracing.SpanBuilder, c *overlay.Member, u span, first int64, slacks []time.Duration, missed int, slot time.Duration) {
	firstMiss, lastMiss := int64(-1), int64(-1)
	for n := u.from; n < u.to; n++ {
		if slacks[n-first] < 0 {
			if firstMiss < 0 {
				firstMiss = n
			}
			lastMiss = n
		}
	}
	sp.Child(tracing.KindStall, int64(c.ID), m.gen(firstMiss)+m.cfg.Buffer).
		AttrInt("slots", int64(missed)).
		End(m.gen(lastMiss)+m.cfg.Buffer+slot, "starved")
}

// episodeInputs selects the recovery group for orphan c and assembles the
// usable server list (reusing the model's scratch) plus the episode
// description handed to the cer planner.
func (m *Model) episodeInputs(c *overlay.Member, first, last int64, requestAt, resumeAt time.Duration) ([]cer.Server, cer.Episode) {
	group := m.selector.Select(c, m.cfg.GroupSize)
	m.RepairRequests++
	servers := cer.AppendServers(m.serverBuf[:0], c, group, m.delay, func(g *overlay.Member) (float64, bool) {
		st := m.stateOf(g.ID)
		if st == nil || st.outageUntil > requestAt {
			return 0, false // the server's own feed is down: it cannot help
		}
		return st.residual / DefaultRate, true
	})
	m.serverBuf = servers
	ep := cer.Episode{
		FirstMissing: first,
		LastMissing:  last,
		RequestAt:    requestAt,
		ResumeAt:     resumeAt,
		Rate:         DefaultRate,
		Striped:      m.cfg.Striped,
	}
	return servers, ep
}

// Result summarises playback quality.
type Result struct {
	// AvgStarvingRatio is the mean starving-time ratio over all finalised
	// members (the paper reports it in percent).
	AvgStarvingRatio float64
	// Ratios holds the per-member ratios.
	Ratios []float64
	// Members is the number of members contributing.
	Members int
}

// Result gathers the metrics accumulated so far. Ratios is the caller's own
// slice.
func (m *Model) Result() Result {
	ratios := slices.Concat(m.ratios...)
	return Result{
		AvgStarvingRatio: stats.Mean(ratios),
		Ratios:           ratios,
		Members:          len(ratios),
	}
}
