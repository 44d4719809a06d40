package live

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"omcast/internal/eventsim"
	"omcast/internal/faultnet"
	"omcast/internal/node"
	"omcast/internal/tracing"
	"omcast/internal/tracing/flight"
	"omcast/internal/wire"
)

// The overlay's timing profile: a 20 ms heartbeat (so a liveness timeout is
// 60 ms) and 100 stream packets per second, a compressed timescale that
// keeps every scenario a few seconds of virtual time.
const (
	heartbeat  = 20 * time.Millisecond
	streamRate = 100
)

// pollStep is how often the runner checks an attachment condition while it
// advances virtual time; recovery and attach times are measured to it.
const pollStep = 5 * time.Millisecond

// Bounds are the recovery-time and delivery-continuity assertions a scenario
// makes about the overlay after running under faults. Zero values disable a
// bound.
type Bounds struct {
	// RequireAllAttached demands every (live) member holds a tree position
	// at scenario end.
	RequireAllAttached bool
	// AttachWithin demands all members attach within this much of scenario
	// start — the join-under-loss bound (faults are active from birth).
	AttachWithin time.Duration
	// MaxStarvingRatio caps each member's starved-slot fraction.
	MaxStarvingRatio float64
	// MinPacketsFrac demands each member received at least this fraction of
	// the packets the source emitted during the run.
	MinPacketsFrac float64
	// MaxRepairRequestsPerNode caps any single member's issued repair
	// requests — the storm bound.
	MaxRepairRequestsPerNode int64
	// MinRepairsSuppressedTotal demands the backoff gate actually absorbed
	// load (evidence the storm bound did work, not that no storm happened).
	MinRepairsSuppressedTotal int64
	// RecoverWithin, measured after the schedule's last change, demands all
	// members re-attach within the window (heartbeat-timeout + rejoin
	// bound for crash scenarios).
	RecoverWithin time.Duration
	// MinRejoinsTotal demands the fault actually disturbed the tree: at
	// least this many rejoins summed across members (proof a crash orphaned
	// someone rather than clipping a leaf).
	MinRejoinsTotal int64
	// MinQuarantinesTotal demands the guard layer actually convicted someone:
	// at least this many quarantine sentences summed across all nodes —
	// evidence a byzantine scenario's defense engaged, not that the attack
	// politely missed.
	MinQuarantinesTotal int64
	// MinWireRejectsTotal demands wire validation caught forged or corrupted
	// datagrams, summed across all nodes.
	MinWireRejectsTotal int64
	// MinAuditFailsTotal demands the BTP delta audit caught inflated claims,
	// summed across all nodes.
	MinAuditFailsTotal int64
	// MaxReassignTime, measured from the schedule's last source crash,
	// demands every honest member is re-attached within the window — the
	// source failover bound: orphans of a dead source must find a surviving
	// source's tree, not just eventually converge.
	MaxReassignTime time.Duration
	// MaxOutageRatio caps the mean starved-slot fraction across honest
	// members — the continuity bound. Unlike MaxStarvingRatio (a
	// per-node cap) it bounds the aggregate outage a source failure is
	// allowed to inflict on the viewer population.
	MaxOutageRatio float64
}

// Scenario is one table-driven chaos run: an overlay size, a fault schedule
// and the bounds the overlay must hold under it. Durations are virtual time.
type Scenario struct {
	Name  string
	About string
	// Nodes is the member count (sources are extra). SourceBW/NodeBW
	// shape the tree (defaults 3 and 3: forces interior nodes at 8+ members).
	Nodes    int
	SourceBW float64
	NodeBW   float64
	// Sources is the source count (default 1). The first source is named
	// "source"; extras are "source1", "source2", … Every member bootstraps
	// against all of them, so the overlay federates into one membership pool
	// and orphans of a killed source can fail over to a survivor's tree.
	Sources int
	Seed    int64
	// Warmup is the attach deadline before faults arm; zero arms the
	// schedule at birth (join-under-fault scenarios).
	Warmup time.Duration
	// BootDelay staggers member boots (n00 first) so early members join
	// first and sit high in the tree — lets a scenario crash a node that is
	// reliably interior rather than racing for tree position.
	BootDelay time.Duration
	// Duration is how long the armed schedule runs before final collection.
	Duration time.Duration
	// Schedule holds the scenario's faults. Seed is stamped from the scenario
	// at run time.
	Schedule faultnet.Schedule
	Bounds   Bounds
	// Byzantine names members whose outbound links the schedule turns
	// adversarial (forge/corrupt/replay rules). They run honest protocol
	// code — the attack is modeled at the network layer — but honest peers
	// quarantine them, so per-node bounds and attachment checks exclude
	// them: the scenario asserts the *honest* overlay's continuity.
	Byzantine []string
}

// isSource reports whether an address names a source ("source", "source1",
// …). Member addresses are "nXX", so a prefix check is unambiguous.
func isSource(addr wire.Addr) bool { return strings.HasPrefix(string(addr), "source") }

// sourceAddrs returns the ordered source address list for a source count:
// "source" first (the historical single-source name), then "source1", …
func sourceAddrs(n int) []wire.Addr {
	out := make([]wire.Addr, n)
	out[0] = "source"
	for i := 1; i < n; i++ {
		out[i] = wire.Addr(fmt.Sprintf("source%d", i))
	}
	return out
}

// byzantine reports whether an address is in the scenario's byzantine set.
func (s Scenario) byzantine(addr wire.Addr) bool {
	for _, b := range s.Byzantine {
		if wire.Addr(b) == addr {
			return true
		}
	}
	return false
}

// schedule returns the scenario's schedule with its seed stamped.
func (s Scenario) schedule() *faultnet.Schedule {
	sch := s.Schedule
	sch.Seed = s.Seed
	return &sch
}

// Plan renders the scenario's expanded fault plan — a pure function of the
// scenario, no overlay required.
func (s Scenario) Plan() string { return s.schedule().FormatPlan() }

// NodeReport pairs an address with its final protocol stats. Byzantine marks
// members the scenario declared adversarial (excluded from per-node bounds).
type NodeReport struct {
	Addr      wire.Addr
	Stats     node.Stats
	Byzantine bool
}

// Report is a scenario run's outcome.
type Report struct {
	Scenario string
	Seed     int64
	// Bounds are the scenario's bounds; a latency below is measured exactly
	// when its bound is set.
	Bounds Bounds
	// Plan is the expanded fault plan (pure function of the scenario).
	Plan string
	// FaultLog and FaultStats are the injection-layer records in canonical
	// order.
	FaultLog   string
	FaultStats string
	// AttachTime is how long all members took to attach (when measured).
	// The three latencies are measured to pollStep.
	AttachTime time.Duration
	// RecoveryTime is how long after the last schedule change every member
	// was attached again (when measured).
	RecoveryTime time.Duration
	// ReassignTime is how long after the schedule's last source crash every
	// honest member was attached again (when MaxReassignTime is set) — the
	// source failover latency.
	ReassignTime time.Duration
	// Nodes holds final member stats sorted by address (source first).
	Nodes []NodeReport
	// Spans holds every causal span the run produced: per-node flight
	// recorder snapshots (source first, then members by address — rings
	// survive crash/restart, so a crashed node's pre-crash episodes are
	// kept) followed by fault-window annotation spans on a synthetic
	// "faultnet" track, so a timeline view shows which episodes overlap
	// which injected faults.
	Spans []tracing.Span
	// Failures lists violated bounds; empty means the scenario passed.
	Failures []string
}

// fail records a violated bound.
func (r *Report) fail(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// OK reports whether every bound held.
func (r *Report) OK() bool { return len(r.Failures) == 0 }

// Summary renders a one-line verdict, then each latency the run measured
// against its bound.
func (r *Report) Summary() string {
	var b strings.Builder
	if r.OK() {
		members := 0
		for _, nr := range r.Nodes {
			if !isSource(nr.Addr) {
				members++
			}
		}
		fmt.Fprintf(&b, "%s seed=%d ok (%d nodes)", r.Scenario, r.Seed, members)
	} else {
		fmt.Fprintf(&b, "%s seed=%d FAIL: %v", r.Scenario, r.Seed, r.Failures)
	}
	for _, l := range []struct {
		name        string
		took, bound time.Duration
	}{
		{"attach", r.AttachTime, r.Bounds.AttachWithin},
		{"reassign", r.ReassignTime, r.Bounds.MaxReassignTime},
		{"recovery", r.RecoveryTime, r.Bounds.RecoverWithin},
	} {
		if l.bound > 0 {
			fmt.Fprintf(&b, " %s=%v (bound %v)", l.name, l.took, l.bound)
		}
	}
	return b.String()
}

// Harness boots an overlay on an in-memory network behind a fault network,
// all on one virtual clock, and keeps crash/restarted nodes consistent with
// the schedule. Nothing in it runs until advance drives its simulator, so a
// run is one goroutine and a function of its scenario.
type Harness struct {
	sc  Scenario
	Net *Network
	sim *eventsim.Simulator
	mem *node.MemNetwork

	sources map[wire.Addr]*node.Node
	nodes   map[wire.Addr]*node.Node
	cfgs    map[wire.Addr]node.Config
	// rings are the per-address span flight recorders. A restarted node
	// reuses its address's ring, so one timeline spans its whole history
	// across crashes.
	rings map[wire.Addr]*flight.Ring
}

// NewHarness builds the overlay (source + members, all attached to the fault
// network) without arming the schedule; a BootDelay advances the clock
// between member boots.
func NewHarness(scn Scenario) (*Harness, error) {
	if scn.Nodes <= 0 {
		scn.Nodes = 8
	}
	if scn.SourceBW <= 0 {
		scn.SourceBW = 3
	}
	if scn.NodeBW <= 0 {
		scn.NodeBW = 3
	}
	if scn.Sources <= 0 {
		scn.Sources = 1
	}
	sim := eventsim.New()
	clock := node.NewVirtualClock(sim)
	h := &Harness{
		sc:      scn,
		sim:     sim,
		mem:     node.NewMemNetwork(clock, nil),
		sources: make(map[wire.Addr]*node.Node),
		nodes:   make(map[wire.Addr]*node.Node),
		cfgs:    make(map[wire.Addr]node.Config),
		rings:   make(map[wire.Addr]*flight.Ring),
	}
	h.Net = NewNetwork(Options{
		Seed:     scn.Seed,
		Schedule: scn.schedule(),
		Clock:    clock,
		NodeHook: h.nodeHook,
	})

	base := node.Config{
		HeartbeatInterval: heartbeat,
		GossipInterval:    heartbeat * 5 / 4,
		StreamRate:        streamRate,
		BufferPackets:     512,
		RecoveryGroup:     3,
		PlaybackBuffer:    500 * time.Millisecond,
		Seed:              scn.Seed,
		Clock:             clock,
	}

	srcs := sourceAddrs(scn.Sources)
	for _, a := range srcs {
		srcCfg := base
		srcCfg.Source = true
		srcCfg.Bandwidth = scn.SourceBW
		if err := h.boot(a, srcCfg); err != nil {
			h.Close()
			return nil, err
		}
	}
	for i := 0; i < scn.Nodes; i++ {
		cfg := base
		cfg.Bandwidth = scn.NodeBW
		cfg.Bootstrap = append([]wire.Addr(nil), srcs...)
		if err := h.boot(wire.Addr(fmt.Sprintf("n%02d", i)), cfg); err != nil {
			h.Close()
			return nil, err
		}
		if scn.BootDelay > 0 && i < scn.Nodes-1 {
			h.advance(scn.BootDelay)
		}
	}
	return h, nil
}

// advance runs the overlay for d of virtual time.
func (h *Harness) advance(d time.Duration) { _ = h.sim.Run(h.sim.Now() + d) }

// boot creates (or recreates) one node behind the fault network.
func (h *Harness) boot(addr wire.Addr, cfg node.Config) error {
	ep, err := h.mem.Endpoint(addr)
	if err != nil {
		return fmt.Errorf("faultnet: endpoint %s: %w", addr, err)
	}
	ring := h.rings[addr]
	if ring == nil {
		ring = flight.NewRing(0)
		h.rings[addr] = ring
	}
	cfg.Trace = ring
	nd := node.New(cfg, h.Net.Wrap(ep))
	if cfg.Source {
		h.sources[addr] = nd
	} else {
		h.nodes[addr] = nd
	}
	h.cfgs[addr] = cfg
	nd.Start()
	return nil
}

// nodeHook implements crash/restart: down kills the node process (its
// endpoint frees the address), up boots a fresh node with the same config.
// Sources are killable too — a crash event naming a source address takes the
// stream down with it, which is the source-failover scenario.
func (h *Harness) nodeHook(addr string, up bool) {
	a := wire.Addr(addr)
	if !up {
		nd := h.nodes[a]
		if nd == nil {
			nd = h.sources[a]
		}
		delete(h.nodes, a)
		delete(h.sources, a)
		if nd != nil {
			nd.Kill()
		}
		return
	}
	if cfg, known := h.cfgs[a]; known {
		_ = h.boot(a, cfg) // rebirth failures surface as a missing node
	}
}

// Members snapshots the current live node set sorted by address: surviving
// sources first (sorted), then members. A crashed source is absent, exactly
// like a crashed member.
func (h *Harness) Members() []NodeReport {
	var out []NodeReport
	for _, a := range sortedAddrs(h.sources) {
		out = append(out, NodeReport{Addr: a, Stats: h.sources[a].Stats()})
	}
	for _, a := range sortedAddrs(h.nodes) {
		out = append(out, NodeReport{Addr: a, Stats: h.nodes[a].Stats(), Byzantine: h.sc.byzantine(a)})
	}
	return out
}

// Spans drains every flight recorder: source rings first (sorted), then
// member rings sorted by address — the stable order the determinism and
// export layers rely on. Rings survive crashes, so a killed source's
// pre-crash episodes are kept.
func (h *Harness) Spans() []tracing.Span {
	var out []tracing.Span
	for _, sources := range []bool{true, false} {
		for _, a := range sortedAddrs(h.rings) {
			if isSource(a) == sources {
				out = append(out, h.rings[a].Snapshot()...)
			}
		}
	}
	return out
}

// sortedAddrs returns m's keys in address order.
func sortedAddrs[V any](m map[wire.Addr]V) []wire.Addr {
	addrs := make([]wire.Addr, 0, len(m))
	for a := range m {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	return addrs
}

// faultSpans renders the scenario's fault schedule as annotation
// spans on a synthetic "faultnet" track: one span per timed event, covering
// [At, Until] for windowed faults (a partition, a crash with restart) and
// instantaneous for one-shot changes. Overlaying them on the node tracks
// shows which recovery episodes ran under which injected fault.
func faultSpans(scn Scenario) []tracing.Span {
	sch := scn.schedule()
	if len(sch.Events) == 0 {
		return nil
	}
	var out []tracing.Span
	tr := tracing.NewNode(scn.Seed, "faultnet", tracing.RecorderFunc(func(sp tracing.Span) {
		out = append(out, sp)
	}))
	for _, ev := range sch.Events {
		end := ev.At.D()
		if ev.Until.D() > end {
			end = ev.Until.D()
		}
		sp := tr.Start(tracing.KindFault, 0, ev.At.D())
		if ev.Node != "" {
			sp.Attr("node", ev.Node)
		}
		if ev.From != "" || ev.To != "" {
			sp.Attr("link", ev.From+">"+ev.To)
		}
		sp.End(end, string(ev.Action))
	}
	return out
}

// AllAttached reports whether the full member set is alive and every honest
// member holds a tree position (false while any node is crashed). Byzantine
// members are exempt: once quarantined by every honest peer they may be
// permanently detached, and that is the defense working, not a failure.
func (h *Harness) AllAttached() bool {
	if len(h.nodes) != h.sc.Nodes {
		return false
	}
	for a, nd := range h.nodes {
		if h.sc.byzantine(a) {
			continue
		}
		if !nd.Stats().Attached {
			return false
		}
	}
	return true
}

// WaitAttached advances the overlay in pollStep steps until the full
// membership is attached or within has passed, returning the elapsed virtual
// time and success.
func (h *Harness) WaitAttached(within time.Duration) (time.Duration, bool) {
	start := h.sim.Now()
	for !h.AllAttached() {
		if h.sim.Now()-start >= within {
			return h.sim.Now() - start, false
		}
		h.advance(min(pollStep, start+within-h.sim.Now()))
	}
	return h.sim.Now() - start, true
}

// Close tears the overlay and fault network down.
func (h *Harness) Close() {
	h.Net.Close()
	for _, nd := range h.sources {
		nd.Kill()
	}
	for _, nd := range h.nodes {
		nd.Kill()
	}
	h.mem.Close()
}

// lastChangeAt returns the offset of the schedule's final change.
func lastChangeAt(sch *faultnet.Schedule) time.Duration {
	var last time.Duration
	for _, c := range sch.Expand() {
		if c.T > last {
			last = c.T
		}
	}
	return last
}

// lastSourceCrashAt returns the offset of the schedule's final crash
// event that names a source address — the instant the failover clock
// starts from.
func lastSourceCrashAt(sch *faultnet.Schedule) time.Duration {
	var last time.Duration
	for _, ev := range sch.Events {
		if ev.Action == faultnet.ActionCrash && isSource(wire.Addr(ev.Node)) && ev.At.D() > last {
			last = ev.At.D()
		}
	}
	return last
}

// Run executes one scenario end to end and evaluates its bounds.
func Run(scn Scenario) (*Report, error) {
	h, err := NewHarness(scn)
	if err != nil {
		return nil, err
	}
	defer h.Close()

	sch := h.Net.opts.Schedule
	rep := &Report{
		Scenario: scn.Name,
		Seed:     scn.Seed,
		Bounds:   scn.Bounds,
		Plan:     sch.FormatPlan(),
	}

	if scn.Warmup > 0 {
		if _, ok := h.WaitAttached(scn.Warmup); !ok {
			rep.fail("overlay did not form within warmup %s", scn.Warmup)
		}
	}

	start := h.sim.Now()
	h.Net.Start()

	if scn.Bounds.AttachWithin > 0 {
		elapsed, ok := h.WaitAttached(scn.Bounds.AttachWithin)
		rep.AttachTime = elapsed
		if !ok {
			rep.fail("members not all attached within %s of start (waited %s)",
				scn.Bounds.AttachWithin, elapsed)
		}
	}

	// Run the scenario out in pollStep steps. settled is the offset into
	// the run by which the overlay was last seen to be whole again: the poll
	// after the last one that found a member detached (or absent).
	var settled time.Duration
	for h.sim.Now() < start+scn.Duration {
		h.advance(min(pollStep, start+scn.Duration-h.sim.Now()))
		if !h.AllAttached() {
			settled = h.sim.Now() + pollStep - start
		}
	}

	// waitSince returns how long after the offset at into the run the
	// overlay was whole again, giving it what is left of bound to get there
	// when it is not whole at the end of the run, and whether that was
	// within bound.
	waitSince := func(at, bound time.Duration) (time.Duration, bool) {
		if !h.AllAttached() {
			h.WaitAttached(max(bound-(h.sim.Now()-start-at), 0))
			settled = h.sim.Now() - start
		}
		took := max(settled-at, 0)
		return took, took <= bound && h.AllAttached()
	}
	if b := scn.Bounds.MaxReassignTime; b > 0 {
		// The failover clock starts at the last source kill.
		var ok bool
		rep.ReassignTime, ok = waitSince(lastSourceCrashAt(sch), b)
		if !ok {
			rep.fail("members not all re-assigned within %s of last source kill (took %s)",
				b, rep.ReassignTime)
		}
	}
	if b := scn.Bounds.RecoverWithin; b > 0 {
		// The recovery clock starts at the schedule's last change (the final
		// heal/restart).
		var ok bool
		rep.RecoveryTime, ok = waitSince(lastChangeAt(sch), b)
		if !ok {
			rep.fail("overlay not re-attached within %s of last change (took %s)", b, rep.RecoveryTime)
		}
	}

	if scn.Bounds.RequireAllAttached {
		// Under sustained faults a member can be mid-rejoin at any given
		// instant (a 20% loss link occasionally eats three heartbeats in a
		// row). The bound is convergence, not a lucky snapshot: give the
		// overlay one short grace window to be simultaneously attached.
		h.WaitAttached(time.Second)
	}
	rep.Nodes = h.Members()
	rep.Spans = append(h.Spans(), faultSpans(scn)...)
	rep.FaultLog = h.Net.FormatLog()
	rep.FaultStats = h.Net.FormatStats()
	evaluate(rep, scn, h.sim.Now()-start)
	return rep, nil
}

// evaluate applies the scenario bounds to the collected stats.
func evaluate(rep *Report, scn Scenario, ran time.Duration) {
	b := scn.Bounds
	alive := 0
	for _, nr := range rep.Nodes {
		if !isSource(nr.Addr) {
			alive++
		}
	}
	if b.RequireAllAttached && alive < scn.Nodes {
		rep.fail("only %d of %d members alive at end", alive, scn.Nodes)
	}
	var suppressed, rejoins int64
	var quarantines, wireRejects, auditFails int64
	var starveSum float64
	honest := 0
	sourcePackets := int64(ran.Seconds() * streamRate)
	for _, nr := range rep.Nodes {
		s := nr.Stats
		// Guard totals sum over every node, sources included: any honest
		// participant convicting a byzantine peer is evidence.
		quarantines += s.GuardQuarantines
		wireRejects += s.WireRejects
		auditFails += s.GuardAuditFails
		if isSource(nr.Addr) {
			continue
		}
		if nr.Byzantine {
			// Adversarial members are outside the delivery contract: honest
			// peers quarantine them, so attachment, starvation and packet
			// bounds do not apply.
			continue
		}
		suppressed += s.RepairsSuppressed
		rejoins += s.Rejoins + s.StallRejoins
		starveSum += s.StarvingRatio()
		honest++
		if b.RequireAllAttached && !s.Attached {
			rep.fail("%s detached at end", nr.Addr)
		}
		if b.MaxStarvingRatio > 0 && s.StarvingRatio() > b.MaxStarvingRatio {
			rep.fail("%s starving ratio %.3f > %.3f", nr.Addr, s.StarvingRatio(), b.MaxStarvingRatio)
		}
		if b.MinPacketsFrac > 0 {
			want := int64(b.MinPacketsFrac * float64(sourcePackets))
			if s.PacketsReceived < want {
				rep.fail("%s received %d packets, want >= %d (%.0f%% of ~%d)",
					nr.Addr, s.PacketsReceived, want, b.MinPacketsFrac*100, sourcePackets)
			}
		}
		if b.MaxRepairRequestsPerNode > 0 && s.RepairRequests > b.MaxRepairRequestsPerNode {
			rep.fail("%s issued %d repair requests > bound %d (storm)",
				nr.Addr, s.RepairRequests, b.MaxRepairRequestsPerNode)
		}
	}
	if b.MinRepairsSuppressedTotal > 0 && suppressed < b.MinRepairsSuppressedTotal {
		rep.fail("repair backoff suppressed %d requests, want >= %d (gate never engaged)",
			suppressed, b.MinRepairsSuppressedTotal)
	}
	if b.MinRejoinsTotal > 0 && rejoins < b.MinRejoinsTotal {
		rep.fail("members rejoined %d times, want >= %d (fault never disturbed the tree)",
			rejoins, b.MinRejoinsTotal)
	}
	if b.MinQuarantinesTotal > 0 && quarantines < b.MinQuarantinesTotal {
		rep.fail("nodes quarantined %d peers, want >= %d (guard never convicted)",
			quarantines, b.MinQuarantinesTotal)
	}
	if b.MinWireRejectsTotal > 0 && wireRejects < b.MinWireRejectsTotal {
		rep.fail("nodes wire-rejected %d datagrams, want >= %d (validation never engaged)",
			wireRejects, b.MinWireRejectsTotal)
	}
	if b.MinAuditFailsTotal > 0 && auditFails < b.MinAuditFailsTotal {
		rep.fail("nodes failed %d BTP audits, want >= %d (forged claims never caught)",
			auditFails, b.MinAuditFailsTotal)
	}
	if b.MaxOutageRatio > 0 && honest > 0 {
		mean := starveSum / float64(honest)
		if mean > b.MaxOutageRatio {
			rep.fail("mean starving ratio %.3f across %d honest members > outage bound %.3f",
				mean, honest, b.MaxOutageRatio)
		}
	}
}
