package node

import (
	"fmt"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"omcast/internal/eventsim"
	"omcast/internal/wire"
)

// fast is the accelerated timing profile the integration tests run at.
var fast = Config{
	HeartbeatInterval: 20 * time.Millisecond,
	GossipInterval:    25 * time.Millisecond,
	StreamRate:        100,
	BufferPackets:     512,
	RecoveryGroup:     3,
}

// world is a virtual-time test bed: a simulator, a clock on it and an
// in-memory network that delivers through that clock. Nothing in it runs
// until advance or eventually drives the simulator, so a test is one
// goroutine and its outcome a function of its inputs.
type world struct {
	t     testing.TB
	sim   *eventsim.Simulator
	clock Clock
	net   *MemNetwork
}

func newWorld(t testing.TB) *world {
	sim := eventsim.New()
	clock := NewVirtualClock(sim)
	return &world{t: t, sim: sim, clock: clock, net: NewMemNetwork(clock, nil)}
}

// advance runs the world for d of virtual time.
func (w *world) advance(d time.Duration) { _ = w.sim.Run(w.sim.Now() + d) }

// eventually advances the world in 5 ms steps until cond holds, failing the
// test once within has passed without it.
func (w *world) eventually(within time.Duration, what string, cond func() bool) {
	w.t.Helper()
	for end := w.sim.Now() + within; !cond(); w.advance(5 * time.Millisecond) {
		if w.sim.Now() >= end {
			w.t.Fatalf("condition %q not reached within %v", what, within)
		}
	}
}

// endpoint registers addr on the world's network.
func (w *world) endpoint(addr wire.Addr) Transport {
	w.t.Helper()
	ep, err := w.net.Endpoint(addr)
	if err != nil {
		w.t.Fatal(err)
	}
	return ep
}

// node creates a node on the world's clock at a new endpoint, unstarted.
func (w *world) node(addr wire.Addr, cfg Config) *Node {
	w.t.Helper()
	cfg.Clock = w.clock
	return New(cfg, w.endpoint(addr))
}

// cluster is a source plus members in a world.
type cluster struct {
	*world
	source *Node
	nodes  []*Node
}

func newCluster(t *testing.T, n int, mutate func(i int, cfg *Config)) *cluster {
	return newClusterSrc(t, n, 8, mutate)
}

// newClusterSrc boots a source of bandwidth srcBandwidth and n members of
// bandwidth 3 (before mutate) that bootstrap from it.
func newClusterSrc(t *testing.T, n int, srcBandwidth float64, mutate func(i int, cfg *Config)) *cluster {
	t.Helper()
	c := &cluster{world: newWorld(t)}
	srcCfg := fast
	srcCfg.Source = true
	srcCfg.Bandwidth = srcBandwidth
	c.source = c.node("source", srcCfg)
	c.source.Start()
	for i := 0; i < n; i++ {
		cfg := fast
		cfg.Bandwidth = 3
		cfg.Bootstrap = []wire.Addr{"source"}
		if mutate != nil {
			mutate(i, &cfg)
		}
		nd := c.node(wire.Addr(fmt.Sprintf("n%02d", i)), cfg)
		c.nodes = append(c.nodes, nd)
		nd.Start()
	}
	return c
}

// wallFast is fast for the tests that run nodes on the wall clock, over UDP
// or concurrently: the race detector slows real message handling severalfold,
// and with a 20 ms heartbeat the 3x liveness timeout would then flag healthy
// peers as dead, so under it the timers stretch (and the packet load falls)
// to keep timeouts measuring the protocol.
func wallFast() Config {
	cfg := fast
	if raceEnabled {
		cfg.HeartbeatInterval *= 4
		cfg.GossipInterval *= 4
		cfg.StreamRate = 25
	}
	return cfg
}

// wallEventually polls cond in real time until it holds or the deadline
// expires, for the tests that run nodes on the wall clock. Deadlines stretch
// under the race detector, which slows real handling severalfold.
func wallEventually(t *testing.T, within time.Duration, what string, cond func() bool) {
	t.Helper()
	if raceEnabled {
		within *= 4
	}
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("condition %q not reached within %v", what, within)
}

func (c *cluster) allAttached() bool {
	for _, nd := range c.nodes {
		if !nd.Stats().Attached {
			return false
		}
	}
	return true
}

func TestTreeForms(t *testing.T) {
	c := newCluster(t, 12, nil)
	c.eventually(5*time.Second, "all 12 nodes attached", c.allAttached)
	// Structural sanity: depths are positive and parents resolve.
	for _, nd := range c.nodes {
		s := nd.Stats()
		if s.Depth < 1 {
			t.Fatalf("%s attached at depth %d", nd, s.Depth)
		}
		if s.Parent == "" {
			t.Fatalf("%s attached without a parent", nd)
		}
	}
}

func TestStreamFlows(t *testing.T) {
	c := newCluster(t, 10, nil)
	c.eventually(5*time.Second, "all attached", c.allAttached)
	// Every node's stream position advances with the source.
	c.eventually(5*time.Second, "everyone past packet 50", func() bool {
		for _, nd := range c.nodes {
			if nd.Stats().HighestPacket < 50 {
				return false
			}
		}
		return true
	})
	for _, nd := range c.nodes {
		s := nd.Stats()
		if s.PacketsReceived == 0 {
			t.Fatalf("%s attached but received nothing", nd)
		}
	}
}

// TestFailureRecovery kills an interior node and requires (a) its children
// to re-attach and (b) the stream to keep advancing for everyone else.
func TestFailureRecovery(t *testing.T) {
	c := newCluster(t, 14, nil)
	c.eventually(5*time.Second, "all attached", c.allAttached)
	c.eventually(5*time.Second, "stream warm", func() bool {
		for _, nd := range c.nodes {
			if nd.Stats().HighestPacket < 20 {
				return false
			}
		}
		return true
	})
	// Find an interior node (has children).
	var victim *Node
	for _, nd := range c.nodes {
		if nd.Stats().Children > 0 {
			victim = nd
			break
		}
	}
	if victim == nil {
		t.Skip("no interior member in this layout")
	}
	victimHighest := victim.Stats().HighestPacket
	victim.Kill()
	survivors := make([]*Node, 0, len(c.nodes)-1)
	for _, nd := range c.nodes {
		if nd != victim {
			survivors = append(survivors, nd)
		}
	}
	c.eventually(8*time.Second, "survivors re-attached and streaming past the failure point", func() bool {
		for _, nd := range survivors {
			s := nd.Stats()
			if !s.Attached || s.Parent == victim.Addr() {
				return false
			}
			if s.HighestPacket < victimHighest+100 {
				return false
			}
		}
		return true
	})
	// At least one orphan recorded a rejoin.
	rejoins := int64(0)
	for _, nd := range survivors {
		rejoins += nd.Stats().Rejoins
	}
	if rejoins == 0 {
		t.Fatal("no rejoins after an interior failure")
	}
	// Every orphan is re-attached by now, so the landing-side counter must
	// have caught up: completed failovers are >= 1 and never outnumber the
	// detachments that caused them.
	failovers := int64(0)
	for _, nd := range survivors {
		failovers += nd.Stats().Failovers
	}
	if failovers == 0 {
		t.Fatal("no completed failovers recorded after re-attachment")
	}
	if failovers > rejoins {
		t.Fatalf("failovers %d > rejoins %d (landings cannot outnumber detachments)", failovers, rejoins)
	}
}

// TestGracefulLeave: a Stop()ed node notifies neighbours, so children rejoin
// without waiting for heartbeat timeouts.
func TestGracefulLeave(t *testing.T) {
	c := newCluster(t, 10, nil)
	c.eventually(5*time.Second, "all attached", c.allAttached)
	var leaver *Node
	for _, nd := range c.nodes {
		if nd.Stats().Children > 0 {
			leaver = nd
			break
		}
	}
	if leaver == nil {
		t.Skip("no interior member in this layout")
	}
	leaver.Stop()
	c.eventually(5*time.Second, "survivors re-attached", func() bool {
		for _, nd := range c.nodes {
			if nd == leaver {
				continue
			}
			s := nd.Stats()
			if !s.Attached || s.Parent == leaver.Addr() {
				return false
			}
		}
		return true
	})
}

// TestRepairFillsGaps: a node that missed packets recovers them from its
// recovery group (PacketsRepaired > 0 somewhere after an interior failure).
func TestRepairFillsGaps(t *testing.T) {
	c := newCluster(t, 14, nil)
	c.eventually(5*time.Second, "all attached", c.allAttached)
	c.eventually(5*time.Second, "stream warm", func() bool {
		for _, nd := range c.nodes {
			if nd.Stats().HighestPacket < 30 {
				return false
			}
		}
		return true
	})
	var victim *Node
	for _, nd := range c.nodes {
		if nd.Stats().Children > 0 {
			victim = nd
			break
		}
	}
	if victim == nil {
		t.Skip("no interior member")
	}
	victim.Kill()
	c.eventually(8*time.Second, "repaired packets observed", func() bool {
		var repaired, served int64
		for _, nd := range c.nodes {
			if nd == victim {
				continue
			}
			s := nd.Stats()
			repaired += s.PacketsRepaired
			served += s.RepairsServed
		}
		return repaired > 0 && served > 0
	})
}

// TestSwitchPromotesStrongNode: with switching enabled and a deliberately
// weak first-joiner, a strong later node ends up closer to the source.
func TestSwitchPromotesStrongNode(t *testing.T) {
	// A narrow source (2 slots) forces depth, giving switching something to
	// optimise.
	c := newClusterSrc(t, 7, 2, func(i int, cfg *Config) {
		cfg.SwitchInterval = 60 * time.Millisecond
		cfg.Bandwidth = 2
	})
	c.eventually(8*time.Second, "all attached", c.allAttached)
	// Now a genuinely late, strong node arrives: it must start deep (the
	// depth-1 slots are taken) and earn its way up via BTP switching.
	strongCfg := fast
	strongCfg.Bandwidth = 6
	strongCfg.SwitchInterval = 60 * time.Millisecond
	strongCfg.Bootstrap = []wire.Addr{"source"}
	strong := c.node("strong", strongCfg)
	c.nodes = append(c.nodes, strong)
	strong.Start()
	c.eventually(10*time.Second, "a switch completed somewhere", func() bool {
		total := int64(0)
		for _, nd := range c.nodes {
			total += nd.Stats().Switches
		}
		return total > 0
	})
	// The overlay remains attached and streaming after switches.
	c.eventually(5*time.Second, "overlay still healthy", func() bool {
		for _, nd := range c.nodes {
			if !nd.Stats().Attached {
				return false
			}
		}
		return strong.Stats().Attached
	})
}

// TestELNSuppression: after an interior failure, descendants receive ELN and
// rely on upstream repair (ELNsSent > 0).
func TestELNPropagates(t *testing.T) {
	// A narrow source forces chains, so orphans have children of their own
	// — the population ELN exists for.
	c := newClusterSrc(t, 14, 2, func(i int, cfg *Config) {
		cfg.Bandwidth = 2
	})
	c.eventually(8*time.Second, "all attached", c.allAttached)
	c.eventually(5*time.Second, "stream warm", func() bool {
		for _, nd := range c.nodes {
			if nd.Stats().HighestPacket < 30 {
				return false
			}
		}
		return true
	})
	// ELN is sent by an orphan that still has children of its own, so kill
	// the PARENT of an interior member.
	byAddr := map[wire.Addr]*Node{}
	for _, nd := range c.nodes {
		byAddr[nd.Addr()] = nd
	}
	var victim *Node
	for _, nd := range c.nodes {
		if nd.Stats().Children == 0 {
			continue
		}
		if p, ok := byAddr[nd.Stats().Parent]; ok && p.Stats().Children > 0 {
			victim = p
			break
		}
	}
	if victim == nil {
		t.Skip("no interior member with an interior child in this layout")
	}
	victim.Kill()
	c.eventually(8*time.Second, "ELN messages sent", func() bool {
		var elns int64
		for _, nd := range c.nodes {
			elns += nd.Stats().ELNsSent
		}
		return elns > 0
	})
}

func TestStatsSnapshot(t *testing.T) {
	c := newCluster(t, 3, nil)
	c.eventually(5*time.Second, "attached", c.allAttached)
	s := c.nodes[0].Stats()
	if s.KnownMembers == 0 {
		t.Fatal("gossip produced no membership")
	}
	if got := c.nodes[0].String(); got == "" {
		t.Fatal("empty debug string")
	}
}

// TestTimingScalesWithHeartbeat pins the timing table: at the default 1 s
// heartbeat it holds the documented constants, and since every duration is a
// multiple of the heartbeat (the gossip interval included, when unset),
// doubling HeartbeatInterval doubles every duration and moves nothing else.
func TestTimingScalesWithHeartbeat(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.HeartbeatInterval != time.Second || cfg.BufferPackets <= 0 ||
		cfg.RecoveryGroup <= 0 || cfg.StreamRate <= 0 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	want := timing{
		gossipInterval:    2 * time.Second,
		heartbeatTimeout:  3 * time.Second,
		switchLockFor:     3 * time.Second,
		joinBackoffBase:   time.Second,
		joinBackoffMax:    8 * time.Second,
		repairBackoffBase: 500 * time.Millisecond,
		repairBackoffMax:  4 * time.Second,
		retxBackoffBase:   500 * time.Millisecond,
		retxBackoffMax:    4 * time.Second,
		retxAttempts:      4,
		retxInflight:      32,
		memberStaleAfter:  20 * time.Second,
		stallRejoinAfter:  18 * time.Second,
		quarantine:        50 * time.Second,
		requestRate:       100,
		requestBurst:      200,
		quarantineScore:   12,
		plausibleSpan:     1024,
		membershipLimit:   100,
		peerCap:           400,
	}
	one := newTiming(cfg)
	if one != want {
		t.Fatalf("timing at a 1 s heartbeat:\n got %+v\nwant %+v", one, want)
	}

	cfg.HeartbeatInterval = 2 * time.Second
	a, b := reflect.ValueOf(one), reflect.ValueOf(newTiming(cfg))
	for i := 0; i < a.NumField(); i++ {
		name := a.Type().Field(i).Name
		if a.Field(i).Type() == reflect.TypeOf(time.Duration(0)) {
			if b.Field(i).Int() != 2*a.Field(i).Int() {
				t.Errorf("%s: %v at 1 s, %v at 2 s — not doubled", name,
					time.Duration(a.Field(i).Int()), time.Duration(b.Field(i).Int()))
			}
		} else if fmt.Sprint(a.Field(i)) != fmt.Sprint(b.Field(i)) {
			t.Errorf("%s moved with the heartbeat: %v -> %v", name, a.Field(i), b.Field(i))
		}
	}

	// The one knob that remains overrides its table entry and what hangs off
	// it, nothing else.
	cfg.GossipInterval = 7 * time.Second
	set := newTiming(cfg)
	if set.gossipInterval != 7*time.Second || set.memberStaleAfter != 70*time.Second {
		t.Fatalf("explicit gossip interval not honoured: %+v", set)
	}
}

func TestStopIdempotent(t *testing.T) {
	w := newWorld(t)
	nd := w.node("x", fast)
	nd.Start()
	w.advance(time.Second)
	nd.Stop()
	nd.Stop() // second stop must not panic or deadlock
	nd.Kill() // nor a kill after a stop
}

// TestChurnStress runs a 25-node overlay through several seconds of random
// kills and replacements; the overlay must end attached and streaming.
func TestChurnStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test in -short mode")
	}
	c := newClusterSrc(t, 25, 4, func(i int, cfg *Config) {
		cfg.Bandwidth = 2 + float64(i%3)
		cfg.SwitchInterval = 150 * time.Millisecond
	})
	c.eventually(10*time.Second, "all attached", c.allAttached)

	// Churn: kill five nodes one by one, adding a replacement each time.
	next := 100
	for round := 0; round < 5; round++ {
		// Kill a random live node (prefer interior for maximum damage).
		var victim *Node
		for _, nd := range c.nodes {
			if nd.Stats().Attached && nd.Stats().Children > 0 {
				victim = nd
				break
			}
		}
		if victim == nil {
			for _, nd := range c.nodes {
				if nd.Stats().Attached {
					victim = nd
					break
				}
			}
		}
		if victim == nil {
			t.Fatal("nobody left to kill")
		}
		victim.Kill()
		// Replacement joins through the source.
		cfg := fast
		cfg.Bandwidth = 3
		cfg.SwitchInterval = 150 * time.Millisecond
		cfg.Bootstrap = []wire.Addr{"source"}
		repl := c.node(wire.Addr(fmt.Sprintf("r%02d", next)), cfg)
		next++
		repl.Start()
		// Swap into the roster replacing the victim.
		for i, nd := range c.nodes {
			if nd == victim {
				c.nodes[i] = repl
			}
		}
		c.advance(300 * time.Millisecond)
	}
	c.eventually(15*time.Second, "overlay healthy after churn", func() bool {
		for _, nd := range c.nodes {
			s := nd.Stats()
			if !s.Attached {
				return false
			}
		}
		return true
	})
	// The stream still advances for everyone.
	marks := make([]int64, len(c.nodes))
	for i, nd := range c.nodes {
		marks[i] = nd.Stats().HighestPacket
	}
	c.eventually(10*time.Second, "stream advancing everywhere", func() bool {
		for i, nd := range c.nodes {
			if nd.Stats().HighestPacket <= marks[i] {
				return false
			}
		}
		return true
	})
}

// TestDepthSelfCorrects: after switches reshuffle the tree, heartbeat-carried
// depths keep every node's depth = parent depth + 1.
func TestDepthSelfCorrects(t *testing.T) {
	c := newClusterSrc(t, 10, 2, func(i int, cfg *Config) {
		cfg.Bandwidth = 2 + float64(i%2)*2
		cfg.SwitchInterval = 100 * time.Millisecond
	})
	c.eventually(8*time.Second, "all attached", c.allAttached)
	c.advance(time.Second) // let switches and heartbeats settle
	byAddr := map[wire.Addr]*Node{"source": c.source}
	for _, nd := range c.nodes {
		byAddr[nd.Addr()] = nd
	}
	c.eventually(5*time.Second, "depths consistent", func() bool {
		for _, nd := range c.nodes {
			s := nd.Stats()
			if !s.Attached {
				return false
			}
			parent, ok := byAddr[s.Parent]
			if !ok {
				continue // parent may be a replacement not in the map
			}
			if s.Depth != parent.Stats().Depth+1 {
				return false
			}
		}
		return true
	})
}

// TestPlaybackScoring feeds a lone node packets directly, stops, and checks
// that slots past the playout deadline are scored played vs starved.
func TestPlaybackScoring(t *testing.T) {
	w := newWorld(t)
	feeder := w.endpoint("feeder")
	cfg := fast
	cfg.Bandwidth = 1
	cfg.PlaybackBuffer = 100 * time.Millisecond
	cfg.StreamRate = 100
	nd := w.node("viewer", cfg)
	nd.Start()

	send := func(seq int64) {
		data, err := wire.EncodeBinary(wire.Envelope{Type: wire.TypePacket, From: "feeder", Packet: seq})
		if err != nil {
			t.Fatal(err)
		}
		if err := feeder.Send("viewer", data); err != nil {
			t.Fatal(err)
		}
	}
	// Packets 0..49 then a hole 50..59 then 60..79.
	for seq := int64(0); seq < 50; seq++ {
		send(seq)
	}
	for seq := int64(60); seq < 80; seq++ {
		send(seq)
	}
	w.eventually(5*time.Second, "playback scored the hole", func() bool {
		s := nd.Stats()
		return s.StarvedSlots >= 10 && s.PlayedSlots >= 60
	})
	s := nd.Stats()
	if s.StarvingRatio() <= 0 || s.StarvingRatio() >= 1 {
		t.Fatalf("starving ratio = %g, want in (0,1)", s.StarvingRatio())
	}
	// The hole is contiguous: it must register as stall episodes with
	// accumulated stall time of at least the hole's duration (10 slots at
	// 100 pkt/s = 100 ms), and playback must have resumed (ended the stall).
	if s.Stalls < 1 {
		t.Fatalf("stalls = %d, want >= 1", s.Stalls)
	}
	if s.StallSeconds < 0.099 { // 10 slots x 10 ms, minus float accumulation
		t.Fatalf("stall seconds = %g, want >= ~0.1", s.StallSeconds)
	}
	if s.StallSeconds > float64(s.StarvedSlots)/100+1e-9 {
		t.Fatalf("stall seconds %g exceeds starved slots %d / rate", s.StallSeconds, s.StarvedSlots)
	}
}

// TestHealthyPlaybackDoesNotStarve: in a stable cluster, starved slots stay
// at (near) zero.
func TestHealthyPlaybackDoesNotStarve(t *testing.T) {
	c := newCluster(t, 8, func(i int, cfg *Config) {
		cfg.PlaybackBuffer = 200 * time.Millisecond
	})
	c.eventually(5*time.Second, "all attached", c.allAttached)
	c.eventually(5*time.Second, "playback running", func() bool {
		for _, nd := range c.nodes {
			if nd.Stats().PlayedSlots < 100 {
				return false
			}
		}
		return true
	})
	for _, nd := range c.nodes {
		s := nd.Stats()
		if s.StarvingRatio() > 0.05 {
			t.Fatalf("%s starving ratio %.3f in a healthy overlay", nd, s.StarvingRatio())
		}
	}
}

// TestClusterReproducible: two 12-node clusters on one seed, streamed, cut by
// the same interior failure and healed, end with identical Stats on every
// node. The virtual clock orders every timer and delivery, so nothing but
// the seed decides a run.
func TestClusterReproducible(t *testing.T) {
	run := func() []Stats {
		c := newCluster(t, 12, func(i int, cfg *Config) {
			cfg.Seed = 7
			cfg.SwitchInterval = 100 * time.Millisecond
		})
		c.eventually(5*time.Second, "all attached", c.allAttached)
		c.advance(time.Second)
		for _, nd := range c.nodes {
			if nd.Stats().Children > 0 {
				nd.Kill()
				break
			}
		}
		c.advance(2 * time.Second)
		out := []Stats{c.source.Stats()}
		for _, nd := range c.nodes {
			out = append(out, nd.Stats())
		}
		return out
	}
	first, second := run(), run()
	for i := range first {
		if first[i] != second[i] {
			t.Errorf("node %d differs between same-seed runs:\n run 1: %+v\n run 2: %+v", i, first[i], second[i])
		}
	}
	if first[1].PacketsReceived == 0 {
		t.Fatal("the cluster streamed nothing")
	}
}

// countingTransport counts the datagrams its node hands it.
type countingTransport struct {
	Transport
	sends atomic.Int64
}

func (c *countingTransport) Send(to wire.Addr, data []byte) error {
	c.sends.Add(1)
	return c.Transport.Send(to, data)
}

// TestStopAndKillEndTheNode is the lifetime contract, on both clocks: once
// Stop or Kill returns, no duty of the node runs — the source's packet clock
// stops — and the node transmits nothing, not a heartbeat, a retransmit or
// the answer to a datagram that still reaches its handler.
func TestStopAndKillEndTheNode(t *testing.T) {
	t.Run("virtual", func(t *testing.T) {
		w := newWorld(t)
		stopAndKillEndTheNode(t, w.net, fast, w.clock, w.advance,
			func(what string, cond func() bool) { w.eventually(5*time.Second, what, cond) })
	})
	t.Run("wall", func(t *testing.T) {
		network := NewMemNetwork(nil, nil)
		defer network.Close()
		stopAndKillEndTheNode(t, network, wallFast(), nil, time.Sleep,
			func(what string, cond func() bool) { wallEventually(t, 5*time.Second, what, cond) })
	})
}

func stopAndKillEndTheNode(t *testing.T, network *MemNetwork, cfg Config, clock Clock,
	wait func(time.Duration), until func(what string, cond func() bool)) {
	t.Helper()
	cfg.Clock = clock
	boot := func(addr wire.Addr, source bool) (*Node, *countingTransport) {
		ep, err := network.Endpoint(addr)
		if err != nil {
			t.Fatal(err)
		}
		tr := &countingTransport{Transport: ep}
		c := cfg
		c.Source, c.Bandwidth, c.Bootstrap = source, 2, []wire.Addr{"source"}
		nd := New(c, tr)
		nd.Start()
		return nd, tr
	}
	src, srcTr := boot("source", true)
	member, memberTr := boot("member", false)
	until("the member attached and streaming", func() bool {
		s := member.Stats()
		return s.Attached && s.HighestPacket > 10
	})

	src.Stop() // a graceful leave: its Leave to the member goes out before Stop returns
	member.Kill()
	sent := []int64{srcTr.sends.Load(), memberTr.sends.Load()}
	head := src.Stats().HighestPacket
	// A Join, tagged for an ack, reaches each dead node's handler anyway.
	for _, nd := range []*Node{src, member} {
		nd.onDatagram(envBytes(t, wire.Envelope{Type: wire.TypeJoin, From: "late", Bandwidth: 1, Ctrl: 1}))
	}
	wait(10 * cfg.HeartbeatInterval) // every duty and retransmit timer is due several times over
	if got := []int64{srcTr.sends.Load(), memberTr.sends.Load()}; !slices.Equal(got, sent) {
		t.Fatalf("datagrams sent by source, member: %v when Stop and Kill returned, %v later", sent, got)
	}
	if got := src.Stats().HighestPacket; got != head {
		t.Fatalf("the stopped source's packet clock ran on: head %d -> %d", head, got)
	}
}

// lateTransport's Close hands the handler one last datagram and returns only
// once the handler has, as UDPTransport.Close waits for a read loop that is
// delivering a datagram when the socket closes.
type lateTransport struct {
	handler   func([]byte)
	last      []byte
	delivered bool
	sends     atomic.Int64
}

func (l *lateTransport) Addr() wire.Addr              { return "self" }
func (l *lateTransport) SetHandler(h func([]byte))    { l.handler = h }
func (l *lateTransport) Send(wire.Addr, []byte) error { l.sends.Add(1); return nil }

func (l *lateTransport) Close() error {
	l.handler(l.last)
	l.delivered = true
	return nil
}

// TestKillDoesNotWaitOnItsOwnLock: Kill and Stop mark the node stopped under
// its lock and close the transport only after releasing it, so a datagram
// the transport delivers while closing finds the node stopped and is
// dropped, instead of waiting forever on the lock its own Kill holds.
func TestKillDoesNotWaitOnItsOwnLock(t *testing.T) {
	for _, end := range []struct {
		name string
		f    func(*Node)
	}{{"Kill", (*Node).Kill}, {"Stop", (*Node).Stop}} {
		tr := &lateTransport{last: envBytes(t, wire.Envelope{Type: wire.TypeJoin, From: "late", Bandwidth: 1, Ctrl: 1})}
		n := New(Config{Bandwidth: 2}, tr)
		done := make(chan struct{})
		go func() {
			end.f(n)
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s did not return within 5s: the transport's last delivery waits on the node's lock", end.name)
		}
		if !tr.delivered {
			t.Fatalf("%s did not close the transport", end.name)
		}
		if got := tr.sends.Load(); got != 0 {
			t.Fatalf("%s: the node answered the datagram delivered while closing with %d sends, want it dropped", end.name, got)
		}
	}
}
