// Package live is the wall-clock backend of internal/faultnet: a
// fault-injecting overlay for node.Transport endpoints. It applies the
// deterministic per-link decision streams and the expanded fault schedule of
// the model package to real datagram traffic — dropping, duplicating,
// reordering, delaying, rate-limiting, partitioning and crash/restarting
// live nodes.
//
// The split mirrors internal/metrics vs internal/metrics/live: the model
// package is simulation-safe (omcast lint enforces no wall clock, no
// goroutines); this package owns every timer and lock. Determinism lives in
// the environment layer: the expanded plan and the per-link decision streams
// are pure functions of the schedule and seed, so two same-seed runs inject
// byte-identical fault sequences even though goroutine scheduling differs.
package live

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"omcast/internal/faultnet"
	mlive "omcast/internal/metrics/live"
	"omcast/internal/node"
	"omcast/internal/wire"
)

// maxHold bounds how long a reorder-held datagram waits for a successor
// before being flushed anyway.
const maxHold = 50 * time.Millisecond

// Options configures a fault network.
type Options struct {
	// Seed drives every per-link decision stream. If Schedule is set and
	// Seed is zero, the schedule's seed is used.
	Seed int64
	// Schedule, if non-nil, supplies static link rules and timed events
	// (armed by Start).
	Schedule *faultnet.Schedule
	// Metrics, if non-nil, receives the network's instruments.
	Metrics *mlive.Registry
	// NodeHook is invoked (outside all network locks) when a crash or
	// restart change fires: up=false means the node should die abruptly,
	// up=true that it should come back. The network blackholes the node's
	// traffic either way; the hook lets a harness kill and recreate the
	// actual node.Node.
	NodeHook func(addr string, up bool)
	// LogLimit bounds per-datagram fault log entries (default 10000).
	LogLimit int
}

// netMetrics holds the network's optional instruments (nil-safe when no
// registry was given).
type netMetrics struct {
	datagrams   *mlive.Counter
	dropped     *mlive.Counter
	duplicated  *mlive.Counter
	reordered   *mlive.Counter
	rateDropped *mlive.Counter
	blocked     *mlive.Counter
	corrupted   *mlive.Counter
	forged      *mlive.Counter
	replayed    *mlive.Counter
	changes     *mlive.Counter
	nodesDown   *mlive.Gauge
}

func newNetMetrics(reg *mlive.Registry) netMetrics {
	return netMetrics{
		datagrams:   reg.Counter("omcast_faultnet_datagrams_total", "Datagrams that reached the fault-decision stage."),
		dropped:     reg.Counter("omcast_faultnet_dropped_total", "Datagrams dropped by a loss decision."),
		duplicated:  reg.Counter("omcast_faultnet_duplicated_total", "Datagrams delivered twice by a duplication decision."),
		reordered:   reg.Counter("omcast_faultnet_reordered_total", "Datagrams held back past a successor by a reorder decision."),
		rateDropped: reg.Counter("omcast_faultnet_rate_dropped_total", "Datagrams dropped by a link bandwidth cap."),
		blocked:     reg.Counter("omcast_faultnet_blocked_total", "Datagrams discarded by partitions, block rules or crashed endpoints."),
		corrupted:   reg.Counter("omcast_faultnet_corrupted_total", "Datagrams with a bit flipped by a corruption decision."),
		forged:      reg.Counter("omcast_faultnet_forged_total", "Datagrams with protocol fields forged in flight."),
		replayed:    reg.Counter("omcast_faultnet_replayed_total", "Datagrams re-delivered by a replay decision."),
		changes:     reg.Counter("omcast_faultnet_schedule_changes_total", "Schedule changes applied."),
		nodesDown:   reg.Gauge("omcast_faultnet_nodes_down", "Nodes currently held down by crash changes."),
	}
}

// linkState is the per-directed-link runtime: its decision stream, counters,
// token bucket and the single reorder-hold slot.
type linkState struct {
	dec   *faultnet.Decider
	stats faultnet.LinkStats

	// Token bucket for RateBytes (one-second burst).
	tokens     float64
	lastRefill time.Time

	// Reorder hold: one datagram parked until the next one passes (or the
	// maxHold flush fires; heldGen guards the flush against releases).
	held    []byte
	heldGen int64

	// lastSent is the link's previously released datagram (post-forge,
	// post-corruption): the bytes a Replay decision re-delivers.
	lastSent []byte
}

// patternRule is an event-installed rule overlay.
type patternRule struct {
	from, to string
	sym      bool
	rule     faultnet.Rule
}

// partition is an active blackhole between address patterns.
type partition struct {
	from, to string
	sym      bool
}

// Network wraps node.Transport endpoints with fault injection.
type Network struct {
	opts Options
	seed int64

	mu      sync.Mutex
	links   map[string]*linkState
	parts   []partition
	rules   []patternRule
	down    map[string]bool
	log     []faultnet.LogEntry
	logFull int64 // per-datagram entries discarded past LogLimit
	timers  []*time.Timer
	started bool
	closed  bool

	met netMetrics
}

// NewNetwork creates a fault network. The schedule's static link rules apply
// from the first datagram; its timed events are armed by Start.
func NewNetwork(opts Options) *Network {
	if opts.LogLimit <= 0 {
		opts.LogLimit = 10000
	}
	seed := opts.Seed
	if seed == 0 && opts.Schedule != nil {
		seed = opts.Schedule.Seed
	}
	n := &Network{
		opts:  opts,
		seed:  seed,
		links: make(map[string]*linkState),
		down:  make(map[string]bool),
	}
	if opts.Metrics != nil {
		n.met = newNetMetrics(opts.Metrics)
	}
	return n
}

// Wrap interposes the fault network on an endpoint's outbound path. Addr,
// SetHandler and Close pass through.
func (n *Network) Wrap(tr node.Transport) node.Transport {
	return &endpoint{net: n, inner: tr}
}

type endpoint struct {
	net   *Network
	inner node.Transport
}

var _ node.Transport = (*endpoint)(nil)

func (e *endpoint) Addr() wire.Addr             { return e.inner.Addr() }
func (e *endpoint) SetHandler(h func(d []byte)) { e.inner.SetHandler(h) }
func (e *endpoint) Close() error                { return e.inner.Close() }
func (e *endpoint) Send(to wire.Addr, data []byte) error {
	return e.net.send(e.inner, to, data)
}

// Start arms the schedule's timed events relative to now. Call once, after
// the overlay under test is up (or immediately, for faults-from-birth runs).
func (n *Network) Start() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.started || n.closed || n.opts.Schedule == nil {
		n.started = true
		return
	}
	n.started = true
	for _, c := range n.opts.Schedule.Expand() {
		c := c
		t := time.AfterFunc(c.T, func() { n.Apply(c) })
		n.timers = append(n.timers, t)
	}
}

// Close stops pending fault timers. Wrapped endpoints keep working as plain
// pass-throughs for any stragglers.
func (n *Network) Close() {
	n.mu.Lock()
	timers := n.timers
	n.timers = nil
	n.closed = true
	n.mu.Unlock()
	for _, t := range timers {
		t.Stop()
	}
}

// Apply executes one expanded schedule change immediately, logging it at its
// virtual offset. The scenario runner and the schedule timers both funnel
// through here; NodeHook is invoked outside the network lock.
func (n *Network) Apply(c faultnet.Change) {
	var hook func(string, bool)
	var hookUp bool
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.met.changes.Inc()
	entry := faultnet.LogEntry{T: c.T, N: int64(c.Seq), Action: string(c.Action)}
	switch c.Action {
	case faultnet.ActionPartition:
		n.parts = append(n.parts, partition{from: c.From, to: c.To, sym: c.Symmetric})
		entry.Detail = linkDetail(c)
	case faultnet.ActionHeal:
		kept := n.parts[:0]
		for _, p := range n.parts {
			same := p.from == c.From && p.to == c.To
			rev := c.Symmetric && p.from == c.To && p.to == c.From
			if !(same || rev) {
				kept = append(kept, p)
			}
		}
		n.parts = kept
		entry.Detail = linkDetail(c)
	case faultnet.ActionRule:
		if c.Clear {
			kept := n.rules[:0]
			for _, r := range n.rules {
				if !(r.from == c.From && r.to == c.To && r.sym == c.Symmetric) {
					kept = append(kept, r)
				}
			}
			n.rules = kept
			entry.Detail = linkDetail(c) + " clear"
		} else {
			n.rules = append(n.rules, patternRule{from: c.From, to: c.To, sym: c.Symmetric, rule: c.Rule})
			entry.Detail = fmt.Sprintf("%s [%s]", linkDetail(c), c.Rule)
		}
	case faultnet.ActionCrash:
		if !n.down[c.Node] {
			n.down[c.Node] = true
			hook, hookUp = n.opts.NodeHook, false
		}
		n.met.nodesDown.Set(float64(len(n.down)))
		entry.Detail = "node=" + c.Node
	case faultnet.ActionRestart:
		if n.down[c.Node] {
			delete(n.down, c.Node)
			hook, hookUp = n.opts.NodeHook, true
		}
		n.met.nodesDown.Set(float64(len(n.down)))
		entry.Detail = "node=" + c.Node
	}
	n.log = append(n.log, entry)
	n.mu.Unlock()
	if hook != nil {
		hook(c.Node, hookUp)
	}
}

func linkDetail(c faultnet.Change) string {
	d := c.From + ">" + c.To
	if c.Symmetric {
		d += " sym"
	}
	return d
}

// Crash takes a node down programmatically (blackhole + NodeHook), outside
// any schedule. Restart is its inverse.
func (n *Network) Crash(addr string) {
	n.Apply(faultnet.Change{T: 0, Action: faultnet.ActionCrash, Node: addr})
}

// Restart brings a crashed node back.
func (n *Network) Restart(addr string) {
	n.Apply(faultnet.Change{T: 0, Action: faultnet.ActionRestart, Node: addr})
}

// Down reports whether a node is currently held down.
func (n *Network) Down(addr string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.down[addr]
}

func (n *Network) linkLocked(from, to string) *linkState {
	key := from + ">" + to
	st, ok := n.links[key]
	if !ok {
		st = &linkState{dec: faultnet.NewDecider(n.seed, from, to)}
		n.links[key] = st
	}
	return st
}

// ruleLocked resolves the active rule for a link: the schedule's static
// resolution, overridden by the latest matching event rule.
func (n *Network) ruleLocked(from, to string) faultnet.Rule {
	var rule faultnet.Rule
	if n.opts.Schedule != nil {
		rule = n.opts.Schedule.StaticRule(from, to)
	}
	for _, r := range n.rules {
		if faultnet.Match(r.from, from) && faultnet.Match(r.to, to) {
			rule = r.rule
		} else if r.sym && faultnet.Match(r.from, to) && faultnet.Match(r.to, from) {
			rule = r.rule
		}
	}
	return rule
}

func (n *Network) partitionedLocked(from, to string) bool {
	for _, p := range n.parts {
		if faultnet.Match(p.from, from) && faultnet.Match(p.to, to) {
			return true
		}
		if p.sym && faultnet.Match(p.from, to) && faultnet.Match(p.to, from) {
			return true
		}
	}
	return false
}

// notePerDatagramLocked appends a bounded per-datagram log entry.
func (n *Network) notePerDatagramLocked(link string, idx int64, action string) {
	if int64(len(n.log)) >= int64(n.opts.LogLimit) {
		n.logFull++
		return
	}
	n.log = append(n.log, faultnet.LogEntry{T: -1, Link: link, N: idx, Action: action})
}

// send is the fault path every wrapped datagram takes.
func (n *Network) send(inner node.Transport, to wire.Addr, data []byte) error {
	from, toS := string(inner.Addr()), string(to)
	link := from + ">" + toS

	n.mu.Lock()
	if n.closed {
		// Torn-down network: behave as a clean wire.
		n.mu.Unlock()
		return inner.Send(to, data)
	}
	st := n.linkLocked(from, toS)
	rule := n.ruleLocked(from, toS)
	// A class-restricted rule leaves other-class datagrams untouched — but
	// node/link outages and partitions are physical, not per-class.
	classMiss := rule.Class != "" && datagramClass(data) != rule.Class
	if n.down[from] || n.down[toS] || (rule.Block && !classMiss) || n.partitionedLocked(from, toS) {
		st.stats.Blocked++
		n.met.blocked.Inc()
		n.mu.Unlock()
		return nil // datagram semantics: a blackhole is not an error
	}
	st.stats.Sent++
	n.met.datagrams.Inc()
	// The decision is drawn for every datagram — even ones the class filter
	// exempts — so decision index n depends only on (seed, link, n).
	dec := st.dec.Next(rule)
	if classMiss {
		n.mu.Unlock()
		return inner.Send(to, data)
	}

	if rule.RateBytes > 0 {
		now := time.Now()
		if !st.lastRefill.IsZero() {
			st.tokens += now.Sub(st.lastRefill).Seconds() * rule.RateBytes
		} else {
			st.tokens = rule.RateBytes // one-second burst to start
		}
		if st.tokens > rule.RateBytes {
			st.tokens = rule.RateBytes
		}
		st.lastRefill = now
		if float64(len(data)) > st.tokens {
			st.stats.RateDropped++
			n.met.rateDropped.Inc()
			n.notePerDatagramLocked(link, dec.N, "rate-drop")
			n.mu.Unlock()
			return nil
		}
		st.tokens -= float64(len(data))
	}

	if dec.Drop {
		st.stats.Dropped++
		n.met.dropped.Inc()
		n.notePerDatagramLocked(link, dec.N, "drop")
		n.mu.Unlock()
		return nil
	}

	// Adversarial stage: field-level forgery first (the protocol-aware
	// attacker), then the deterministic bit flip (the dumb one). Both operate
	// on copies; the caller's slice is never mutated.
	if forged, ok := forgeBytes(rule, data); ok {
		data = forged
		st.stats.Forged++
		n.met.forged.Inc()
		n.notePerDatagramLocked(link, dec.N, "forge")
	}
	if dec.Corrupt {
		data = corruptBytes(dec, data)
		st.stats.Corrupted++
		n.met.corrupted.Inc()
		n.notePerDatagramLocked(link, dec.N, "corrupt")
	}

	delay := rule.Latency.D() + time.Duration(dec.JitterFrac*float64(rule.Jitter.D()))
	buf := append([]byte(nil), data...)

	if dec.Hold && st.held == nil {
		// Park this datagram; it is released behind the next one on the
		// link, or by the flush timer if the link goes quiet.
		st.held = buf
		st.heldGen++
		gen := st.heldGen
		st.stats.Held++
		st.lastSent = buf
		n.met.reordered.Inc()
		n.notePerDatagramLocked(link, dec.N, "hold")
		flush := time.AfterFunc(maxHold+delay, func() {
			n.mu.Lock()
			if n.closed || st.held == nil || st.heldGen != gen {
				n.mu.Unlock()
				return
			}
			b := st.held
			st.held = nil
			n.mu.Unlock()
			_ = inner.Send(to, b)
		})
		n.timers = append(n.timers, flush)
		n.mu.Unlock()
		return nil
	}

	// Assemble the release order: this datagram first, then any held one
	// (which therefore arrives after its successor — the reorder), then the
	// duplicate copy.
	out := [][]byte{buf}
	if st.held != nil {
		out = append(out, st.held)
		st.held = nil
		st.heldGen++
	}
	if dec.Duplicate {
		st.stats.Duplicated++
		n.met.duplicated.Inc()
		n.notePerDatagramLocked(link, dec.N, "duplicate")
		out = append(out, buf)
	}
	if dec.Replay && st.lastSent != nil {
		st.stats.Replayed++
		n.met.replayed.Inc()
		n.notePerDatagramLocked(link, dec.N, "replay")
		out = append(out, st.lastSent)
	}
	st.lastSent = buf
	if delay > 0 {
		for i, b := range out {
			b := b
			// Successive copies are nudged apart so delayed delivery keeps
			// the assembled order.
			t := time.AfterFunc(delay+time.Duration(i)*time.Millisecond, func() {
				_ = inner.Send(to, b)
			})
			n.timers = append(n.timers, t)
		}
		n.mu.Unlock()
		return nil
	}
	n.mu.Unlock()
	var err error
	for _, b := range out {
		err = inner.Send(to, b)
	}
	return err
}

// Stats snapshots every directed link's counters.
func (n *Network) Stats() map[string]faultnet.LinkStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make(map[string]faultnet.LinkStats, len(n.links))
	for k, st := range n.links {
		out[k] = st.stats
	}
	return out
}

// Log returns a copy of the fault log.
func (n *Network) Log() []faultnet.LogEntry {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]faultnet.LogEntry(nil), n.log...)
}

// FormatLog renders the fault log in canonical order: schedule changes by
// (offset, sequence), then per-datagram decisions by (link, index). The
// ordering is a total one derived from virtual positions, not wall time, so
// two runs that injected the same faults render byte-identical logs.
func (n *Network) FormatLog() string {
	entries := n.Log()
	sort.SliceStable(entries, func(i, j int) bool {
		a, b := entries[i], entries[j]
		aSched, bSched := a.T >= 0, b.T >= 0
		if aSched != bSched {
			return aSched
		}
		if aSched {
			if a.T != b.T {
				return a.T < b.T
			}
			return a.N < b.N
		}
		if a.Link != b.Link {
			return a.Link < b.Link
		}
		if a.N != b.N {
			return a.N < b.N
		}
		return a.Action < b.Action
	})
	var b strings.Builder
	for _, e := range entries {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	n.mu.Lock()
	full := n.logFull
	n.mu.Unlock()
	if full > 0 {
		fmt.Fprintf(&b, "(+%d per-datagram entries beyond log limit)\n", full)
	}
	return b.String()
}

// FormatStats renders the per-link counters sorted by link key — byte-stable
// given identical traffic and decisions.
func (n *Network) FormatStats() string {
	stats := n.Stats()
	keys := make([]string, 0, len(stats))
	for k := range stats {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		s := stats[k]
		fmt.Fprintf(&b, "%s sent=%d dropped=%d dup=%d held=%d rate=%d blocked=%d corrupt=%d forged=%d replay=%d\n",
			k, s.Sent, s.Dropped, s.Duplicated, s.Held, s.RateDropped, s.Blocked,
			s.Corrupted, s.Forged, s.Replayed)
	}
	return b.String()
}
