// Package faultnet is the deterministic half of the repo's fault-injection
// layer: the declarative rule/schedule model and the seeded per-link decision
// streams that decide what happens to every datagram. The paper's whole
// contribution (ROST + CER) is about surviving abrupt failures and loss, so
// the live protocol stack (internal/node) must be exercised against lossy,
// delayed, partitioned and crashing networks — reproducibly.
//
// Determinism is preserved the same way the simulator preserves it:
//
//   - every link (from, to) draws from an independent named sub-stream of
//     one master seed (internal/xrand), so the decision for the n-th
//     datagram on a link is a pure function of (seed, link, n);
//   - each decision consumes a fixed number of draws regardless of the
//     rule's values, so changing one probability never shifts any other
//     decision;
//   - timed faults (partitions, crashes, rule changes) expand into a
//     totally ordered change list — virtual offsets plus schedule sequence
//     numbers — before anything runs, so the fault plan is byte-comparable
//     across runs.
//
// This package is inside the omcast lint simulation scope: it reads no wall
// clock, spawns no goroutines and holds no locks. The concurrent wall-clock
// backend that applies these decisions to real transports lives in
// internal/faultnet/live, mirroring the internal/metrics / metrics/live
// split.
package faultnet

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"omcast/internal/xrand"
)

// Duration is a time.Duration that unmarshals from either a JSON string
// ("150ms", "2s") or a bare number (seconds), and marshals as a string.
type Duration time.Duration

// D returns the wrapped time.Duration.
func (d Duration) D() time.Duration { return time.Duration(d) }

// String renders the standard duration form.
func (d Duration) String() string { return time.Duration(d).String() }

// MarshalJSON implements json.Marshaler.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON implements json.Unmarshaler.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		parsed, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("faultnet: bad duration %q: %w", s, err)
		}
		*d = Duration(parsed)
		return nil
	}
	var secs float64
	if err := json.Unmarshal(b, &secs); err != nil {
		return fmt.Errorf("faultnet: duration must be a string like \"150ms\" or a number of seconds: %s", b)
	}
	*d = Duration(secs * float64(time.Second))
	return nil
}

// Rule is the per-link fault model: what may happen to a datagram travelling
// one direction of one link.
type Rule struct {
	// Drop is the probability a datagram is discarded.
	Drop float64 `json:"drop,omitempty"`
	// Duplicate is the probability a datagram is delivered twice.
	Duplicate float64 `json:"duplicate,omitempty"`
	// Reorder is the probability a datagram is held back and released after
	// the following datagram on the link.
	Reorder float64 `json:"reorder,omitempty"`
	// Latency delays delivery; Jitter adds a uniform [0, Jitter) extra drawn
	// from the link's decision stream.
	Latency Duration `json:"latency,omitempty"`
	Jitter  Duration `json:"jitter,omitempty"`
	// RateBytes caps the link at this many bytes per second (token bucket
	// with a one-second burst); datagrams over budget are dropped. Zero
	// means unlimited.
	RateBytes float64 `json:"rate_bytes,omitempty"`
	// Block hard-partitions this direction of the link.
	Block bool `json:"block,omitempty"`

	// The adversarial family: byzantine links, not merely lossy ones.
	//
	// Corrupt is the probability a datagram has one bit flipped at a
	// deterministic position before delivery (models in-flight corruption
	// and garbage-emitting peers; receivers see malformed or subtly wrong
	// envelopes).
	Corrupt float64 `json:"corrupt,omitempty"`
	// Replay is the probability the link's previously delivered datagram is
	// re-delivered after the current one (models replaying attackers and
	// pathological duplication beyond Duplicate).
	Replay float64 `json:"replay,omitempty"`
	// Forge rewrites protocol fields in-flight: "btp" inflates the
	// bandwidth-time product on heartbeats and switch proposes (the ROST
	// cheater), "repair" inverts the repair range on repair requests and
	// ELNs (the CER saboteur). Non-matching message types pass unchanged.
	Forge string `json:"forge,omitempty"`
	// ForgeFactor scales the "btp" forgery (claim' = claim*f + f);
	// zero means the default of 50.
	ForgeFactor float64 `json:"forge_factor,omitempty"`

	// Class restricts the whole rule to one message class: "control" hits
	// join/accept/leave/membership/switch/repair-request exchanges (and their
	// acks), "data" hits the rest, "" hits everything. Datagrams outside the
	// class pass the link untouched — the fault shape that isolates the
	// control plane, as in the control-loss scenario. The live network still
	// draws the link's per-datagram decision for non-matching traffic, so
	// decision indexing stays class-independent.
	Class string `json:"class,omitempty"`
}

// IsZero reports whether the rule injects nothing.
func (r Rule) IsZero() bool { return r == Rule{} }

// Validate checks probabilities and durations.
func (r Rule) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{{"drop", r.Drop}, {"duplicate", r.Duplicate}, {"reorder", r.Reorder},
		{"corrupt", r.Corrupt}, {"replay", r.Replay}} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("faultnet: %s probability %v outside [0,1]", p.name, p.v)
		}
	}
	if r.Latency < 0 || r.Jitter < 0 {
		return fmt.Errorf("faultnet: negative latency/jitter")
	}
	if r.RateBytes < 0 {
		return fmt.Errorf("faultnet: negative rate_bytes")
	}
	switch r.Forge {
	case "", ForgeBTP, ForgeRepair:
	default:
		return fmt.Errorf("faultnet: unknown forge kind %q (want %q or %q)", r.Forge, ForgeBTP, ForgeRepair)
	}
	if r.ForgeFactor < 0 {
		return fmt.Errorf("faultnet: negative forge_factor")
	}
	switch r.Class {
	case "", ClassControl, ClassData:
	default:
		return fmt.Errorf("faultnet: unknown class %q (want %q or %q)", r.Class, ClassControl, ClassData)
	}
	return nil
}

// Forge kinds.
const (
	// ForgeBTP inflates bandwidth-time-product claims in flight.
	ForgeBTP = "btp"
	// ForgeRepair inverts repair ranges in flight.
	ForgeRepair = "repair"
)

// Message classes for Rule.Class.
const (
	// ClassControl matches control-plane exchanges and their acks.
	ClassControl = "control"
	// ClassData matches everything else: packets, heartbeats, ELN, repair data.
	ClassData = "data"
)

// String renders a compact human-readable rule summary.
func (r Rule) String() string {
	if r.IsZero() {
		return "clean"
	}
	var parts []string
	if r.Block {
		parts = append(parts, "block")
	}
	if r.Drop > 0 {
		parts = append(parts, fmt.Sprintf("drop=%.2f", r.Drop))
	}
	if r.Duplicate > 0 {
		parts = append(parts, fmt.Sprintf("dup=%.2f", r.Duplicate))
	}
	if r.Reorder > 0 {
		parts = append(parts, fmt.Sprintf("reorder=%.2f", r.Reorder))
	}
	if r.Latency > 0 || r.Jitter > 0 {
		parts = append(parts, fmt.Sprintf("latency=%s+/-%s", r.Latency, r.Jitter))
	}
	if r.RateBytes > 0 {
		parts = append(parts, fmt.Sprintf("rate=%gB/s", r.RateBytes))
	}
	if r.Corrupt > 0 {
		parts = append(parts, fmt.Sprintf("corrupt=%.2f", r.Corrupt))
	}
	if r.Replay > 0 {
		parts = append(parts, fmt.Sprintf("replay=%.2f", r.Replay))
	}
	if r.Forge != "" {
		f := fmt.Sprintf("forge=%s", r.Forge)
		if r.ForgeFactor > 0 {
			f += fmt.Sprintf("x%g", r.ForgeFactor)
		}
		parts = append(parts, f)
	}
	if r.Class != "" {
		parts = append(parts, fmt.Sprintf("class=%s", r.Class))
	}
	return strings.Join(parts, " ")
}

// Match reports whether a link-endpoint pattern matches an address: "*"
// matches everything, anything else matches exactly.
func Match(pattern, addr string) bool {
	return pattern == "*" || pattern == addr
}

// Decision is the deterministic fault draw for one datagram on one link.
type Decision struct {
	// N is the 0-based index of the datagram on its link.
	N int64
	// Drop discards the datagram.
	Drop bool
	// Duplicate delivers it twice.
	Duplicate bool
	// Hold keeps it back until the next datagram on the link has passed.
	Hold bool
	// JitterFrac is a uniform [0,1) draw scaling the rule's Jitter.
	JitterFrac float64
	// Corrupt flips one bit of the datagram; CorruptPos and CorruptBit are
	// uniform [0,1) draws selecting the byte and the bit within it.
	Corrupt    bool
	CorruptPos float64
	CorruptBit float64
	// Replay re-delivers the link's previous datagram after this one.
	Replay bool
}

// Decider is one link's seeded decision stream. The same (seed, from, to)
// triple always yields the same decision sequence; different links are
// uncorrelated.
type Decider struct {
	rng *xrand.Source
	n   int64
}

// NewDecider derives the decision stream for the from→to link.
func NewDecider(seed int64, from, to string) *Decider {
	return &Decider{rng: xrand.NewNamed(seed, "faultnet:"+from+">"+to)}
}

// Next draws the decision for the link's next datagram. It consumes exactly
// eight uniform draws regardless of the rule's values, so the decision at
// index n depends only on (seed, link, n) — never on which rules were active
// for earlier datagrams.
func (d *Decider) Next(r Rule) Decision {
	dec := Decision{N: d.n}
	d.n++
	drop, dup, hold, jit := d.rng.Float64(), d.rng.Float64(), d.rng.Float64(), d.rng.Float64()
	corrupt, cpos, cbit, replay := d.rng.Float64(), d.rng.Float64(), d.rng.Float64(), d.rng.Float64()
	dec.Drop = drop < r.Drop
	dec.Duplicate = dup < r.Duplicate
	dec.Hold = hold < r.Reorder
	dec.JitterFrac = jit
	dec.Corrupt = corrupt < r.Corrupt
	dec.CorruptPos = cpos
	dec.CorruptBit = cbit
	dec.Replay = replay < r.Replay
	return dec
}

// LogEntry is one recorded fault. Per-datagram entries carry the link and
// datagram index with T = -1 — wall time is deliberately absent so that logs
// from two runs over the same traffic are byte-identical. Schedule entries
// carry the scheduled virtual offset instead.
type LogEntry struct {
	// T is the scheduled offset for schedule-driven entries, -1 for
	// per-datagram decisions.
	T time.Duration
	// Link is "from>to" for per-datagram entries.
	Link string
	// N is the datagram's index on its link.
	N int64
	// Action is what happened: drop, duplicate, hold, rate-drop, block,
	// corrupt, forge, replay, down, partition, heal, crash, restart, rule.
	Action string
	// Detail carries action-specific context.
	Detail string
}

// String renders the canonical log line.
func (e LogEntry) String() string {
	if e.T >= 0 {
		if e.Detail != "" {
			return fmt.Sprintf("t=%s %s %s", e.T, e.Action, e.Detail)
		}
		return fmt.Sprintf("t=%s %s", e.T, e.Action)
	}
	if e.Detail != "" {
		return fmt.Sprintf("%s #%d %s %s", e.Link, e.N, e.Action, e.Detail)
	}
	return fmt.Sprintf("%s #%d %s", e.Link, e.N, e.Action)
}

// LinkStats counts one directed link's outcomes. Given identical traffic and
// seed, two runs produce identical LinkStats.
type LinkStats struct {
	// Sent counts datagrams that reached the fault stage (not blocked).
	Sent int64
	// Dropped, Duplicated, Held and RateDropped count decision outcomes.
	Dropped     int64
	Duplicated  int64
	Held        int64
	RateDropped int64
	// Blocked counts datagrams discarded by a partition, Block rule or
	// crashed endpoint.
	Blocked int64
	// Corrupted, Forged and Replayed count adversarial outcomes: bit flips,
	// field forgeries actually applied, and re-delivered datagrams.
	Corrupted int64
	Forged    int64
	Replayed  int64
}
