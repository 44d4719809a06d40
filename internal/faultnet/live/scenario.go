package live

import (
	"time"

	"omcast/internal/faultnet"
)

// d wraps a literal for schedule fields.
func d(v time.Duration) faultnet.Duration { return faultnet.Duration(v) }

// rp returns a pointer to a rule (schedule fields take pointers so "absent"
// and "clean" stay distinguishable in JSON).
func rp(r faultnet.Rule) *faultnet.Rule { return &r }

// Scenarios is the chaos resilience suite: the fault shapes the paper's
// design claims to survive, each byte-reproducible from its seed. Timings
// are virtual time. Bounds are deliberately loose — they assert "recovered,
// kept playing, no storm", not exact figures, so a protocol change that
// moves recovery by a few heartbeats does not break the suite.
var Scenarios = []Scenario{
	{
		Name:     "lossy-10",
		About:    "10% uniform loss on every link; playback must degrade gracefully, not diverge",
		Nodes:    8,
		Seed:     1001,
		Warmup:   5 * time.Second,
		Duration: 3 * time.Second,
		Schedule: faultnet.Schedule{
			Events: []faultnet.Event{
				{At: d(200 * time.Millisecond), Action: faultnet.ActionRule, From: "*", To: "*",
					Rule: rp(faultnet.Rule{Drop: 0.10})},
			},
		},
		Bounds: Bounds{
			RequireAllAttached: true,
			MaxStarvingRatio:   0.35,
			MinPacketsFrac:     0.4,
		},
	},
	{
		Name:     "lossy-20",
		About:    "20% loss with reordering and jittered latency — the paper's hostile-network regime",
		Nodes:    8,
		Seed:     1002,
		Warmup:   5 * time.Second,
		Duration: 3 * time.Second,
		Schedule: faultnet.Schedule{
			Events: []faultnet.Event{
				{At: d(200 * time.Millisecond), Action: faultnet.ActionRule, From: "*", To: "*",
					Rule: rp(faultnet.Rule{Drop: 0.20, Reorder: 0.05,
						Latency: d(2 * time.Millisecond), Jitter: d(3 * time.Millisecond)})},
			},
		},
		Bounds: Bounds{
			RequireAllAttached: true,
			MaxStarvingRatio:   0.6,
			MinPacketsFrac:     0.25,
		},
	},
	{
		Name:     "parent-crash",
		About:    "an interior parent crashes mid-stream and later returns; orphans must re-attach within the heartbeat-timeout + rejoin bound",
		Nodes:    8,
		SourceBW: 2, // narrow fan-out forces depth >= 2, so n00 serves children
		NodeBW:   3,
		Seed:     1003,
		Warmup:   5 * time.Second,
		// n00 boots ahead of the pack, claims a source slot, and the rest
		// attach beneath — so the crash hits a node with children.
		BootDelay: 30 * time.Millisecond,
		Duration:  3500 * time.Millisecond,
		Schedule: faultnet.Schedule{
			Events: []faultnet.Event{
				{At: d(500 * time.Millisecond), Until: d(2 * time.Second),
					Action: faultnet.ActionCrash, Node: "n00"},
			},
		},
		Bounds: Bounds{
			RequireAllAttached: true,
			// Heartbeat timeout (3x20 ms) + join backoff to cap (~8x20 ms)
			// + a couple of retry rounds and the restarted node's own
			// rejoin: 2 s of post-restart budget is the configured bound.
			RecoverWithin:    2 * time.Second,
			MaxStarvingRatio: 0.6,
			MinRejoinsTotal:  1, // the crash must orphan someone
		},
	},
	{
		Name:     "source-partition-heal",
		About:    "the source is cut off from everyone and comes back; the heal must not trigger a repair-request storm",
		Nodes:    8,
		Seed:     1004,
		Warmup:   5 * time.Second,
		Duration: 3 * time.Second,
		Schedule: faultnet.Schedule{
			Events: []faultnet.Event{
				{At: d(500 * time.Millisecond), Until: d(1200 * time.Millisecond),
					Action: faultnet.ActionPartition, From: "source", To: "*", Symmetric: true},
				// The first post-heal second stays lossy on the source's links:
				// the gap keeps re-opening while the backoff gate is closed, so
				// the suppression bound below measures the gate, not the
				// scheduler's luck with out-of-order repair data.
				{At: d(1200 * time.Millisecond), Until: d(2200 * time.Millisecond),
					Action: faultnet.ActionRule, From: "source", To: "*",
					Rule: rp(faultnet.Rule{Drop: 0.25})},
			},
		},
		Bounds: Bounds{
			RequireAllAttached: true,
			// The 700 ms outage is ~70 packets of gap detected by every node
			// at heal; the backoff gate must collapse that into few requests.
			MaxRepairRequestsPerNode:  60,
			MinRepairsSuppressedTotal: 1,
		},
	},
	{
		Name:     "asym-partition",
		About:    "one-way partition: a CER recovery-group member can receive but not send, so striped repair must route around it",
		Nodes:    10,
		Seed:     1005,
		Warmup:   5 * time.Second,
		Duration: 3 * time.Second,
		Schedule: faultnet.Schedule{
			Events: []faultnet.Event{
				// n01 and n02 lose their outbound half only: requests reach
				// them, answers die. Membership staleness must eventually
				// steer repair (and join) traffic elsewhere.
				{At: d(500 * time.Millisecond), Until: d(1700 * time.Millisecond),
					Action: faultnet.ActionPartition, From: "n01", To: "*"},
				{At: d(500 * time.Millisecond), Until: d(1700 * time.Millisecond),
					Action: faultnet.ActionPartition, From: "n02", To: "*"},
			},
		},
		Bounds: Bounds{
			RequireAllAttached: true,
			MaxStarvingRatio:   0.7,
		},
	},
	{
		Name:     "rolling-restart",
		About:    "three members crash and return in an overlapping wave; the overlay must converge back to full attachment",
		Nodes:    9,
		Seed:     1006,
		Warmup:   5 * time.Second,
		Duration: 4 * time.Second,
		Schedule: faultnet.Schedule{
			Events: []faultnet.Event{
				{At: d(500 * time.Millisecond), Until: d(1300 * time.Millisecond),
					Action: faultnet.ActionCrash, Node: "n01"},
				{At: d(1 * time.Second), Until: d(1800 * time.Millisecond),
					Action: faultnet.ActionCrash, Node: "n02"},
				{At: d(1500 * time.Millisecond), Until: d(2300 * time.Millisecond),
					Action: faultnet.ActionCrash, Node: "n03"},
			},
		},
		Bounds: Bounds{
			RequireAllAttached: true,
			RecoverWithin:      2 * time.Second,
		},
	},
	{
		Name:  "byzantine-btp-forge",
		About: "one peer inflates its BTP claims 50x on every heartbeat and switch-propose; the per-peer audit must convict and quarantine it while honest members keep streaming",
		Nodes: 9,
		Seed:  1008,
		// n08 boots last: a leaf when the forging starts, so the attack tests
		// the audit, not tree repair.
		BootDelay: 30 * time.Millisecond,
		Warmup:    5 * time.Second,
		Duration:  3 * time.Second,
		Schedule: faultnet.Schedule{
			Events: []faultnet.Event{
				{At: d(200 * time.Millisecond), Action: faultnet.ActionRule, From: "n08", To: "*",
					Rule: rp(faultnet.Rule{Forge: faultnet.ForgeBTP, ForgeFactor: 50})},
			},
		},
		Byzantine: []string{"n08"},
		Bounds: Bounds{
			RequireAllAttached:  true,
			MaxStarvingRatio:    0.6,
			MinAuditFailsTotal:  1, // the inflated claims must be caught...
			MinQuarantinesTotal: 1, // ...and the forger sentenced
		},
	},
	{
		Name:  "byzantine-repair-forge",
		About: "one peer's repair requests and ELNs are rewritten to inverted ranges in flight; receivers must wire-reject and attribute them, and honest repair must keep working",
		Nodes: 9,
		Seed:  1009,
		// Inbound loss makes n08 actually issue repair requests (the forge
		// needs traffic to rewrite); honest links stay clean.
		BootDelay: 30 * time.Millisecond,
		Warmup:    5 * time.Second,
		Duration:  3 * time.Second,
		Schedule: faultnet.Schedule{
			Events: []faultnet.Event{
				{At: d(200 * time.Millisecond), Action: faultnet.ActionRule, From: "*", To: "n08",
					Rule: rp(faultnet.Rule{Drop: 0.15})},
				{At: d(200 * time.Millisecond), Action: faultnet.ActionRule, From: "n08", To: "*",
					Rule: rp(faultnet.Rule{Forge: faultnet.ForgeRepair})},
			},
		},
		Byzantine: []string{"n08"},
		Bounds: Bounds{
			RequireAllAttached:  true,
			MaxStarvingRatio:    0.6,
			MinWireRejectsTotal: 2,
		},
	},
	{
		Name:  "byzantine-corrupt",
		About: "a quarter of one peer's datagrams get a deterministic bit flipped in flight; wire validation must shed the garbage and the honest overlay must not notice",
		Nodes: 9,
		Seed:  1010,
		// Corruption is unattributable (a flipped bit can land in the magic or
		// in From itself, so the claimed sender cannot be trusted): the bound
		// is containment plus rejection counts — not a quarantine conviction.
		BootDelay: 30 * time.Millisecond,
		Warmup:    5 * time.Second,
		Duration:  3 * time.Second,
		Schedule: faultnet.Schedule{
			Events: []faultnet.Event{
				{At: d(200 * time.Millisecond), Action: faultnet.ActionRule, From: "n08", To: "*",
					Rule: rp(faultnet.Rule{Corrupt: 0.25})},
			},
		},
		Byzantine: []string{"n08"},
		Bounds: Bounds{
			RequireAllAttached:  true,
			MaxStarvingRatio:    0.6,
			MinWireRejectsTotal: 1,
		},
	},
	{
		Name:  "byzantine-replay",
		About: "one peer's links replay half their datagrams and duplicate a third more; stale heartbeats, repeated repair requests and duplicate packets must all be absorbed",
		Nodes: 9,
		Seed:  1011,
		// Replayed envelopes are syntactically honest, so there is nothing to
		// convict — the assertion is pure delivery continuity under echo.
		BootDelay: 30 * time.Millisecond,
		Warmup:    5 * time.Second,
		Duration:  3 * time.Second,
		Schedule: faultnet.Schedule{
			Events: []faultnet.Event{
				{At: d(200 * time.Millisecond), Action: faultnet.ActionRule, From: "n08", To: "*",
					Rule: rp(faultnet.Rule{Replay: 0.5, Duplicate: 0.3})},
			},
		},
		Byzantine: []string{"n08"},
		Bounds: Bounds{
			RequireAllAttached: true,
			MaxStarvingRatio:   0.6,
		},
	},
	{
		Name:  "byzantine-64",
		About: "the acceptance scenario: 64 members, three byzantine (BTP forger, repair forger, corrupter); honest delivery continuity and quarantine convergence must hold at scale",
		Nodes: 64,
		// A slightly wider source keeps the deep tree forming briskly; the
		// short boot stagger stops 64 simultaneous joins from thundering.
		SourceBW:  4,
		NodeBW:    3,
		Seed:      1012,
		BootDelay: 10 * time.Millisecond,
		Warmup:    8 * time.Second,
		Duration:  3 * time.Second,
		Schedule: faultnet.Schedule{
			Events: []faultnet.Event{
				{At: d(200 * time.Millisecond), Action: faultnet.ActionRule, From: "n61", To: "*",
					Rule: rp(faultnet.Rule{Forge: faultnet.ForgeBTP, ForgeFactor: 50})},
				{At: d(200 * time.Millisecond), Action: faultnet.ActionRule, From: "*", To: "n62",
					Rule: rp(faultnet.Rule{Drop: 0.15})},
				{At: d(200 * time.Millisecond), Action: faultnet.ActionRule, From: "n62", To: "*",
					Rule: rp(faultnet.Rule{Forge: faultnet.ForgeRepair})},
				{At: d(200 * time.Millisecond), Action: faultnet.ActionRule, From: "n63", To: "*",
					Rule: rp(faultnet.Rule{Corrupt: 0.2})},
			},
		},
		Byzantine: []string{"n61", "n62", "n63"},
		Bounds: Bounds{
			RequireAllAttached:  true,
			MaxStarvingRatio:    0.7,
			MinAuditFailsTotal:  1,
			MinQuarantinesTotal: 1,
			MinWireRejectsTotal: 1,
		},
	},
	{
		Name:     "join-loss-30",
		About:    "the satellite regression: 30% loss from birth — every node must still join within a bound, thanks to backoff-paced retries",
		Nodes:    6,
		Seed:     1007,
		Warmup:   0, // faults active while joining
		Duration: 1 * time.Second,
		Schedule: faultnet.Schedule{
			DefaultRule: rp(faultnet.Rule{Drop: 0.30}),
		},
		// No RequireAllAttached: under sustained 30% loss a heartbeat window
		// occasionally misses three times in a row, so a member can be
		// mid-rejoin at the collection instant. The regression bound is the
		// attach time, not the end-state snapshot.
		Bounds: Bounds{
			AttachWithin: 8 * time.Second,
		},
	},
	{
		Name:    "control-loss",
		About:   "30%+ loss on control-class datagrams only (joins, accepts, membership, switches, repair requests and their acks) while the data plane stays clean; the retransmit shim must keep attachment exchanges completing, proven by a source kill mid-loss",
		Nodes:   10,
		Sources: 2,
		Seed:    1015,
		Warmup:  5 * time.Second,
		// The class filter is the point: data packets flow untouched, so any
		// outage is purely a control-plane failure to (re-)attach.
		Duration: 3500 * time.Millisecond,
		Schedule: faultnet.Schedule{
			DefaultRule: rp(faultnet.Rule{Drop: 0.35, Class: faultnet.ClassControl}),
			Events: []faultnet.Event{
				{At: d(500 * time.Millisecond), Action: faultnet.ActionCrash, Node: "source1"},
			},
		},
		Bounds: Bounds{
			RequireAllAttached: true,
			// The source-kill budget plus headroom for retransmit rounds: each
			// lost join/accept costs one capped backoff step instead of a full
			// watchdog timeout, so 30% control loss only stretches failover,
			// never stalls it.
			MaxReassignTime:  3 * time.Second,
			MaxStarvingRatio: 0.7,
			MaxOutageRatio:   0.5,
			MinRejoinsTotal:  1, // the kill must orphan someone
		},
	},
	{
		Name:    "source-kill",
		About:   "two sources; one is killed mid-stream and never returns — every orphaned viewer must be re-assigned to the survivor's tree within the failover bound",
		Nodes:   10,
		Sources: 2,
		Seed:    1013,
		Warmup:  5 * time.Second,
		// Both sources sit at depth 0 with three slots each, so the join
		// ranking (min depth, then spare) reliably parks members under
		// source1 before the kill.
		Duration: 3500 * time.Millisecond,
		Schedule: faultnet.Schedule{
			Events: []faultnet.Event{
				{At: d(500 * time.Millisecond), Action: faultnet.ActionCrash, Node: "source1"},
			},
		},
		Bounds: Bounds{
			RequireAllAttached: true,
			// Heartbeat timeout (3x20 ms) + one unanswered join to the dead
			// source's stale membership record + backoff-paced retries to a
			// live candidate: 2.5 s of post-kill budget.
			MaxReassignTime:  2500 * time.Millisecond,
			MaxStarvingRatio: 0.7,
			MaxOutageRatio:   0.4,
			MinRejoinsTotal:  1, // the kill must orphan someone
		},
	},
	{
		Name:    "source-kill-cascade",
		About:   "three sources; two die in sequence (the gap models the paper's 10 s cascade at the harness's ~30x compressed timescale) — the orphans must drain onto the last survivor without a rejoin storm",
		Nodes:   12,
		Sources: 3,
		Seed:    1014,
		Warmup:  5 * time.Second,
		// The second kill lands while source1's orphans are mid-failover, so
		// re-assignment must cope with a shrinking candidate set.
		Duration: 4 * time.Second,
		Schedule: faultnet.Schedule{
			Events: []faultnet.Event{
				{At: d(500 * time.Millisecond), Action: faultnet.ActionCrash, Node: "source1"},
				{At: d(800 * time.Millisecond), Action: faultnet.ActionCrash, Node: "source2"},
			},
		},
		Bounds: Bounds{
			RequireAllAttached: true,
			// Clock starts at the second kill; orphans of the first have a
			// head start but may have landed on source2 and be orphaned twice.
			MaxReassignTime:  2500 * time.Millisecond,
			MaxStarvingRatio: 0.7,
			MaxOutageRatio:   0.5,
			MinRejoinsTotal:  2, // both kills must orphan someone
		},
	},
}

// Scenario looks a scenario up by name (nil if unknown).
func ScenarioByName(name string) *Scenario {
	for i := range Scenarios {
		if Scenarios[i].Name == name {
			s := Scenarios[i]
			return &s
		}
	}
	return nil
}
