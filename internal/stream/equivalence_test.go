package stream

import (
	"reflect"
	"strconv"
	"testing"
	"time"

	"omcast/internal/cer"
	"omcast/internal/overlay"
	"omcast/internal/topology"
	"omcast/internal/tracing"
	"omcast/internal/xrand"
)

// stallWindow is one orphan's starving window as the per-packet reference
// loop sees it: the bounds and slot count a stall span must carry.
type stallWindow struct {
	member     int64
	start, end float64 // seconds, as spans report them
	slots      int
}

// onFailureReference is Model.OnFailure with the historical per-packet
// episode loop in place of the interval accounting. It is the oracle for
// TestIntervalPathMatchesTracedPath and exists only here: production has one
// episode loop, traced or not.
func (m *Model) onFailureReference(failed *overlay.Member, now time.Duration, stalls *[]stallWindow) {
	orphans := failed.AppendChildren(nil)
	if len(orphans) == 0 {
		return
	}
	outageEnd := now + DefaultDetectDelay + DefaultRejoinDelay
	for _, c := range orphans {
		m.tree.VisitSubtree(c, func(d *overlay.Member) {
			if st := m.stateOf(d.ID); st != nil && st.viewStart <= now && st.outageUntil < outageEnd {
				st.outageUntil = outageEnd
			}
		})
	}
	for _, c := range orphans {
		m.runEpisodeReference(c, now, outageEnd, stalls)
	}
}

// runEpisodeReference walks every uncovered packet of every subtree member
// and compares its repair arrival (plus the member's extra hop) with its
// playback deadline, one packet at a time.
func (m *Model) runEpisodeReference(c *overlay.Member, failedAt, outageEnd time.Duration, stalls *[]stallWindow) {
	m.Episodes++
	first := m.packetAfter(failedAt)
	last := m.packetAfter(outageEnd) - 1
	if last < first {
		return
	}
	requestAt := failedAt + DefaultDetectDelay
	servers, ep := m.episodeInputs(c, first, last, requestAt, outageEnd)
	arrivals := cer.PlanRecoveryInto(ep, servers, nil)
	var stallFirst, stallLast time.Duration
	stallSlots := 0
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
		// Walk the same uncovered range the interval path accounts, so the
		// two paths charge identical packet sets.
		u := st.acc.uncovered(first, last+1)
		for n := u.from; n < u.to; n++ {
			deadline := m.gen(n) + m.cfg.Buffer
			arrival := arrivals[n-first]
			repaired := arrival != cer.Lost
			if !repaired || arrival+hop > deadline {
				st.starved += time.Duration(float64(time.Second) / DefaultRate)
			}
			if d == c {
				if repaired && arrival <= deadline {
					m.PacketsRepaired++
				} else {
					m.PacketsLost++
					if stallSlots == 0 {
						stallFirst = deadline
					}
					stallLast = deadline
					stallSlots++
				}
			}
		}
		st.acc.add(last + 1)
	})
	if stallSlots > 0 {
		slot := time.Duration(float64(time.Second) / DefaultRate)
		*stalls = append(*stalls, stallWindow{
			member: int64(c.ID),
			start:  stallFirst.Seconds(),
			end:    (stallLast + slot).Seconds(),
			slots:  stallSlots,
		})
	}
}

// TestIntervalPathMatchesTracedPath is the property test behind the
// interval accounting: over randomized small overlays and failure
// schedules, the production episode loop (sorted slacks + binary search +
// spanSet) must produce bit-identical results to the per-packet reference
// loop above, with and without a tracer attached, and the stall spans a
// traced run emits must carry exactly the starving windows the reference
// finds packet by packet. Scenarios include overlapping failure windows,
// repeat failures of the same subtree, late joiners and partial recovery
// bandwidth.
func TestIntervalPathMatchesTracedPath(t *testing.T) {
	type outcome struct {
		res      Result
		episodes int
		eln      int
		requests int
		repaired int
		lost     int
		stalls   []stallWindow
	}
	const (
		untraced = iota
		traced
		reference
	)
	stallsSeen := 0
	for seed := int64(0); seed < 12; seed++ {
		run := func(mode int) outcome {
			var stalls []stallWindow
			srng := xrand.New(4000 + seed) // scenario shape, shared by both runs
			tree, err := overlay.NewTree(0, 100, delayFn)
			if err != nil {
				t.Fatal(err)
			}
			attach := topology.NodeID(1)
			mk := func(parent *overlay.Member, bw float64) *overlay.Member {
				m := tree.NewMember(attach, bw, 0)
				attach++
				if err := tree.Attach(m.Slot(), parent.Slot()); err != nil {
					t.Fatal(err)
				}
				return m
			}
			nRelays := 2 + srng.Intn(3)
			var relays, leaves, helpers []*overlay.Member
			for i := 0; i < nRelays; i++ {
				r := mk(tree.Root(), 6)
				relays = append(relays, r)
				for j := 0; j < 1+srng.Intn(3); j++ {
					c := mk(r, 4)
					leaves = append(leaves, c)
					if srng.Intn(2) == 0 {
						leaves = append(leaves, mk(c, 2))
					}
				}
			}
			for i := 0; i < srng.Intn(4); i++ {
				helpers = append(helpers, mk(tree.Root(), 2))
			}
			cfg := Config{GroupSize: len(helpers), Striped: seed%2 == 0}
			if mode == traced {
				cfg.Trace = tracing.New(1, tracing.RecorderFunc(func(sp tracing.Span) {
					if sp.Kind != tracing.KindStall {
						return
					}
					w := stallWindow{member: sp.Member, start: sp.Start, end: sp.End}
					for _, a := range sp.Attrs {
						if a.K == "slots" {
							w.slots, _ = strconv.Atoi(a.V)
						}
					}
					stalls = append(stalls, w)
				}))
			}
			m := NewModel(tree, delayFn, &fixedSelector{group: helpers}, xrand.New(9000+seed), cfg)
			tree.VisitSubtree(tree.Root(), func(mem *overlay.Member) {
				if mem != tree.Root() {
					m.Register(mem, 0)
				}
			})
			// One late joiner under the first relay: its viewStart postdates
			// the first failure, so the skip branch is exercised.
			late := mk(relays[0], 1)
			m.Register(late, 150*time.Second)
			// Failure schedule: monotone times, overlapping windows (gaps of
			// 2-30 s vs a 15 s outage), repeat victims included.
			now := 100 * time.Second
			for i := 0; i < 4+srng.Intn(4); i++ {
				victim := relays[srng.Intn(len(relays))]
				if mode == reference {
					m.onFailureReference(victim, now, &stalls)
				} else {
					m.OnFailure(victim, now)
				}
				now += time.Duration(2+srng.Intn(29)) * time.Second
			}
			// Depart a couple of members mid-run, finish the rest.
			for i := 0; i < 2 && i < len(leaves); i++ {
				m.Depart(leaves[i].ID, now+100*time.Second)
			}
			m.Finish(1000 * time.Second)
			return outcome{
				res:      m.Result(),
				episodes: m.Episodes,
				eln:      m.ELNMessages,
				requests: m.RepairRequests,
				repaired: m.PacketsRepaired,
				lost:     m.PacketsLost,
				stalls:   stalls,
			}
		}
		legacy := run(reference)
		withTrace := run(traced)
		if !reflect.DeepEqual(withTrace.stalls, legacy.stalls) {
			t.Fatalf("seed %d: stall spans diverge from per-packet windows:\n spans     %+v\n reference %+v",
				seed, withTrace.stalls, legacy.stalls)
		}
		stallsSeen += len(legacy.stalls)
		for _, compact := range []outcome{run(untraced), withTrace} {
			if compact.episodes != legacy.episodes || compact.eln != legacy.eln ||
				compact.requests != legacy.requests {
				t.Fatalf("seed %d: episode counters diverge: compact %+v legacy %+v", seed, compact, legacy)
			}
			if compact.repaired != legacy.repaired || compact.lost != legacy.lost {
				t.Fatalf("seed %d: packet outcomes diverge: compact repaired=%d lost=%d, legacy repaired=%d lost=%d",
					seed, compact.repaired, compact.lost, legacy.repaired, legacy.lost)
			}
			if len(compact.res.Ratios) != len(legacy.res.Ratios) {
				t.Fatalf("seed %d: ratio counts diverge: %d vs %d", seed, len(compact.res.Ratios), len(legacy.res.Ratios))
			}
			for i := range compact.res.Ratios {
				if compact.res.Ratios[i] != legacy.res.Ratios[i] {
					t.Fatalf("seed %d: ratio[%d] = %g (compact) vs %g (legacy)",
						seed, i, compact.res.Ratios[i], legacy.res.Ratios[i])
				}
			}
		}
	}
	if stallsSeen == 0 {
		t.Fatal("no scenario starved an orphan: the stall-span comparison is vacuous")
	}
}
