package multitree

import (
	"sort"
	"testing"
	"time"

	"omcast/internal/eventsim"
	"omcast/internal/xrand"
)

// quickCfg is a small, fast session.
func quickCfg(seed int64, stripes int) Config {
	return Config{
		Seed:       seed,
		Stripes:    stripes,
		TargetSize: 300,
		Warmup:     1200 * time.Second,
		Measure:    1200 * time.Second,
	}
}

func runSession(t *testing.T, cfg Config) (*Session, Result) {
	t.Helper()
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := 0; i < cfg.Stripes; i++ {
		if err := s.Tree(i).CheckInvariants(); err != nil {
			t.Fatalf("tree %d invariants: %v", i, err)
		}
	}
	return s, res
}

func TestValidate(t *testing.T) {
	if err := (Config{Stripes: 0, TargetSize: 10}).Validate(); err == nil {
		t.Fatal("zero stripes accepted")
	}
	if err := (Config{Stripes: 2, TargetSize: 0}).Validate(); err == nil {
		t.Fatal("zero size accepted")
	}
	if _, err := NewSession(Config{}); err == nil {
		t.Fatal("zero config accepted")
	}
}

func TestDefaults(t *testing.T) {
	cfg := Config{Stripes: 4, TargetSize: 10}.withDefaults()
	if cfg.Contribution != SplitContribution {
		t.Fatal("contribution default wrong")
	}
	if cfg.QuorumStripes != 4 {
		t.Fatalf("quorum default = %d, want 4 (= stripes)", cfg.QuorumStripes)
	}
	if cfg.Rate != 10 || cfg.Buffer != 5*time.Second {
		t.Fatal("stream defaults wrong")
	}
	over := Config{Stripes: 2, TargetSize: 10, QuorumStripes: 5}.withDefaults()
	if over.QuorumStripes != 2 {
		t.Fatalf("oversized quorum not clamped: %d", over.QuorumStripes)
	}
}

func TestContributionString(t *testing.T) {
	if SplitContribution.String() != "split" || DisjointContribution.String() != "disjoint" {
		t.Fatal("contribution names wrong")
	}
}

func TestSingleStripeDegeneratesToSingleTree(t *testing.T) {
	_, res := runSession(t, quickCfg(1, 1))
	if res.Members == 0 {
		t.Fatal("no members measured")
	}
	if len(res.MaxDepths) != 1 {
		t.Fatalf("MaxDepths = %v, want one tree", res.MaxDepths)
	}
	if res.FullQualityRatio <= 0 || res.FullQualityRatio > 1 {
		t.Fatalf("quality ratio %g out of range", res.FullQualityRatio)
	}
}

func TestMultiStripeRuns(t *testing.T) {
	s, res := runSession(t, quickCfg(2, 4))
	if len(res.MaxDepths) != 4 {
		t.Fatalf("MaxDepths = %v, want 4 trees", res.MaxDepths)
	}
	if res.Episodes == 0 {
		t.Fatal("no recovery episodes under churn")
	}
	// Every participant node count matches across trees: members join all
	// stripes.
	sizes := make([]int, 4)
	for i := range sizes {
		sizes[i] = s.Tree(i).Size()
	}
	for i := 1; i < 4; i++ {
		diff := sizes[i] - sizes[0]
		if diff < -2 || diff > 2 {
			t.Fatalf("stripe tree sizes diverge: %v", sizes)
		}
	}
}

func TestDeterminism(t *testing.T) {
	_, a := runSession(t, quickCfg(3, 2))
	_, b := runSession(t, quickCfg(3, 2))
	if a.FullQualityRatio != b.FullQualityRatio || a.OutageRatio != b.OutageRatio ||
		a.Episodes != b.Episodes {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
}

// TestMDCQuorumAbsorbsLosses: with coding slack (quorum < stripes), the
// outage ratio must not exceed the no-slack outage ratio on the same run.
func TestMDCQuorumAbsorbsLosses(t *testing.T) {
	strict := quickCfg(4, 4)
	strict.QuorumStripes = 4
	_, a := runSession(t, strict)
	slack := quickCfg(4, 4)
	slack.QuorumStripes = 3
	_, b := runSession(t, slack)
	if b.OutageRatio > a.OutageRatio {
		t.Fatalf("coding slack increased outages: %g > %g", b.OutageRatio, a.OutageRatio)
	}
	if a.FullQualityRatio != b.FullQualityRatio {
		t.Fatal("quorum changed raw delivery (it must only change the outage mapping)")
	}
}

// TestDisjointContribution: members are interior in at most one tree.
func TestDisjointContribution(t *testing.T) {
	cfg := quickCfg(5, 3)
	cfg.Contribution = DisjointContribution
	s, res := runSession(t, cfg)
	if res.Members == 0 {
		t.Fatal("no members measured")
	}
	// Inspect the live population: a participant's nodes may have children
	// only in its designated tree.
	for id, p := range s.participants {
		interior := 0
		for tr, n := range p.nodes {
			if n != nil && len(n.Children()) > 0 {
				interior++
				if tr != p.designated {
					t.Fatalf("participant %d interior in tree %d, designated %d", id, tr, p.designated)
				}
			}
		}
		if interior > 1 {
			t.Fatalf("participant %d interior in %d trees", id, interior)
		}
	}
}

// TestROSTPerStripe: switching runs in every stripe tree.
func TestROSTPerStripe(t *testing.T) {
	cfg := quickCfg(6, 2)
	cfg.UseROST = true
	cfg.SwitchInterval = 120 * time.Second
	_, res := runSession(t, cfg)
	if res.Members == 0 {
		t.Fatal("no members measured")
	}
}

// TestStripePacketNumbering: stripe generation times interleave correctly.
func TestStripePacketNumbering(t *testing.T) {
	s, err := NewSession(quickCfg(7, 4))
	if err != nil {
		t.Fatal(err)
	}
	// Global packet n = k*4 + t is generated at n/Rate seconds.
	for tr := 0; tr < 4; tr++ {
		for k := int64(0); k < 50; k++ {
			want := time.Duration(float64(k*4+int64(tr)) / 10 * float64(time.Second))
			if got := s.stripeGen(tr, k); got != want {
				t.Fatalf("stripeGen(%d,%d) = %v, want %v", tr, k, got, want)
			}
		}
	}
	// packetAfter returns the first stripe packet at or after t.
	for tr := 0; tr < 4; tr++ {
		for _, at := range []time.Duration{0, time.Second, 1234 * time.Millisecond, time.Hour} {
			k := s.stripePacketAfter(tr, at)
			if s.stripeGen(tr, k) < at {
				t.Fatalf("stripePacketAfter(%d,%v) = %d generated before t", tr, at, k)
			}
			if k > 0 && s.stripeGen(tr, k-1) >= at {
				t.Fatalf("stripePacketAfter(%d,%v) = %d not minimal", tr, at, k)
			}
		}
	}
}

// driveCorrelated builds a static two-stripe population, fails an interior
// member of tree 1 at 50s, then fails an interior member of tree 0 at 55s —
// while tree 1 is still mid-repair (its outage window runs to
// 50s + DetectDelay + RejoinDelay = 65s) — and returns the session's final
// accounting. Deterministic: same seed, same trees, same victims.
func driveCorrelated(t *testing.T, quorum int, contribution Contribution) (*Session, Result) {
	t.Helper()
	cfg := Config{
		Seed:          99,
		Stripes:       2,
		QuorumStripes: quorum,
		Contribution:  contribution,
		TargetSize:    40,
		RootBandwidth: 4, // constrain the root so the trees have interior members
		// Floor member bandwidth at 4 so every member can forward at least
		// two children per stripe: the 40 members form real multi-level trees.
		Bandwidth: xrand.BoundedPareto{Shape: 1.2, Lo: 4, Hi: 100},
		Warmup:    time.Nanosecond, // measure essentially everything
		Measure:   3600 * time.Second,
	}
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.sim.Schedule(0, func(sim *eventsim.Simulator) {
		for i := 0; i < 40; i++ {
			s.joinAll(s.newParticipant(0), 0)
		}
	})
	if err := s.sim.Run(50 * time.Second); err != nil {
		t.Fatal(err)
	}
	pickInterior := func(tree int) *participant {
		ids := make([]int64, 0, len(s.participants))
		for id := range s.participants {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			p := s.participants[id]
			if n := p.nodes[tree]; n != nil && n.Attached() && len(n.Children()) > 0 {
				return p
			}
		}
		t.Fatalf("no interior member in tree %d", tree)
		return nil
	}
	s.depart(s.sim, pickInterior(1).id)
	if err := s.sim.Run(55 * time.Second); err != nil {
		t.Fatal(err)
	}
	s.depart(s.sim, pickInterior(0).id)
	if err := s.sim.Run(200 * time.Second); err != nil {
		t.Fatal(err)
	}
	s.finishAll()
	return s, s.result()
}

// TestCorrelatedStripeFailures: when tree A loses an interior member while
// tree B is mid-repair, both trees must record their own episodes and the
// MDC quorum decides whether the overlap becomes an outage: with one stripe
// of slack (quorum 1 of 2) the coding absorbs what the strict quorum counts.
func TestCorrelatedStripeFailures(t *testing.T) {
	_, strict := driveCorrelated(t, 2, SplitContribution)
	_, slack := driveCorrelated(t, 1, SplitContribution)
	if strict.Episodes == 0 {
		t.Fatal("correlated failures ran no recovery episodes")
	}
	epA, epB := strict.TreeEpisodes[0], strict.TreeEpisodes[1]
	if epA == 0 || epB == 0 {
		t.Fatalf("per-tree episodes = (%d, %d), want both trees charged", epA, epB)
	}
	if epA+epB != strict.Episodes {
		t.Fatalf("per-tree episodes %d+%d != total %d", epA, epB, strict.Episodes)
	}
	// Identical runs, different quorum: raw delivery identical, outage only
	// at the strict quorum.
	if strict.FullQualityRatio != slack.FullQualityRatio {
		t.Fatalf("quorum changed raw delivery: %g vs %g",
			strict.FullQualityRatio, slack.FullQualityRatio)
	}
	if strict.OutageRatio < slack.OutageRatio {
		t.Fatalf("strict quorum outage %g below slack quorum %g",
			strict.OutageRatio, slack.OutageRatio)
	}
	if strict.OutageRatio == 0 {
		t.Fatal("strict quorum saw no outage from correlated failures")
	}
	if slack.OutageRatio > 0 {
		t.Fatalf("one stripe of MDC slack did not absorb a single-stripe-deep overlap: %g",
			slack.OutageRatio)
	}
}

// TestBlastRadiusAccounting: under SplitContribution one member can be
// interior in several trees at once, so a single failure may disrupt
// multiple stripes; DisjointContribution's interior-disjointness bounds the
// blast radius at one stripe.
func TestBlastRadiusAccounting(t *testing.T) {
	_, split := driveCorrelated(t, 2, SplitContribution)
	if split.MaxBlastRadius < 1 {
		t.Fatalf("split blast radius %d after interior failures, want >= 1", split.MaxBlastRadius)
	}
	if split.MaxBlastRadius > 2 {
		t.Fatalf("blast radius %d exceeds stripe count", split.MaxBlastRadius)
	}
	_, disjoint := driveCorrelated(t, 2, DisjointContribution)
	if disjoint.MaxBlastRadius > 1 {
		t.Fatalf("disjoint blast radius %d, want <= 1 (interior-node disjointness)",
			disjoint.MaxBlastRadius)
	}
}

// TestDisjointBlastRadiusUnderChurn: the blast-radius bound holds over a
// whole churned session, not just a scripted failure pair.
func TestDisjointBlastRadiusUnderChurn(t *testing.T) {
	cfg := quickCfg(10, 3)
	cfg.Contribution = DisjointContribution
	_, res := runSession(t, cfg)
	if res.MaxBlastRadius > 1 {
		t.Fatalf("disjoint blast radius %d under churn, want <= 1", res.MaxBlastRadius)
	}
	if res.Episodes > 0 && res.MaxBlastRadius != 1 {
		t.Fatalf("episodes ran (%d) but blast radius is %d", res.Episodes, res.MaxBlastRadius)
	}
}

// TestMoreStripesReduceOutage is the extension's headline: with the same
// population and MDC slack of one stripe, striping reduces outages compared
// to the single tree because a failure interrupts only one stripe.
func TestMoreStripesReduceOutage(t *testing.T) {
	single := quickCfg(8, 1)
	single.TargetSize = 500
	_, a := runSession(t, single)
	striped := quickCfg(8, 4)
	striped.TargetSize = 500
	striped.QuorumStripes = 3
	_, b := runSession(t, striped)
	if b.OutageRatio >= a.OutageRatio {
		t.Fatalf("4-stripe MDC outage %g not below single-tree %g", b.OutageRatio, a.OutageRatio)
	}
}
