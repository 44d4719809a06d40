package omcast_test

import (
	"testing"
	"time"

	"omcast"
	"omcast/internal/bench"
)

// quickConfig is a fast configuration used across the API tests: a small
// underlay, a few hundred members, short windows.
func quickConfig(seed int64, alg omcast.Algorithm) omcast.Config {
	return omcast.Config{
		Seed:       seed,
		Algorithm:  alg,
		TargetSize: 300,
		Topology:   omcast.SmallTopology(),
		Warmup:     900 * time.Second,
		Measure:    1200 * time.Second,
	}
}

func TestAlgorithmStrings(t *testing.T) {
	want := map[omcast.Algorithm]string{
		omcast.MinimumDepth:            "Minimum-depth",
		omcast.LongestFirst:            "Longest-first",
		omcast.RelaxedBandwidthOrdered: "Relaxed bandwidth-ordered",
		omcast.RelaxedTimeOrdered:      "Relaxed time-ordered",
		omcast.ROST:                    "ROST",
	}
	for a, s := range want {
		if a.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(a), a.String(), s)
		}
	}
	if len(omcast.Algorithms) != 5 {
		t.Fatalf("Algorithms lists %d entries, want 5", len(omcast.Algorithms))
	}
}

func TestRecoveryStrings(t *testing.T) {
	if omcast.CER.String() != "CER" || omcast.SingleSource.String() != "Single-source" {
		t.Fatal("recovery scheme names wrong")
	}
}

func TestConfigValidate(t *testing.T) {
	if _, err := omcast.Run(omcast.Config{}); err == nil {
		t.Fatal("zero config accepted")
	}
	bad := quickConfig(1, omcast.Algorithm(99))
	if _, err := omcast.Run(bad); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestRunEveryAlgorithm(t *testing.T) {
	for _, alg := range omcast.Algorithms {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			res, err := omcast.Run(quickConfig(42, alg))
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if res.Algorithm != alg {
				t.Fatalf("result algorithm %v, want %v", res.Algorithm, alg)
			}
			if res.Departures == 0 {
				t.Fatal("no measured departures")
			}
			if res.AvgSize <= 0 || res.AvgServiceDelayMS <= 0 || res.AvgStretch < 1 {
				t.Fatalf("degenerate metrics: %+v", res)
			}
			if alg == omcast.ROST && res.Switches == 0 {
				t.Fatal("ROST performed no switches")
			}
			if alg == omcast.MinimumDepth && res.AvgReconnections != 0 {
				t.Fatal("minimum-depth charged optimizer reconnections")
			}
			if alg == omcast.LongestFirst && res.AvgReconnections != 0 {
				t.Fatal("longest-first charged optimizer reconnections")
			}
		})
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := omcast.Run(quickConfig(7, omcast.ROST))
	if err != nil {
		t.Fatal(err)
	}
	b, err := omcast.Run(quickConfig(7, omcast.ROST))
	if err != nil {
		t.Fatal(err)
	}
	if a.AvgDisruptions != b.AvgDisruptions || a.Switches != b.Switches ||
		a.AvgServiceDelayMS != b.AvgServiceDelayMS {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
}

func TestRunWithReferees(t *testing.T) {
	cfg := quickConfig(11, omcast.ROST)
	cfg.EnableReferees = true
	res, err := omcast.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Honest population: referee checks pass and switching proceeds.
	if res.Switches == 0 {
		t.Fatal("referee-verified ROST performed no switches")
	}
	if res.RejectedClaims != 0 {
		t.Fatalf("honest members had %d claims rejected", res.RejectedClaims)
	}
}

func TestRunStreamingCER(t *testing.T) {
	res, err := omcast.RunStreaming(quickConfig(5, omcast.MinimumDepth), omcast.StreamConfig{
		Recovery:  omcast.CER,
		GroupSize: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.StreamMembers == 0 {
		t.Fatal("no stream members measured")
	}
	if res.Episodes == 0 || res.RepairRequests == 0 {
		t.Fatal("no recovery activity under churn")
	}
	if res.AvgStarvingRatio < 0 || res.AvgStarvingRatio > 1 {
		t.Fatalf("starving ratio %g out of range", res.AvgStarvingRatio)
	}
}

func TestRunStreamingGroupSizeHelps(t *testing.T) {
	ratio := func(k int) float64 {
		res, err := omcast.RunStreaming(quickConfig(9, omcast.MinimumDepth), omcast.StreamConfig{
			Recovery:  omcast.CER,
			GroupSize: k,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.AvgStarvingRatio
	}
	if r1, r3 := ratio(1), ratio(3); r3 >= r1 {
		t.Fatalf("group size 3 ratio %g not below group size 1 ratio %g", r3, r1)
	}
}

func TestRunStreamingBaselineWorse(t *testing.T) {
	cer, err := omcast.RunStreaming(quickConfig(13, omcast.ROST), omcast.StreamConfig{
		Recovery: omcast.CER, GroupSize: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	base, err := omcast.RunStreaming(quickConfig(13, omcast.MinimumDepth), omcast.StreamConfig{
		Recovery: omcast.SingleSource, GroupSize: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if cer.AvgStarvingRatio >= base.AvgStarvingRatio {
		t.Fatalf("ROST+CER ratio %g not below baseline %g", cer.AvgStarvingRatio, base.AvgStarvingRatio)
	}
}

func TestRunTracked(t *testing.T) {
	series, res, err := omcast.RunTracked(quickConfig(3, omcast.ROST), 2, 1800*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(series.Minutes) < 25 {
		t.Fatalf("only %d tracked samples", len(series.Minutes))
	}
	for i := 1; i < len(series.Disruptions); i++ {
		if series.Disruptions[i] < series.Disruptions[i-1] {
			t.Fatal("cumulative disruptions decreased")
		}
	}
	if res.Departures == 0 {
		t.Fatal("tracked run measured nothing")
	}
}

func TestRunFlashCrowd(t *testing.T) {
	cfg := quickConfig(21, omcast.MinimumDepth)
	cfg.FlashCrowd = &omcast.FlashCrowd{At: 600 * time.Second, Size: 200}
	res, err := omcast.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The burst inflates the steady-state size: baseline ~300 plus a share
	// of the 200 burst members that are still alive during measurement.
	base, err := omcast.Run(quickConfig(21, omcast.MinimumDepth))
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgSize <= base.AvgSize {
		t.Fatalf("flash crowd did not grow the session: %f vs %f", res.AvgSize, base.AvgSize)
	}
}

func TestRunFlashCrowdValidation(t *testing.T) {
	cfg := quickConfig(21, omcast.MinimumDepth)
	cfg.FlashCrowd = &omcast.FlashCrowd{At: -time.Second, Size: 10}
	if _, err := omcast.Run(cfg); err == nil {
		t.Fatal("negative burst time accepted")
	}
	cfg.FlashCrowd = &omcast.FlashCrowd{At: time.Second, Size: 0}
	if _, err := omcast.Run(cfg); err == nil {
		t.Fatal("empty burst accepted")
	}
}

func TestRunCheatersCaught(t *testing.T) {
	cfg := quickConfig(22, omcast.ROST)
	cfg.Cheaters = 10
	cfg.CheatFactor = 50
	res, err := omcast.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.CheaterCount == 0 {
		t.Fatal("no cheaters alive at the end of the run")
	}
	if res.RejectedClaims == 0 {
		t.Fatal("referees rejected no claims despite persistent cheaters")
	}
}

func TestRunCheatersClimbWithoutVerification(t *testing.T) {
	protected := quickConfig(23, omcast.ROST)
	protected.Cheaters = 15
	unprotected := protected
	unprotected.DisableClaimVerification = true
	pres, err := omcast.Run(protected)
	if err != nil {
		t.Fatal(err)
	}
	ures, err := omcast.Run(unprotected)
	if err != nil {
		t.Fatal(err)
	}
	if ures.RejectedClaims != 0 {
		t.Fatal("unprotected run rejected claims")
	}
	// Unverified cheaters end up higher relative to the honest population
	// than verified ones do.
	pGap := pres.HonestMeanDepth - pres.CheaterMeanDepth
	uGap := ures.HonestMeanDepth - ures.CheaterMeanDepth
	if uGap <= pGap {
		t.Fatalf("cheaters did not profit from missing verification: protected gap %.2f, unprotected gap %.2f", pGap, uGap)
	}
}

func TestRunCheatersRequireROST(t *testing.T) {
	cfg := quickConfig(24, omcast.MinimumDepth)
	cfg.Cheaters = 5
	if _, err := omcast.Run(cfg); err == nil {
		t.Fatal("cheater injection accepted for a non-switching algorithm")
	}
}

func TestRunContributorPriority(t *testing.T) {
	cfg := quickConfig(25, omcast.ROST)
	cfg.ContributorPriority = true
	res, err := omcast.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Departures == 0 || res.AvgServiceDelayMS <= 0 {
		t.Fatalf("degenerate contributor-priority run: %+v", res)
	}
}

func TestRunDisableAncestorRejoin(t *testing.T) {
	cfg := quickConfig(26, omcast.ROST)
	cfg.DisableAncestorRejoin = true
	res, err := omcast.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Departures == 0 {
		t.Fatal("degenerate run without ancestor rejoin")
	}
}

func TestRunSessionAge(t *testing.T) {
	short := quickConfig(27, omcast.ROST)
	short.SessionAge = 30 * time.Minute
	long := quickConfig(27, omcast.ROST)
	long.SessionAge = 8 * time.Hour
	a, err := omcast.Run(short)
	if err != nil {
		t.Fatal(err)
	}
	b, err := omcast.Run(long)
	if err != nil {
		t.Fatal(err)
	}
	// Different notional session ages give different seeded populations.
	if a.AvgSize == b.AvgSize && a.AvgDisruptions == b.AvgDisruptions {
		t.Fatal("session age had no effect on the run")
	}
}

func TestRunStreamingRandomGroupAblation(t *testing.T) {
	res, err := omcast.RunStreaming(quickConfig(28, omcast.MinimumDepth), omcast.StreamConfig{
		Recovery:  omcast.CERRandomGroup,
		GroupSize: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.StreamMembers == 0 || res.Episodes == 0 {
		t.Fatal("degenerate random-group run")
	}
}

func TestRunStreamingBufferMatters(t *testing.T) {
	small := omcast.StreamConfig{Recovery: omcast.CER, GroupSize: 1, Buffer: 5 * time.Second}
	large := omcast.StreamConfig{Recovery: omcast.CER, GroupSize: 1, Buffer: 30 * time.Second}
	a, err := omcast.RunStreaming(quickConfig(29, omcast.MinimumDepth), small)
	if err != nil {
		t.Fatal(err)
	}
	b, err := omcast.RunStreaming(quickConfig(29, omcast.MinimumDepth), large)
	if err != nil {
		t.Fatal(err)
	}
	if b.AvgStarvingRatio >= a.AvgStarvingRatio {
		t.Fatalf("30s buffer (%.4f) not better than 5s buffer (%.4f)", b.AvgStarvingRatio, a.AvgStarvingRatio)
	}
}

func TestRunStreamingUnknownRecovery(t *testing.T) {
	_, err := omcast.RunStreaming(quickConfig(30, omcast.MinimumDepth), omcast.StreamConfig{
		Recovery: omcast.Recovery(99),
	})
	if err == nil {
		t.Fatal("unknown recovery scheme accepted")
	}
}

func TestRunPerLifetimeMetricsPopulated(t *testing.T) {
	res, err := omcast.Run(quickConfig(31, omcast.MinimumDepth))
	if err != nil {
		t.Fatal(err)
	}
	if res.PerLifetimeDisruptions <= 0 {
		t.Fatalf("PerLifetimeDisruptions = %g, want > 0", res.PerLifetimeDisruptions)
	}
	if res.AvgDisruptions <= 0 {
		t.Fatalf("AvgDisruptions = %g, want > 0", res.AvgDisruptions)
	}
}

// TestRunParanoid: a paranoid run routes every invariant check through the
// full scan and schedules periodic audits; a healthy session must still
// complete and produce the usual metrics. (Paranoid runs are only
// comparable to other paranoid runs — the audit events can shift same-time
// tie-breaks — so this test makes no cross-mode output comparison.)
func TestRunParanoid(t *testing.T) {
	cfg := quickConfig(3, omcast.ROST)
	cfg.Paranoid = true
	res, err := omcast.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgSize <= 0 || res.Departures == 0 {
		t.Fatalf("paranoid run produced no measurement: %+v", res)
	}
	// Paranoid mode is itself deterministic in the seed.
	again, err := omcast.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgDisruptions != again.AvgDisruptions || res.AvgSize != again.AvgSize {
		t.Fatalf("paranoid runs diverged: %+v vs %+v", res, again)
	}
}

// TestRunScale: the scale harness must report the machine observables and
// keep the simulation-derived fields identical to a plain Run of the same
// configuration.
func TestRunScale(t *testing.T) {
	cfg := quickConfig(6, omcast.ROST)
	sres, err := omcast.RunScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sres.Events == 0 || sres.WallNs <= 0 || sres.NsPerEvent <= 0 {
		t.Fatalf("scale observables missing: %+v", sres)
	}
	if sres.HeapBytes == 0 || sres.BytesPerMember <= 0 {
		t.Fatalf("memory observables missing: %+v", sres)
	}
	plain, err := omcast.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sres.AvgDisruptions != plain.AvgDisruptions || sres.AvgSize != plain.AvgSize {
		t.Fatalf("scale run diverged from plain run: %+v vs %+v", sres.TreeResult, plain)
	}
}

// TestRunScaleAllocLinear is the scale law behind the fig-scale family: a run
// at twice the audience may allocate about twice the bytes, not four times.
// Every join and every recovery episode works on a bounded membership sample,
// so nothing per event may cost O(M); a scratch buffer re-made at the exact
// membership size on each join of a growing tree did, and only a law in M
// catches that — every fixed-size allocation test read zero.
func TestRunScaleAllocLinear(t *testing.T) {
	if testing.Short() {
		t.Skip("two multi-thousand-member runs skipped in -short mode")
	}
	// The quick scale points: ROST, small underlay, 5 + 5 minutes.
	pts, err := bench.RunScale([]int{4000, 8000}, true, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(pts[1].AllocBytes) / float64(pts[0].AllocBytes); ratio > 2.6 {
		t.Fatalf("doubling the audience multiplies the bytes allocated by %.2f, want <= 2.6 (linear in M)", ratio)
	}
}
