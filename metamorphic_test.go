package omcast_test

import (
	"slices"
	"testing"

	"omcast"
)

// TestROSTWithoutSwitchingIsMinDepth: with the switch interval past the
// horizon, ROST is its join rule, so it must reproduce the minimum-depth run
// bit for bit. The never-firing check timers add events, but (at, seq) order
// keeps every other event's relative order; a mismatch means ROST's
// non-switching path touches shared RNG or state.
func TestROSTWithoutSwitchingIsMinDepth(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		md, err := omcast.Run(quickConfig(seed, omcast.MinimumDepth))
		if err != nil {
			t.Fatal(err)
		}
		cfg := quickConfig(seed, omcast.ROST)
		cfg.SwitchInterval = 2 * (cfg.Warmup + cfg.Measure)
		ro, err := omcast.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if ro.Switches != 0 {
			t.Fatalf("seed %d: %d switches with the interval past the horizon", seed, ro.Switches)
		}
		if ro.AvgDisruptions != md.AvgDisruptions ||
			!slices.Equal(ro.DisruptionCounts, md.DisruptionCounts) ||
			ro.AvgServiceDelayMS != md.AvgServiceDelayMS ||
			ro.AvgStretch != md.AvgStretch ||
			ro.AvgSize != md.AvgSize ||
			ro.Departures != md.Departures {
			t.Fatalf("seed %d: ROST without switching diverged from minimum-depth:\nROST      %+v\nmin-depth %+v",
				seed, ro, md)
		}
	}
}
