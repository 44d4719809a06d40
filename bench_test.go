package omcast_test

// One testing.B benchmark per figure of the paper's evaluation plus the
// ablation benches DESIGN.md calls out. Benchmarks run the experiments at
// reduced (Quick) scale so `go test -bench=.` finishes in minutes; use
// `omcast sim -fig all` for the full-scale reproduction. Each benchmark reports
// the figure's headline number as a custom metric so regressions in the
// reproduced shape show up alongside timing regressions.

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"omcast"
	"omcast/internal/eventsim"
	"omcast/internal/experiments"
	"omcast/internal/metrics"
)

// benchTable runs one experiment per iteration and reports a headline metric
// extracted from the named cell.
func benchTable(b *testing.B, id string, metricName string, metric func(experiments.Table) float64) {
	b.Helper()
	var last float64
	for i := 0; i < b.N; i++ {
		runner := experiments.NewRunner(experiments.Options{Seed: int64(i + 1), Quick: true})
		table, err := runner.Run(id)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		last = metric(table)
	}
	b.ReportMetric(last, metricName)
}

// cell parses table.Rows[r][c], stripping units.
func cell(b *testing.B, t experiments.Table, r, c int) float64 {
	b.Helper()
	if r >= len(t.Rows) || c >= len(t.Rows[r]) {
		b.Fatalf("table %s has no cell (%d,%d)", t.ID, r, c)
	}
	s := t.Rows[r][c]
	for _, suffix := range []string{"%", "ms", "s", "x"} {
		s = strings.TrimSuffix(s, suffix)
	}
	if i := strings.IndexByte(s, '+'); i > 0 {
		s = strings.TrimSpace(s[:i]) // "1.23% +/- 0.4" -> "1.23"
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		b.Fatalf("unparseable cell %q in %s", t.Rows[r][c], t.ID)
	}
	return v
}

// lastRow returns the index of the last data row.
func lastRow(t experiments.Table) int { return len(t.Rows) - 1 }

// Figure 4: average disruptions per node. Headline: ROST's value at the
// largest size (last row, last column).
func BenchmarkFig4Disruptions(b *testing.B) {
	benchTable(b, "fig4", "rost_disruptions", func(t experiments.Table) float64 {
		return cell(b, t, lastRow(t), len(t.Header)-1)
	})
}

// Figure 5: disruption CDF. Headline: fraction of ROST nodes with <= 4
// disruptions (row index 2).
func BenchmarkFig5DisruptionCDF(b *testing.B) {
	benchTable(b, "fig5", "rost_cdf_at_4_pct", func(t experiments.Table) float64 {
		return cell(b, t, 2, len(t.Header)-1)
	})
}

// Figure 6: cumulative disruptions of a typical member. Headline: ROST's
// final cumulative count.
func BenchmarkFig6TypicalMember(b *testing.B) {
	benchTable(b, "fig6", "rost_cumulative", func(t experiments.Table) float64 {
		return cell(b, t, lastRow(t), len(t.Header)-1)
	})
}

// Figure 7: average service delay. Headline: ROST at the largest size.
func BenchmarkFig7ServiceDelay(b *testing.B) {
	benchTable(b, "fig7", "rost_delay_ms", func(t experiments.Table) float64 {
		return cell(b, t, lastRow(t), len(t.Header)-1)
	})
}

// Figure 8: average stretch. Headline: ROST at the largest size.
func BenchmarkFig8Stretch(b *testing.B) {
	benchTable(b, "fig8", "rost_stretch", func(t experiments.Table) float64 {
		return cell(b, t, lastRow(t), len(t.Header)-1)
	})
}

// Figure 9: typical member's delay over time. Headline: ROST's final delay.
func BenchmarkFig9TypicalDelay(b *testing.B) {
	benchTable(b, "fig9", "rost_final_delay_ms", func(t experiments.Table) float64 {
		return cell(b, t, lastRow(t), len(t.Header)-1)
	})
}

// Figure 10: protocol overhead. Headline: ROST reconnections per node at the
// largest size.
func BenchmarkFig10Overhead(b *testing.B) {
	benchTable(b, "fig10", "rost_reconnections", func(t experiments.Table) float64 {
		return cell(b, t, lastRow(t), len(t.Header)-1)
	})
}

// Figure 11: switching-interval sweep. Headline: disruptions at the smallest
// interval.
func BenchmarkFig11SwitchInterval(b *testing.B) {
	benchTable(b, "fig11", "disruptions_small_interval", func(t experiments.Table) float64 {
		return cell(b, t, 0, 1)
	})
}

// Figure 12: recovery group size sweep. Headline: starving ratio at K=4 and
// the largest size.
func BenchmarkFig12GroupSize(b *testing.B) {
	benchTable(b, "fig12", "starving_k4_pct", func(t experiments.Table) float64 {
		return cell(b, t, lastRow(t), len(t.Header)-1)
	})
}

// Figure 13: buffer sweep. Headline: starving ratio at K=1 with the largest
// buffer.
func BenchmarkFig13BufferSize(b *testing.B) {
	benchTable(b, "fig13", "starving_k1_bigbuffer_pct", func(t experiments.Table) float64 {
		return cell(b, t, lastRow(t), 1)
	})
}

// Figure 14: ROST+CER vs the baseline. Headline: improvement factor at K=3.
func BenchmarkFig14RostCer(b *testing.B) {
	benchTable(b, "fig14", "improvement_k3_x", func(t experiments.Table) float64 {
		return cell(b, t, lastRow(t), 3)
	})
}

// Ablation benches (DESIGN.md section 5).

// BenchmarkAblationRandomRecovery isolates the MLC group selection from the
// striping: the metric is random-group starving divided by MLC starving.
func BenchmarkAblationRandomRecovery(b *testing.B) {
	benchTable(b, "ablation-recovery", "random_over_mlc", func(t experiments.Table) float64 {
		mlc := cell(b, t, 0, 1)
		random := cell(b, t, 1, 1)
		if mlc == 0 {
			return 0
		}
		return random / mlc
	})
}

// BenchmarkAblationAncestorRejoin measures the disruption cost of forcing
// orphans through the full join procedure.
func BenchmarkAblationAncestorRejoin(b *testing.B) {
	benchTable(b, "ablation-rejoin", "fullrejoin_over_ancestor", func(t experiments.Table) float64 {
		anc := cell(b, t, 0, 1)
		full := cell(b, t, 1, 1)
		if anc == 0 {
			return 0
		}
		return full / anc
	})
}

// BenchmarkAblationContributorPriority measures the delay benefit of parking
// free-riders deep.
func BenchmarkAblationContributorPriority(b *testing.B) {
	benchTable(b, "ablation-priority", "delay_ratio", func(t experiments.Table) float64 {
		std := cell(b, t, 0, 2)
		cp := cell(b, t, 1, 2)
		if std == 0 {
			return 0
		}
		return cp / std
	})
}

// BenchmarkAblationNoBandwidthGuard measures the reconnection churn of
// removing ROST's bandwidth guard.
func BenchmarkAblationNoBandwidthGuard(b *testing.B) {
	benchTable(b, "ablation-guard", "reconn_ratio", func(t experiments.Table) float64 {
		with := cell(b, t, 0, 2)
		without := cell(b, t, 1, 2)
		if with == 0 {
			return 0
		}
		return without / with
	})
}

// BenchmarkAblationDistanceOracle compares the O(1) hierarchical delay
// oracle against running a tree-level experiment; the oracle is exercised on
// every join tie-break and metric sample, so this bench doubles as the
// substrate's hot-path benchmark.
func BenchmarkAblationDistanceOracle(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := omcast.Run(omcast.Config{
			Seed:       int64(i + 1),
			Algorithm:  omcast.MinimumDepth,
			TargetSize: 500,
			Topology:   omcast.SmallTopology(),
			Warmup:     30 * time.Minute,
			Measure:    30 * time.Minute,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunROSTSession is the end-to-end session benchmark: one full
// tree-level ROST run at reduced scale per iteration.
func BenchmarkRunROSTSession(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := omcast.Run(omcast.Config{
			Seed:       int64(i + 1),
			Algorithm:  omcast.ROST,
			TargetSize: 800,
			Topology:   omcast.SmallTopology(),
			Warmup:     45 * time.Minute,
			Measure:    30 * time.Minute,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.AvgDisruptions, "disruptions")
	}
}

// BenchmarkRunStreamingSession benchmarks the packet-level stack.
func BenchmarkRunStreamingSession(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := omcast.RunStreaming(omcast.Config{
			Seed:       int64(i + 1),
			Algorithm:  omcast.MinimumDepth,
			TargetSize: 800,
			Topology:   omcast.SmallTopology(),
			Warmup:     45 * time.Minute,
			Measure:    30 * time.Minute,
		}, omcast.StreamConfig{Recovery: omcast.CER, GroupSize: 3})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.AvgStarvingRatio*100, "starving_pct")
	}
}

// BenchmarkMetricsOverhead quantifies the cost of instrumentation, the
// acceptance gate for the metrics layer: the instrumented variants must stay
// within ~10% of the bare ones. kernel/* isolates the event loop's metric
// increments (a scripted chain of no-op events); session/* measures the
// realistic end-to-end cost of a fully instrumented tree-level run. Compare
// with `go test -bench MetricsOverhead -count 10 | benchstat` or eyeball the
// ns/op ratio.
func BenchmarkMetricsOverhead(b *testing.B) {
	kernel := func(b *testing.B, instrument bool) {
		const events = 200_000
		for i := 0; i < b.N; i++ {
			sim := eventsim.New()
			if instrument {
				sim.Instrument(metrics.NewRegistry())
			}
			remaining := events
			var tick eventsim.Handler
			tick = func(s *eventsim.Simulator, _ int64) {
				if remaining--; remaining > 0 {
					s.ScheduleAfter(time.Millisecond, tick, 0)
				}
			}
			sim.Schedule(0, tick, 0)
			if err := sim.Run(eventsim.MaxHorizon); err != nil {
				b.Fatal(err)
			}
		}
	}
	session := func(b *testing.B, instrument bool) {
		for i := 0; i < b.N; i++ {
			cfg := omcast.Config{
				Seed:       int64(i + 1),
				Algorithm:  omcast.ROST,
				TargetSize: 500,
				Topology:   omcast.SmallTopology(),
				Warmup:     30 * time.Minute,
				Measure:    30 * time.Minute,
			}
			if instrument {
				cfg.Metrics = metrics.NewRegistry()
			}
			if _, err := omcast.Run(cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("kernel/bare", func(b *testing.B) { kernel(b, false) })
	b.Run("kernel/instrumented", func(b *testing.B) { kernel(b, true) })
	b.Run("session/bare", func(b *testing.B) { session(b, false) })
	b.Run("session/instrumented", func(b *testing.B) { session(b, true) })
}
