package main

import (
	"math"
	"time"

	"omcast"
)

// workloads returns the five workloads at full or smoke size. Names are
// fixed: later issues refer to them. Full sizes keep one repetition between
// one and four seconds on a 2-core machine, so a 15-second run takes the
// median of four to sixteen differently-seeded repetitions: a tree's shape
// moves a run's cost by a tenth from seed to seed, and the sandbox stalls for a
// second every few seconds, and only many short repetitions average both away
// (figures is the exception: its cost per repetition steadies faster with
// size than with count). The mix of layers each workload stresses is what the
// issue specified; the member counts are smaller.
func workloads(smoke bool) []*workload {
	figures := figureSpec{sizes: []int{1000, 2000}, size: 1000, window: 20 * time.Minute, workers: 2}
	scaleRost := simSpec{algorithm: omcast.ROST, members: 25000, warmup: 15 * time.Minute, measure: 15 * time.Minute}
	treeEvict := simSpec{algorithm: omcast.RelaxedBandwidthOrdered, members: 5000, warmup: 15 * time.Minute, measure: 15 * time.Minute}
	streamCER := simSpec{algorithm: omcast.MinimumDepth, members: 8000, warmup: 15 * time.Minute, measure: 15 * time.Minute, streaming: true, groupSize: 3}
	live := liveSpec{datagrams: 250_000, fanout: 4, view: 100}
	if smoke {
		figures = figureSpec{sizes: []int{150, 300}, size: 150, window: 10 * time.Minute, workers: 2, quick: true}
		for _, s := range []*simSpec{&scaleRost, &treeEvict, &streamCER} {
			s.members, s.warmup, s.measure, s.small = 500, 5*time.Minute, 10*time.Minute, true
		}
		scaleRost.members = 1000
		live.datagrams = 20_000
	}
	return []*workload{
		figureWorkload(figures, 3.7),
		simWorkload("scale-rost",
			"ROST at scale: overlay, construct, rost, churn and eventsim do all the work, stream, cer, wire and node none; where ns/event grows with M",
			scaleRost, 0.95),
		simWorkload("tree-evict",
			"relaxed bandwidth-ordered joins: the same construct, overlay and topology layers driven by centralised eviction scans instead of sampled joins",
			treeEvict, 0.95),
		simWorkload("stream-cer",
			"minimum-depth tree with CER groups of 3: stream interval accounting and cer MLC selection dominate, the tree layers do little",
			streamCER, 1.3),
		liveWorkload(live, 1.3),
	}
}

func findWorkload(name string, smoke bool) *workload {
	for _, w := range workloads(smoke) {
		if w.name == name {
			return w
		}
	}
	return nil
}

// simWorkload wraps one simulated session as a workload. The plain pass calls
// the public entry point; the traced pass runs the benchmark's own decorated
// assembly of the same session.
func simWorkload(name, why string, spec simSpec, nominal float64) *workload {
	w := &workload{name: name, why: why, opsUnit: "events", nominal: nominal}
	if spec.streaming {
		w.opsUnit = "episodes"
	}
	w.setup = func(seed int64) error {
		_, err := assemble(spec, seed, nil)
		return err
	}
	w.prepare = func(seed int64, tr *tracer) (func() (repOutput, error), error) {
		if tr == nil {
			return func() (repOutput, error) {
				out, err := runPublic(spec, seed)
				if err != nil {
					return repOutput{}, err
				}
				return spec.checked(out, nil), nil
			}, nil
		}
		return func() (repOutput, error) {
			s, err := assemble(spec, seed, tr)
			if err != nil {
				return repOutput{}, err
			}
			out, err := s.run()
			if err != nil {
				return repOutput{}, err
			}
			return spec.checked(out, s), nil
		}, nil
	}
	// churn.scale_ratio: the event loop's ns/event at this size over the same
	// session's at M = 1000 (ROADMAP item 2 wants it within 3). Loop time
	// only: at M = 1000 the underlay build would be half the run.
	w.once = func(seed int64, values map[string]float64) (map[string]float64, error) {
		small := spec
		small.members = 1000
		if spec.members <= small.members {
			small.members = spec.members / 2
		}
		var perEvent []float64
		for i := 0; i < 5; i++ {
			s, err := assemble(small, subSeed(seed, i), nil)
			if err != nil {
				return nil, err
			}
			start := time.Now()
			out, err := s.run()
			if err != nil {
				return nil, err
			}
			perEvent = append(perEvent, float64(time.Since(start).Nanoseconds())/float64(out.events))
		}
		loop := values["churn.prepopulate_s"] + values["churn.warmup_s"] + values["churn.measure_s"]
		base := median(perEvent)
		if base <= 0 || values["eventsim.events"] <= 0 {
			return nil, nil
		}
		return map[string]float64{"churn.scale_ratio": loop * 1e9 / values["eventsim.events"] / base}, nil
	}
	return w
}

// checked turns a session's outcome into a repetition output: the operation
// count, the sanity checks the issue lists, and -- when s is the decorated
// session that produced it -- the per-layer ledger.
func (spec simSpec) checked(out simOutcome, s *session) repOutput {
	r := repOutput{attempted: 1, digest: out.digest(), layer: map[string]float64{}}
	r.ops = int64(out.events)
	if spec.streaming {
		r.ops = int64(out.episodes)
	}
	// One run is one operation: however many checks it fails, it fails once.
	bad := func(format string, args ...any) {
		r.fail(format, args...)
		r.failed = 1
	}
	if off := math.Abs(out.tree.AvgSize-float64(spec.members)) / float64(spec.members); !(off <= 0.10) {
		bad("average size %.1f is %.1f%% off the target %d", out.tree.AvgSize, 100*off, spec.members)
	}
	for _, c := range []struct {
		name string
		v    float64
	}{
		{"disruptions", out.tree.AvgDisruptions},
		{"service delay", out.tree.AvgServiceDelayMS},
		{"stretch", out.tree.AvgStretch},
	} {
		if math.IsNaN(c.v) || math.IsInf(c.v, 0) || c.v <= 0 {
			bad("%s = %v, want a positive finite number", c.name, c.v)
		}
	}
	if r.ops <= 0 {
		bad("no events or episodes completed")
	}
	if spec.streaming {
		if !(out.starvingRatio >= 0 && out.starvingRatio < 1) {
			bad("starving ratio %v outside [0, 1)", out.starvingRatio)
		}
		if out.packetsRepaired <= 0 {
			bad("no packet was repaired")
		}
	}
	if s != nil {
		r.finish = func(r *repOutput) { s.ledger(out, r.layer) }
		return r
	}
	r.layer["sim.disruptions_per_member"] = out.tree.AvgDisruptions
	r.layer["sim.service_delay_ms"] = out.tree.AvgServiceDelayMS
	if spec.streaming {
		r.layer["sim.starving_ratio_pct"] = 100 * out.starvingRatio
	}
	if out.bytesPerMember > 0 {
		r.layer["sim.bytes_per_member"] = out.bytesPerMember
	}
	return r
}

// ledger fills the per-layer values of one decorated session from its spans
// and counters.
func (s *session) ledger(out simOutcome, layer map[string]float64) {
	st := s.tr.analyze()
	sec := func(d time.Duration) float64 { return d.Seconds() }
	loops := []spanKind{spanPrepopulate, spanWarmup, spanMeasure}

	layer["topology.build_s"] = sec(st[spanTopologyBuild].total)
	layer["topology.delay_calls"] = float64(s.delayCalls)

	layer["eventsim.events"] = float64(out.events)
	var loopSelf time.Duration
	for _, k := range loops {
		loopSelf += st[k].self
	}
	layer["eventsim.loop_self_s"] = sec(loopSelf)

	layer["churn.prepopulate_s"] = sec(st[spanPrepopulate].total)
	layer["churn.warmup_s"] = sec(st[spanWarmup].total)
	layer["churn.measure_s"] = sec(st[spanMeasure].total)
	if steady := s.eventsAt[2] - s.eventsAt[1]; steady > 0 {
		layer["churn.steady_ns_per_event"] = float64(st[spanMeasure].total.Nanoseconds()) / float64(steady)
	}
	layer["churn.joins"] = float64(s.joins)
	layer["churn.failures"] = float64(s.failures)
	layer["churn.rejoins"] = float64(s.rejoins)

	layer["construct.joins"] = float64(st[spanJoin].count)
	layer["construct.join_s"] = sec(st[spanJoin].total)
	layer["construct.prepopulate_join_s"] = sec(s.tr.childTotal(spanPrepopulate, spanJoin))
	layer["construct.join_us_p50"] = percentile(st[spanJoin].durations, 50)
	layer["construct.join_us_p99"] = percentile(st[spanJoin].durations, 99)

	layer["rost.start_s"] = sec(st[spanRostStart].total)
	layer["rost.switches"] = float64(out.tree.Switches)
	layer["rost.aborts"] = float64(out.tree.SwitchAborts)
	layer["rost.lock_backoffs"] = float64(out.tree.LockBackoffs)

	// Time in Model.OnFailure minus the selector's share of it.
	layer["stream.episodes"] = float64(out.episodes)
	layer["stream.episode_s"] = sec(st[spanEpisode].self)
	layer["stream.episode_us_p50"] = percentile(st[spanEpisode].durations, 50)
	layer["stream.episode_us_p99"] = percentile(st[spanEpisode].durations, 99)
	layer["stream.finish_s"] = sec(st[spanFinish].total)
	layer["stream.packets_repaired"] = float64(out.packetsRepaired)
	layer["stream.packets_lost"] = float64(out.packetsLost)

	layer["cer.selects"] = float64(s.selects)
	layer["cer.select_s"] = sec(st[spanSelect].total)
	layer["cer.select_us_p50"] = percentile(st[spanSelect].durations, 50)
}
