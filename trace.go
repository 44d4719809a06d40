package omcast

import (
	"fmt"
	"io"
	"time"

	"omcast/internal/cer"
	"omcast/internal/churn"
	"omcast/internal/eventsim"
	"omcast/internal/metrics"
	"omcast/internal/overlay"
	"omcast/internal/stream"
	"omcast/internal/tracing"
	"omcast/internal/xrand"
)

// TraceSchemaVersion is the JSONL schema version stamped into every trace
// line as "v". Consumers should reject lines with a larger version.
const TraceSchemaVersion = tracing.SchemaVersion

// TraceEvent is one line of the JSONL stream a run can emit (see
// RunWithTrace and RunStreamingWithTrace): a span — a member's join or
// departure, a rejoin episode, a ROST switch decision, a CER repair episode
// and their stages — or a periodic metrics snapshot. tracing.Event documents
// the schema.
type TraceEvent = tracing.Event

// TraceOptions tunes the trace stream beyond its spans.
type TraceOptions struct {
	// SampleEvery interleaves "sample" events — full snapshots of the run's
	// metrics registry — into the trace at this virtual-time interval. Zero
	// disables sampling. When sampling is on and Config.Metrics is nil, a
	// registry is created internally.
	SampleEvery time.Duration
}

// newTrace builds the line writer and span tracer of a run writing to w,
// both nil for a nil w. Span IDs derive from (cfg.Seed, member, per-member
// sequence), so the stream stays byte-identical across reruns and worker
// counts. Sampling needs a registry to snapshot, so one is created if cfg
// has none.
func newTrace(w io.Writer, cfg *Config, opts TraceOptions) (*tracing.Writer, *tracing.Tracer) {
	tw := tracing.NewWriter(w)
	if tw == nil {
		return nil, nil
	}
	if opts.SampleEvery > 0 && cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	return tw, tracing.New(cfg.Seed, tw)
}

// RunWithTrace executes a tree-level run like Run while streaming its spans
// to w as JSON lines, tuned by opts. The stream is deterministic in
// cfg.Seed, making it suitable for golden-file comparisons and offline
// visualisation. A nil w is the untraced run.
func RunWithTrace(cfg Config, w io.Writer, opts TraceOptions) (TreeResult, error) {
	tw, spans := newTrace(w, &cfg, opts)
	s, err := newSession(cfg, churn.Hooks{}, spans)
	if err != nil {
		return TreeResult{}, err
	}
	attachSampler(s, tw, opts)
	if err := s.run(); err != nil {
		return TreeResult{}, err
	}
	if err := tw.Err(); err != nil {
		return TreeResult{}, err
	}
	return s.treeResult(), nil
}

// attachSampler writes "sample" lines to tw: a full registry snapshot at
// t=0 and then every opts.SampleEvery of virtual time. The sampler is an
// ordinary simulation event, so samples sit deterministically ordered among
// the spans they describe.
func attachSampler(s *session, tw *tracing.Writer, opts TraceOptions) {
	if tw == nil || opts.SampleEvery <= 0 {
		return
	}
	reg := s.cfg.Metrics
	var sample eventsim.Handler
	sample = func(sim *eventsim.Simulator, _ int64) {
		snap := reg.Snapshot(sim.Now().Seconds())
		tw.Emit(TraceEvent{T: snap.T, Event: "sample", Metrics: snap.Metrics})
		sim.ScheduleAfter(opts.SampleEvery, sample, 0)
	}
	s.sim.Schedule(0, sample, 0)
}

// RunStreamingWithTrace executes a packet-level run like RunStreaming while
// streaming its spans to w, including a "repair" span per recovery episode
// carrying its per-packet outcome. A nil w is the untraced run:
// RunStreaming itself.
func RunStreamingWithTrace(cfg Config, scfg StreamConfig, w io.Writer, opts TraceOptions) (StreamResult, error) {
	tw, spans := newTrace(w, &cfg, opts)
	var regs []*metrics.Registry
	if cfg.Metrics != nil {
		regs = []*metrics.Registry{cfg.Metrics}
	}
	res, err := runStreaming(cfg, []StreamConfig{scfg}, regs, tw, spans, opts)
	if err != nil {
		return StreamResult{}, err
	}
	return res[0], nil
}

// RunStreamingGroup plays every config of scfgs over one tree-level session
// of cfg and returns one result per config, in order: result i equals
// RunStreaming(cfg, scfgs[i]) field for field. The configs share the churned
// overlay and nothing else. A streaming model only observes the tree through
// churn's hooks, scheduling no event and moving no member, and each config's
// model draws its recovery groups and residual bandwidths from streams of its
// own, named as RunStreaming names them.
//
// The session records into cfg.Metrics. regs, if non-nil, holds one registry
// per config, and config i's packet-level instruments record into regs[i]:
// merging cfg.Metrics and then regs[i] into an empty registry gives the
// registry RunStreaming(cfg, scfgs[i]) would have filled.
func RunStreamingGroup(cfg Config, scfgs []StreamConfig, regs []*metrics.Registry) ([]StreamResult, error) {
	if regs != nil && len(regs) != len(scfgs) {
		return nil, fmt.Errorf("omcast: %d registries for %d stream configs", len(regs), len(scfgs))
	}
	return runStreaming(cfg, scfgs, regs, nil, nil, TraceOptions{})
}

// runStreaming is the packet-level core: one session of cfg, one stream model
// per config observing it, config i's model instrumented on regs[i] when regs
// is non-nil. tw and spans, nil when untraced, carry one config's trace.
func runStreaming(cfg Config, scfgs []StreamConfig, regs []*metrics.Registry, tw *tracing.Writer, spans *tracing.Tracer, opts TraceOptions) ([]StreamResult, error) {
	cfg = cfg.withDefaults()
	for _, scfg := range scfgs {
		switch scfg.Recovery {
		case 0, CER, SingleSource, CERRandomGroup:
		default:
			return nil, fmt.Errorf("omcast: unknown recovery scheme %d", int(scfg.Recovery))
		}
	}
	models := make([]*stream.Model, len(scfgs))
	hooks := churn.Hooks{
		OnJoin: func(sim *eventsim.Simulator, m *overlay.Member) {
			for _, model := range models {
				model.Register(m, sim.Now())
			}
		},
		OnFailure: func(sim *eventsim.Simulator, failed *overlay.Member) {
			for _, model := range models {
				model.OnFailure(failed, sim.Now())
			}
		},
		OnDepart: func(sim *eventsim.Simulator, id overlay.MemberID) {
			for _, model := range models {
				model.Depart(id, sim.Now())
			}
		},
	}
	s, err := newSession(cfg, hooks, spans)
	if err != nil {
		return nil, err
	}
	for i, scfg := range scfgs {
		selRng := xrand.NewNamed(cfg.Seed, "cer.select")
		var selector cer.Selector
		if scfg.Recovery == 0 || scfg.Recovery == CER { // CER is the default
			selector = &cer.MLCSelector{Tree: s.tree, Rng: selRng, Delay: s.topo.Delay}
		} else {
			selector = &cer.RandomSelector{Tree: s.tree, Rng: selRng, Delay: s.topo.Delay}
		}
		models[i] = stream.NewModel(s.tree, s.topo.Delay, selector, xrand.NewNamed(cfg.Seed, "stream.residual"), stream.Config{
			Buffer:      scfg.Buffer,
			GroupSize:   scfg.GroupSize,
			Striped:     scfg.Recovery != SingleSource,
			MeasureFrom: cfg.Warmup,
			Trace:       spans,
		})
		if regs != nil && regs[i] != nil {
			models[i].Instrument(regs[i])
		}
	}
	attachSampler(s, tw, opts)
	if err := s.run(); err != nil {
		return nil, err
	}
	out := make([]StreamResult, len(models))
	for i, model := range models {
		model.Finish(s.sim.Now())
		sr := model.Result()
		out[i] = StreamResult{
			TreeResult:       s.treeResult(),
			AvgStarvingRatio: sr.AvgStarvingRatio,
			StarvingRatios:   sr.Ratios,
			StreamMembers:    sr.Members,
			Episodes:         model.Episodes,
			RepairRequests:   model.RepairRequests,
			ELNMessages:      model.ELNMessages,
			PacketsRepaired:  model.PacketsRepaired,
			PacketsLost:      model.PacketsLost,
		}
	}
	if err := tw.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
