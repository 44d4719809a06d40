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

// TraceEvent is one line of the JSONL event stream a run can emit (see
// RunWithTrace and RunStreamingWithTrace): membership changes, failures,
// ROST switches, CER repair outcomes, periodic metric snapshots and causal
// spans. tracing.Event documents the schema.
type TraceEvent = tracing.Event

// TraceOptions tunes the trace stream beyond the default event vocabulary.
type TraceOptions struct {
	// SampleEvery interleaves "sample" events — full snapshots of the run's
	// metrics registry — into the trace at this virtual-time interval. Zero
	// disables sampling. When sampling is on and Config.Metrics is nil, a
	// registry is created internally.
	SampleEvery time.Duration
	// Spans interleaves "span" events: causal episode records (rejoin
	// episodes with per-attempt children, CER repair episodes with
	// detect/fetch/stall stages, ROST switch decisions). Span IDs derive
	// from (Config.Seed, member, per-member sequence), so the stream stays
	// byte-identical across reruns and worker counts.
	Spans bool
}

// newTrace builds the line writer and span tracer of a run writing to w: a
// nil writer for a nil w, a nil tracer without opts.Spans. Sampling needs a
// registry to snapshot, so one is created if cfg has none.
func newTrace(w io.Writer, cfg *Config, opts TraceOptions) (*tracing.Writer, *tracing.Tracer) {
	tw := tracing.NewWriter(w)
	if tw == nil {
		return nil, nil
	}
	if opts.SampleEvery > 0 && cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	if !opts.Spans {
		return tw, nil
	}
	return tw, tracing.New(cfg.Seed, tw)
}

// RunWithTrace executes a tree-level run like Run while streaming overlay
// events to w as JSON lines, tuned by opts. The stream is deterministic in
// cfg.Seed, making it suitable for golden-file comparisons and offline
// visualisation. A nil w is the untraced run.
func RunWithTrace(cfg Config, w io.Writer, opts TraceOptions) (TreeResult, error) {
	tw, spans := newTrace(w, &cfg, opts)
	var s *session
	s, err := newSession(cfg, traceHooks(tw, &s), spans)
	if err != nil {
		return TreeResult{}, err
	}
	attachTrace(s, tw, opts)
	if err := s.run(); err != nil {
		return TreeResult{}, err
	}
	if err := tw.Err(); err != nil {
		return TreeResult{}, err
	}
	return s.treeResult(), nil
}

// traceHooks builds the churn hooks that emit join/rejoin/failure/depart
// lines; with a nil tw (the untraced run) they are the same hooks with
// nothing behind them. sp dereferences to the session once newSession
// returns (the failure hook needs the tree for the disrupted-descendant
// count).
func traceHooks(tw *tracing.Writer, sp **session) churn.Hooks {
	return churn.Hooks{
		OnJoin: func(sim *eventsim.Simulator, m *overlay.Member) {
			emitJoin(tw, "join", sim.Now(), m)
		},
		OnRejoin: func(sim *eventsim.Simulator, m *overlay.Member) {
			emitJoin(tw, "rejoin", sim.Now(), m)
		},
		OnFailure: func(sim *eventsim.Simulator, failed *overlay.Member) {
			if tw == nil {
				return
			}
			disrupted := 0
			if failed.Attached() {
				disrupted = (*sp).tree.SubtreeSize(failed) - 1
			}
			tw.Emit(TraceEvent{T: sim.Now().Seconds(), Event: "failure", Member: int64(failed.ID), Disrupted: &disrupted})
		},
		OnDepart: func(sim *eventsim.Simulator, id overlay.MemberID) {
			tw.Emit(TraceEvent{T: sim.Now().Seconds(), Event: "depart", Member: int64(id)})
		},
	}
}

// emitJoin writes a "join" or "rejoin" line for m.
func emitJoin(tw *tracing.Writer, kind string, now time.Duration, m *overlay.Member) {
	if tw == nil {
		return
	}
	depth := m.Depth()
	ev := TraceEvent{T: now.Seconds(), Event: kind, Member: int64(m.ID), Depth: &depth, Bandwidth: m.Bandwidth}
	if p := m.Parent(); p != nil {
		parent := int64(p.ID)
		ev.Parent = &parent
	}
	tw.Emit(ev)
}

// attachTrace wires what a trace takes from the built session rather than
// the churn hooks: "switch" lines from the ROST protocol, when the session
// runs one, and "sample" lines — a full registry snapshot at t=0 and then
// every opts.SampleEvery of virtual time. The sampler is an ordinary
// simulation event, so samples sit deterministically ordered among the
// protocol events they describe.
func attachTrace(s *session, tw *tracing.Writer, opts TraceOptions) {
	if tw == nil {
		return
	}
	if s.protocol != nil {
		s.protocol.SetOnSwitch(func(now time.Duration, promoted, demoted overlay.MemberID) {
			tw.Emit(TraceEvent{T: now.Seconds(), Event: "switch", Member: int64(promoted), Demoted: int64(demoted)})
		})
	}
	if opts.SampleEvery > 0 {
		reg := s.cfg.Metrics
		var sample eventsim.Handler
		sample = func(sim *eventsim.Simulator) {
			snap := reg.Snapshot(sim.Now().Seconds())
			tw.Emit(TraceEvent{T: snap.T, Event: "sample", Metrics: snap.Metrics})
			sim.ScheduleAfter(opts.SampleEvery, sample)
		}
		s.sim.Schedule(0, sample)
	}
}

// RunStreamingWithTrace executes a packet-level run like RunStreaming while
// streaming overlay events to w, including "repair" events carrying each
// recovery episode's per-packet outcome. A nil w is the untraced run:
// RunStreaming itself.
func RunStreamingWithTrace(cfg Config, scfg StreamConfig, w io.Writer, opts TraceOptions) (StreamResult, error) {
	if scfg.Recovery == 0 {
		scfg.Recovery = CER
	}
	cfg = cfg.withDefaults()
	tw, spans := newTrace(w, &cfg, opts)
	var model *stream.Model
	var s *session
	// The model wraps the shared hooks; a failure line must precede the
	// repair lines its episodes emit.
	hooks := traceHooks(tw, &s)
	join, failure, depart := hooks.OnJoin, hooks.OnFailure, hooks.OnDepart
	hooks.OnJoin = func(sim *eventsim.Simulator, m *overlay.Member) {
		model.Register(m, sim.Now())
		join(sim, m)
	}
	hooks.OnFailure = func(sim *eventsim.Simulator, failed *overlay.Member) {
		failure(sim, failed)
		model.OnFailure(failed, sim.Now())
	}
	hooks.OnDepart = func(sim *eventsim.Simulator, id overlay.MemberID) {
		model.Depart(id, sim.Now())
		depart(sim, id)
	}
	s, err := newSession(cfg, hooks, spans)
	if err != nil {
		return StreamResult{}, err
	}
	selRng := xrand.NewNamed(cfg.Seed, "cer.select")
	var selector cer.Selector
	switch scfg.Recovery {
	case CER:
		selector = &cer.MLCSelector{Tree: s.tree, Rng: selRng, Delay: s.topo.Delay}
	case SingleSource, CERRandomGroup:
		selector = &cer.RandomSelector{Tree: s.tree, Rng: selRng, Delay: s.topo.Delay}
	default:
		return StreamResult{}, fmt.Errorf("omcast: unknown recovery scheme %d", int(scfg.Recovery))
	}
	streamCfg := stream.Config{
		Buffer:      scfg.Buffer,
		GroupSize:   scfg.GroupSize,
		Striped:     scfg.Recovery != SingleSource,
		MeasureFrom: cfg.Warmup,
		Trace:       spans,
	}
	if tw != nil {
		streamCfg.OnEpisode = func(orphan *overlay.Member, failedAt time.Duration, repaired, lost int) {
			tw.Emit(TraceEvent{T: failedAt.Seconds(), Event: "repair", Member: int64(orphan.ID), Repaired: &repaired, Lost: &lost})
		}
	}
	model = stream.NewModel(s.tree, s.topo.Delay, selector, xrand.NewNamed(cfg.Seed, "stream.residual"), streamCfg)
	if cfg.Metrics != nil {
		model.Instrument(cfg.Metrics)
	}
	attachTrace(s, tw, opts)
	if err := s.run(); err != nil {
		return StreamResult{}, err
	}
	model.Finish(s.sim.Now())
	if err := tw.Err(); err != nil {
		return StreamResult{}, err
	}
	sr := model.Result()
	return StreamResult{
		TreeResult:       s.treeResult(),
		AvgStarvingRatio: sr.AvgStarvingRatio,
		StarvingRatios:   sr.Ratios,
		StreamMembers:    sr.Members,
		Episodes:         model.Episodes,
		RepairRequests:   model.RepairRequests,
		ELNMessages:      model.ELNMessages,
		PacketsRepaired:  model.PacketsRepaired,
		PacketsLost:      model.PacketsLost,
	}, nil
}
