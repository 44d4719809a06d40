package omcast

import (
	"encoding/json"
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
// line as "v" (see tracing.SchemaVersion for the envelope the span layer
// shares with it). Consumers should reject lines with a larger version.
const TraceSchemaVersion = tracing.SchemaVersion

// TraceEvent is one line of the JSONL event stream a run can emit (see
// RunWithTrace and RunStreamingWithTrace). Events describe overlay dynamics
// at the granularity a downstream analysis or visualisation needs:
// membership changes, failures, ROST switches, CER repair outcomes, and
// periodic metric snapshots.
//
// JSONL schema. Every line is one JSON object; "t" (virtual seconds) and
// "event" are always present. The remaining fields depend on the event:
//
//	join, rejoin — member, parent, depth, bandwidth (join only)
//	depart       — member
//	failure      — member, disrupted
//	switch       — member (promoted), demoted
//	repair       — member (the orphan), repaired, lost
//	sample       — metrics (a full registry snapshot; no member)
//
// Presence is exact: fields that carry a meaningful zero (parent 0 is the
// source, depth 0 is the source's layer, disrupted 0 is a leaf failure,
// repaired/lost 0 are real outcomes) are pointers serialised whenever the
// event defines them and omitted otherwise, so consumers can distinguish
// "zero" from "not applicable" without knowing the event vocabulary.
type TraceEvent struct {
	// V is the schema version (TraceSchemaVersion), stamped on every line.
	V int `json:"v"`
	// T is the virtual time in seconds.
	T float64 `json:"t"`
	// Event is one of "join", "rejoin", "depart", "failure", "switch",
	// "repair", "sample", "span".
	Event string `json:"event"`
	// Member is the subject member ID (absent on sample events).
	Member int64 `json:"member,omitempty"`
	// Parent is the member's parent after a join/rejoin (0 is the source).
	Parent *int64 `json:"parent,omitempty"`
	// Depth is the member's layer after a join/rejoin.
	Depth *int `json:"depth,omitempty"`
	// Bandwidth is the member's outbound bandwidth on join.
	Bandwidth float64 `json:"bandwidth,omitempty"`
	// Disrupted is the descendant count a failure disrupted (0 for leaves).
	Disrupted *int `json:"disrupted,omitempty"`
	// Demoted is the former parent in a switch event.
	Demoted int64 `json:"demoted,omitempty"`
	// Repaired and Lost are the orphan's per-packet repair outcome.
	Repaired *int `json:"repaired,omitempty"`
	Lost     *int `json:"lost,omitempty"`
	// Metrics is the registry snapshot carried by sample events.
	Metrics []metrics.Metric `json:"metrics,omitempty"`
	// Span is the completed causal span carried by "span" events (see
	// TraceOptions.Spans and internal/tracing).
	Span *tracing.Span `json:"span,omitempty"`
}

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

// intPtr and int64Ptr build the presence-carrying pointer fields.
func intPtr(v int) *int       { return &v }
func int64Ptr(v int64) *int64 { return &v }

// tracer serialises events to a writer; encoding errors surface once. A nil
// *tracer is the untraced run: every method is a no-op that builds nothing.
type tracer struct {
	enc *json.Encoder
	err error
}

func (tr *tracer) emit(ev TraceEvent) {
	if tr == nil || tr.err != nil {
		return
	}
	ev.V = TraceSchemaVersion
	tr.err = tr.enc.Encode(ev)
}

// writeErr reports the first encoding error, wrapped for the caller.
func (tr *tracer) writeErr() error {
	if tr == nil || tr.err == nil {
		return nil
	}
	return fmt.Errorf("omcast: writing trace: %w", tr.err)
}

// spanTrace manages the causal span layer of a traced run: a deterministic
// tracer whose completed spans re-enter the JSONL stream as "span" events,
// plus the rejoin episodes still open (keyed by orphan; opened at parent
// failure, closed at reattachment or departure). Episodes still open when
// the run ends are simply never emitted. The zero spanTrace is the layer
// switched off: t is the disabled tracer and no episode is ever open.
type spanTrace struct {
	t    *tracing.Tracer
	open map[overlay.MemberID]*tracing.SpanBuilder
}

// newTrace builds the event tracer and span layer of a run writing to w: a
// nil tracer for a nil writer, a zero span layer without opts.Spans.
// Sampling needs a registry to snapshot, so one is created if cfg has none.
func newTrace(w io.Writer, cfg *Config, opts TraceOptions) (*tracer, *spanTrace) {
	st := &spanTrace{}
	if w == nil {
		return nil, st
	}
	tr := &tracer{enc: json.NewEncoder(w)}
	if opts.SampleEvery > 0 && cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	if opts.Spans {
		st.open = make(map[overlay.MemberID]*tracing.SpanBuilder)
		st.t = tracing.New(cfg.Seed, tracing.RecorderFunc(func(sp tracing.Span) {
			s := sp
			tr.emit(TraceEvent{T: sp.End, Event: "span", Member: sp.Member, Span: &s})
		}))
	}
	return tr, st
}

// onFailure opens one rejoin episode per orphaned child of the failed
// member. Call before the tree removes it.
func (st *spanTrace) onFailure(now time.Duration, failed *overlay.Member) {
	if st.t == nil {
		return
	}
	for _, c := range failed.Children() {
		if _, ok := st.open[c.ID]; ok {
			continue // already orphaned by an overlapping failure
		}
		st.open[c.ID] = st.t.Start(tracing.KindRejoin, int64(c.ID), now).
			AttrInt("failed_parent", int64(failed.ID))
	}
}

// onBlocked records one saturated rejoin attempt as an instantaneous
// child of the orphan's episode.
func (st *spanTrace) onBlocked(now time.Duration, id overlay.MemberID) {
	if sp, ok := st.open[id]; ok {
		sp.Child(tracing.KindAttempt, int64(id), now).End(now, "saturated")
	}
}

// onRejoin closes the orphan's episode as reattached.
func (st *spanTrace) onRejoin(now time.Duration, m *overlay.Member) {
	sp, ok := st.open[m.ID]
	if !ok {
		return
	}
	delete(st.open, m.ID)
	sp.AttrInt("depth", int64(m.Depth()))
	if p := m.Parent(); p != nil {
		sp.AttrInt("parent", int64(p.ID))
	}
	sp.End(now, "reattached")
}

// onDepart closes the orphan's episode when it leaves mid-rejoin.
func (st *spanTrace) onDepart(now time.Duration, id overlay.MemberID) {
	if sp, ok := st.open[id]; ok {
		delete(st.open, id)
		sp.End(now, "departed")
	}
}

// RunWithTrace executes a tree-level run like Run while streaming overlay
// events to w as JSON lines. The stream is deterministic in cfg.Seed, making
// it suitable for golden-file comparisons and offline visualisation.
func RunWithTrace(cfg Config, w io.Writer) (TreeResult, error) {
	return RunWithTraceOptions(cfg, w, TraceOptions{})
}

// RunWithTraceOptions is RunWithTrace with trace tuning: opts.SampleEvery
// interleaves periodic metric snapshots with the event stream.
func RunWithTraceOptions(cfg Config, w io.Writer, opts TraceOptions) (TreeResult, error) {
	tr, st := newTrace(w, &cfg, opts)
	var s *session
	var err error
	s, err = newSession(cfg, traceHooks(tr, &s, st))
	if err != nil {
		return TreeResult{}, err
	}
	attachTrace(s, tr, st, opts)
	if err := s.run(); err != nil {
		return TreeResult{}, err
	}
	if err := tr.writeErr(); err != nil {
		return TreeResult{}, err
	}
	return s.treeResult(), nil
}

// traceHooks builds the churn hooks that emit join/rejoin/failure/depart
// events and drive the rejoin-episode spans; with a nil tr and a zero st
// (the untraced run) they are the same hooks with nothing behind them. sp
// dereferences to the session once newSession returns (the failure hook
// needs the tree for the disrupted-descendant count).
func traceHooks(tr *tracer, sp **session, st *spanTrace) churn.Hooks {
	return churn.Hooks{
		OnJoin: func(sim *eventsim.Simulator, m *overlay.Member) {
			tr.join("join", sim.Now(), m)
		},
		OnRejoin: func(sim *eventsim.Simulator, m *overlay.Member) {
			tr.join("rejoin", sim.Now(), m)
			st.onRejoin(sim.Now(), m)
		},
		OnFailure: func(sim *eventsim.Simulator, failed *overlay.Member) {
			tr.failure(sim.Now(), (*sp).tree, failed)
			st.onFailure(sim.Now(), failed)
		},
		OnDepart: func(sim *eventsim.Simulator, id overlay.MemberID) {
			tr.emit(TraceEvent{T: sim.Now().Seconds(), Event: "depart", Member: int64(id)})
			st.onDepart(sim.Now(), id)
		},
		OnRejoinBlocked: func(sim *eventsim.Simulator, id overlay.MemberID) {
			st.onBlocked(sim.Now(), id)
		},
	}
}

// attachTrace wires what a trace takes from the built session rather than
// the churn hooks: "switch" events and switch-decision spans from the ROST
// protocol, when the session runs one, and "sample" events — a full registry
// snapshot at t=0 and then every opts.SampleEvery of virtual time. The
// sampler is an ordinary simulation event, so samples sit deterministically
// ordered among the protocol events they describe.
func attachTrace(s *session, tr *tracer, st *spanTrace, opts TraceOptions) {
	if tr == nil {
		return
	}
	if s.protocol != nil {
		s.protocol.SetOnSwitch(func(now time.Duration, promoted, demoted overlay.MemberID) {
			tr.emit(TraceEvent{
				T:       now.Seconds(),
				Event:   "switch",
				Member:  int64(promoted),
				Demoted: int64(demoted),
			})
		})
		s.protocol.SetTrace(st.t)
	}
	if opts.SampleEvery > 0 {
		reg := s.cfg.Metrics
		var sample eventsim.Handler
		sample = func(sim *eventsim.Simulator) {
			snap := reg.Snapshot(sim.Now().Seconds())
			tr.emit(TraceEvent{T: snap.T, Event: "sample", Metrics: snap.Metrics})
			sim.ScheduleAfter(opts.SampleEvery, sample)
		}
		s.sim.Schedule(0, sample)
	}
}

// join emits a "join" or "rejoin" event for m.
func (tr *tracer) join(kind string, now time.Duration, m *overlay.Member) {
	if tr == nil {
		return
	}
	ev := TraceEvent{
		T:         now.Seconds(),
		Event:     kind,
		Member:    int64(m.ID),
		Depth:     intPtr(m.Depth()),
		Bandwidth: m.Bandwidth,
	}
	if p := m.Parent(); p != nil {
		ev.Parent = int64Ptr(int64(p.ID))
	}
	tr.emit(ev)
}

// failure emits a "failure" event with the descendant count it disrupts.
func (tr *tracer) failure(now time.Duration, tree *overlay.Tree, failed *overlay.Member) {
	if tr == nil {
		return
	}
	disrupted := 0
	if failed.Attached() {
		disrupted = tree.SubtreeSize(failed) - 1
	}
	tr.emit(TraceEvent{
		T:         now.Seconds(),
		Event:     "failure",
		Member:    int64(failed.ID),
		Disrupted: intPtr(disrupted),
	})
}

// repair emits a "repair" event: one orphan's per-packet episode outcome.
func (tr *tracer) repair(orphan *overlay.Member, failedAt time.Duration, repaired, lost int) {
	if tr == nil {
		return
	}
	tr.emit(TraceEvent{
		T:        failedAt.Seconds(),
		Event:    "repair",
		Member:   int64(orphan.ID),
		Repaired: intPtr(repaired),
		Lost:     intPtr(lost),
	})
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
	tr, st := newTrace(w, &cfg, opts)
	var model *stream.Model
	var s *session
	// The model wraps the shared hooks; a failure line must precede the
	// repair lines its episodes emit.
	hooks := traceHooks(tr, &s, st)
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
	var err error
	s, err = newSession(cfg, hooks)
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
		Rate:        scfg.Rate,
		Buffer:      scfg.Buffer,
		GroupSize:   scfg.GroupSize,
		Striped:     scfg.Recovery != SingleSource,
		ResidualMax: scfg.ResidualMax,
		MeasureFrom: cfg.Warmup,
		OnEpisode:   tr.repair,
		Trace:       st.t,
	}
	model = stream.NewModel(s.tree, s.topo.Delay, selector, xrand.NewNamed(cfg.Seed, "stream.residual"), streamCfg)
	if cfg.Metrics != nil {
		model.Instrument(cfg.Metrics)
	}
	attachTrace(s, tr, st, opts)
	if err := s.run(); err != nil {
		return StreamResult{}, err
	}
	model.Finish(s.sim.Now())
	if err := tr.writeErr(); err != nil {
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
