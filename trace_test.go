package omcast_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"
	"time"

	"omcast"
	"omcast/internal/metrics"
	"omcast/internal/tracing"
	"omcast/internal/xrand"
)

func TestRunWithTrace(t *testing.T) {
	var buf bytes.Buffer
	res, err := omcast.RunWithTrace(quickConfig(40, omcast.ROST), &buf, omcast.TraceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Departures == 0 {
		t.Fatal("traced run measured nothing")
	}
	kinds := map[string]int{}
	sc := bufio.NewScanner(&buf)
	prevT := -1.0
	for sc.Scan() {
		var ev omcast.TraceEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad trace line %q: %v", sc.Text(), err)
		}
		// A tree-level run ends every span at the current simulation time, so
		// its trace is monotone; only packet-level repair spans are written
		// when planned, ahead of their end.
		if ev.T < prevT {
			t.Fatalf("trace went backwards in time: %f after %f", ev.T, prevT)
		}
		prevT = ev.T
		if ev.Event != "span" || ev.Span == nil || ev.Member == 0 || ev.Member != ev.Span.Member || ev.T != ev.Span.End {
			t.Fatalf("untraced-options run wrote a line that is not a member's span: %s", sc.Text())
		}
		kinds[ev.Span.Kind]++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{tracing.KindJoin, tracing.KindDepart, tracing.KindSwitch, tracing.KindRejoin} {
		if kinds[want] == 0 {
			t.Fatalf("trace has no %q spans (kinds: %v)", want, kinds)
		}
	}
	// Joins and departs roughly balance over a steady-state run (the
	// population present at the end never departs).
	if kinds[tracing.KindDepart] > kinds[tracing.KindJoin] {
		t.Fatalf("more departs (%d) than joins (%d)", kinds[tracing.KindDepart], kinds[tracing.KindJoin])
	}
}

func TestRunWithTraceDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if _, err := omcast.RunWithTrace(quickConfig(41, omcast.ROST), &a, omcast.TraceOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := omcast.RunWithTrace(quickConfig(41, omcast.ROST), &b, omcast.TraceOptions{}); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("same seed produced different traces")
	}
}

func TestRunWithTraceNilWriter(t *testing.T) {
	res, err := omcast.RunWithTrace(quickConfig(42, omcast.MinimumDepth), nil, omcast.TraceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Departures == 0 {
		t.Fatal("nil-writer run measured nothing")
	}
}

// failingWriter errors after some bytes to exercise error propagation.
type failingWriter struct{ left int }

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.left -= len(p); w.left <= 0 {
		return 0, errWriter
	}
	return len(p), nil
}

var errWriter = &writeError{}

type writeError struct{}

func (*writeError) Error() string { return "synthetic write failure" }

func TestRunWithTraceWriteError(t *testing.T) {
	_, err := omcast.RunWithTrace(quickConfig(43, omcast.MinimumDepth), &failingWriter{left: 1024}, omcast.TraceOptions{})
	if err == nil || !strings.Contains(err.Error(), "trace") {
		t.Fatalf("write failure not surfaced: %v", err)
	}
}

// TestRunStreamingWithTraceWriteError pins the streaming path's encoding
// error propagation: a writer that fails mid-run must surface from
// RunStreamingWithTrace just as it does from RunWithTrace.
func TestRunStreamingWithTraceWriteError(t *testing.T) {
	cfg := quickConfig(46, omcast.MinimumDepth)
	_, err := omcast.RunStreamingWithTrace(cfg, omcast.StreamConfig{GroupSize: 3},
		&failingWriter{left: 1024}, omcast.TraceOptions{})
	if err == nil || !strings.Contains(err.Error(), "trace") {
		t.Fatalf("streaming write failure not surfaced: %v", err)
	}
}

func TestRunWithTraceSampled(t *testing.T) {
	var buf bytes.Buffer
	cfg := quickConfig(44, omcast.ROST)
	_, err := omcast.RunWithTrace(cfg, &buf, omcast.TraceOptions{SampleEvery: 5 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	samples := 0
	prevT := -1.0
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev omcast.TraceEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad trace line %q: %v", sc.Text(), err)
		}
		if ev.Event != "sample" {
			continue
		}
		samples++
		if ev.Member != 0 {
			t.Fatalf("sample event carries a member: %+v", ev)
		}
		if len(ev.Metrics) == 0 {
			t.Fatalf("sample at t=%f has no metrics", ev.T)
		}
		if ev.T <= prevT {
			t.Fatalf("samples not strictly ordered: %f after %f", ev.T, prevT)
		}
		prevT = ev.T
		found := false
		for _, m := range ev.Metrics {
			if m.Name == "omcast_sim_events_fired_total" {
				found = true
				if samples > 1 && m.Value == 0 {
					t.Fatal("kernel counters stayed zero mid-run")
				}
			}
		}
		if !found {
			t.Fatalf("sample lacks kernel metrics (got %d series)", len(ev.Metrics))
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	// quickConfig runs 900s warmup + 1200s measure = 2100s = 7 five-minute
	// intervals, plus the t=0 snapshot.
	if samples < 7 {
		t.Fatalf("got %d sample events, want >= 7", samples)
	}
}

func TestRunStreamingWithTraceRepairs(t *testing.T) {
	var buf bytes.Buffer
	cfg := quickConfig(45, omcast.ROST)
	res, err := omcast.RunStreamingWithTrace(cfg, omcast.StreamConfig{GroupSize: 3}, &buf, omcast.TraceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Episodes == 0 {
		t.Fatal("streaming run had no recovery episodes")
	}
	spans, err := tracing.ReadSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	repairs := 0
	for _, sp := range spans {
		if sp.Kind != tracing.KindRepair {
			continue
		}
		repairs++
		if sp.Member == 0 {
			t.Fatalf("repair without orphan: %+v", sp)
		}
		for _, k := range []string{"repaired", "lost"} {
			if v, ok := spanAttr(sp, k); !ok || v < 0 {
				t.Fatalf("repair span's %s outcome is %d (present %v): %+v", k, v, ok, sp)
			}
		}
	}
	if repairs == 0 {
		t.Fatal("trace has no repair spans despite episodes > 0")
	}
}

// spanAttr returns sp's integer attribute k and whether it is present.
func spanAttr(sp tracing.Span, k string) (int64, bool) {
	for _, a := range sp.Attrs {
		if a.K == k {
			v, err := strconv.ParseInt(a.V, 10, 64)
			return v, err == nil
		}
	}
	return 0, false
}

// TestTraceEventSchemaGolden pins the exact JSON field names of both event
// kinds (satellite of the v1 schema): a renamed or re-typed field breaks
// downstream consumers silently, so it must break this test loudly instead.
func TestTraceEventSchemaGolden(t *testing.T) {
	golden := []struct {
		kind string
		ev   omcast.TraceEvent
		want string
	}{
		{"sample", omcast.TraceEvent{V: 1, T: 7, Event: "sample",
			Metrics: []metrics.Metric{{Name: "omcast_x_total", Kind: metrics.KindCounter, Value: 3}}},
			`{"v":1,"t":7,"event":"sample","metrics":[{"name":"omcast_x_total","kind":"counter","value":3}]}`},
		{"span", omcast.TraceEvent{V: 1, T: 8, Event: "span", Member: 9,
			Span: &tracing.Span{ID: "00000000deadbeef", Parent: "00000000cafef00d", Kind: "rejoin",
				Member: 9, Start: 6, End: 8, Outcome: "reattached",
				Attrs: []tracing.Attr{{K: "depth", V: "2"}}}},
			`{"v":1,"t":8,"event":"span","member":9,"span":{"id":"00000000deadbeef","parent":"00000000cafef00d","kind":"rejoin","member":9,"start":6,"end":8,"outcome":"reattached","attrs":[{"k":"depth","v":"2"}]}}`},
	}
	for _, g := range golden {
		data, err := json.Marshal(g.ev)
		if err != nil {
			t.Fatalf("%s: %v", g.kind, err)
		}
		if string(data) != g.want {
			t.Errorf("%s schema drifted:\n got  %s\n want %s", g.kind, data, g.want)
		}
	}
}

// TestRunStreamingWithTraceSpans exercises the full span vocabulary end to
// end: rejoin episodes with attempts, repair episodes with
// detect/fetch/stall stages, and closes the loop through the analyzer.
func TestRunStreamingWithTraceSpans(t *testing.T) {
	var buf bytes.Buffer
	cfg := quickConfig(47, omcast.ROST)
	_, err := omcast.RunStreamingWithTrace(cfg, omcast.StreamConfig{GroupSize: 3}, &buf, omcast.TraceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := tracing.Parse(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed.Spans) == 0 {
		t.Fatal("traced run emitted no spans")
	}
	kinds := map[string]int{}
	ids := map[string]bool{}
	for _, sp := range parsed.Spans {
		kinds[sp.Kind]++
		if ids[sp.ID] {
			t.Fatalf("duplicate span ID %s", sp.ID)
		}
		ids[sp.ID] = true
		if sp.End < sp.Start {
			t.Fatalf("span ends before it starts: %+v", sp)
		}
	}
	for _, want := range []string{tracing.KindRejoin, tracing.KindRepair, tracing.KindDetect, tracing.KindFetch} {
		if kinds[want] == 0 {
			t.Fatalf("no %q spans (kinds: %v)", want, kinds)
		}
	}
	a := tracing.Analyze(parsed)
	var sawRejoin, sawRepair bool
	for _, ks := range a.Kinds {
		switch ks.Kind {
		case tracing.KindRejoin:
			// Tree-level rejoin is synchronous unless the overlay is
			// saturated, so durations may legitimately be zero here (the
			// live node's rejoins carry the real latencies).
			sawRejoin = true
			if ks.Outcomes["reattached"] == 0 {
				t.Fatalf("no reattached rejoin episodes: %+v", ks.Outcomes)
			}
		case tracing.KindRepair:
			sawRepair = true
			if len(ks.Stages) == 0 {
				t.Fatal("repair episodes lost their stages")
			}
			if tracing.Percentile(ks.Durations, 0.5) <= 0 {
				t.Fatal("repair episodes have zero p50 duration")
			}
		}
	}
	if !sawRejoin || !sawRepair {
		t.Fatalf("analysis lacks episode kinds: %+v", a.Kinds)
	}
}

// TestTraceSaturatedAttemptSpans runs a bandwidth-starved overlay (root
// out-degree 20, member bandwidths mostly below one stream) so orphans find
// the tree saturated and retry: every blocked retry must surface as an
// instantaneous "saturated" attempt span under the orphan's open rejoin
// episode.
func TestTraceSaturatedAttemptSpans(t *testing.T) {
	cfg := omcast.Config{
		Seed:          1,
		TargetSize:    300,
		Topology:      omcast.SmallTopology(),
		Algorithm:     omcast.MinimumDepth,
		Warmup:        10 * time.Minute,
		Measure:       20 * time.Minute,
		RootBandwidth: 20,
		Bandwidth:     xrand.BoundedPareto{Shape: 1.2, Lo: 0.5, Hi: 2.2},
	}
	var spans bytes.Buffer
	if _, err := omcast.RunWithTrace(cfg, &spans, omcast.TraceOptions{}); err != nil {
		t.Fatal(err)
	}
	parsed, err := tracing.Parse(bytes.NewReader(spans.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]tracing.Span{}
	for _, sp := range parsed.Spans {
		byID[sp.ID] = sp
	}
	saturated, resolved := 0, 0
	for _, sp := range parsed.Spans {
		if sp.Kind != tracing.KindAttempt || sp.Outcome != "saturated" {
			continue
		}
		saturated++
		if sp.Parent == "" {
			t.Fatalf("saturated attempt outside any episode: %+v", sp)
		}
		// Episodes still open when the run ends are never emitted, so a
		// parent may be absent; one that was emitted must be the orphan's
		// own rejoin episode, open at the moment of the attempt.
		ep, ok := byID[sp.Parent]
		if !ok {
			continue
		}
		resolved++
		if ep.Kind != tracing.KindRejoin || ep.Member != sp.Member || sp.Start < ep.Start || sp.End > ep.End {
			t.Fatalf("saturated attempt %+v is not inside its orphan's rejoin episode %+v", sp, ep)
		}
	}
	if saturated == 0 || resolved == 0 {
		t.Fatalf("saturated attempt spans = %d (%d under an emitted episode), want >= 1 of each", saturated, resolved)
	}
}

// TestSpansCarryEveryCount pins that the spans alone account for what the
// run counts: over packet-level runs of both a switching and a
// non-switching algorithm, each span kind's tally equals the metric or
// result field that counts the same events.
func TestSpansCarryEveryCount(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		for _, alg := range []omcast.Algorithm{omcast.ROST, omcast.MinimumDepth} {
			reg := metrics.NewRegistry()
			cfg := omcast.Config{
				Seed:       seed,
				Algorithm:  alg,
				TargetSize: 200,
				Topology:   omcast.SmallTopology(),
				Warmup:     5 * time.Minute,
				Measure:    10 * time.Minute,
				Metrics:    reg,
			}
			var buf bytes.Buffer
			res, err := omcast.RunStreamingWithTrace(cfg, omcast.StreamConfig{GroupSize: 3}, &buf, omcast.TraceOptions{})
			if err != nil {
				t.Fatal(err)
			}
			spans, err := tracing.ReadSpans(&buf)
			if err != nil {
				t.Fatal(err)
			}
			var joins, departs, disrupted, reattached, switched, repairs, repaired, lost int64
			for _, sp := range spans {
				switch {
				case sp.Kind == tracing.KindJoin:
					joins++
				case sp.Kind == tracing.KindDepart:
					departs++
					n, ok := spanAttr(sp, "disrupted")
					if !ok || sp.Outcome != "failed" {
						t.Fatalf("seed %d %v: depart span without a disrupted count or outcome failed: %+v", seed, alg, sp)
					}
					disrupted += n
				case sp.Kind == tracing.KindRejoin && sp.Outcome == "reattached":
					reattached++
				case sp.Kind == tracing.KindSwitch && sp.Outcome == "switched":
					switched++
				case sp.Kind == tracing.KindRepair:
					repairs++
					r, _ := spanAttr(sp, "repaired")
					l, _ := spanAttr(sp, "lost")
					repaired += r
					lost += l
				}
			}
			counted := map[string]float64{}
			for _, m := range reg.Snapshot(0).Metrics {
				counted[m.Name] = m.Value
			}
			for _, c := range []struct {
				what      string
				spans     int64
				count     float64
				countName string
			}{
				{"join spans", joins, counted["omcast_churn_joins_total"], "omcast_churn_joins_total"},
				{"depart spans", departs, counted["omcast_churn_departures_total"], "omcast_churn_departures_total"},
				{"depart disrupted sum", disrupted, counted["omcast_churn_disruptions_total"], "omcast_churn_disruptions_total"},
				{"reattached rejoin spans", reattached, counted["omcast_churn_rejoins_total"], "omcast_churn_rejoins_total"},
				{"switched switch spans", switched, float64(res.Switches), "Switches"},
				{"repair spans", repairs, float64(res.RepairRequests), "RepairRequests"},
				{"repair repaired sum", repaired, float64(res.PacketsRepaired), "PacketsRepaired"},
				{"repair lost sum", lost, float64(res.PacketsLost), "PacketsLost"},
			} {
				if float64(c.spans) != c.count {
					t.Fatalf("seed %d %v: %s = %d, %s = %v", seed, alg, c.what, c.spans, c.countName, c.count)
				}
			}
			if joins == 0 || departs == 0 || repairs == 0 || (alg == omcast.ROST && switched == 0) {
				t.Fatalf("seed %d %v: vacuous run: %d joins, %d departs, %d repairs, %d switches", seed, alg, joins, departs, repairs, switched)
			}
		}
	}
}

// TestSampleReadsDepartures pins that a mid-run "sample" line reads the
// departure count churn keeps: each sample's omcast_churn_departures_total
// equals the depart spans written before it.
func TestSampleReadsDepartures(t *testing.T) {
	var buf bytes.Buffer
	if _, err := omcast.RunWithTrace(quickConfig(48, omcast.ROST), &buf, omcast.TraceOptions{SampleEvery: 5 * time.Minute}); err != nil {
		t.Fatal(err)
	}
	departs, samples := 0, 0
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev omcast.TraceEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Span != nil && ev.Span.Kind == tracing.KindDepart {
			departs++
		}
		if ev.Event != "sample" {
			continue
		}
		samples++
		for _, m := range ev.Metrics {
			if m.Name == "omcast_churn_departures_total" && m.Value != float64(departs) {
				t.Fatalf("sample at t=%v reads %v departures after %d depart spans", ev.T, m.Value, departs)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if samples < 3 || departs == 0 {
		t.Fatalf("%d samples over %d departures: nothing checked mid-run", samples, departs)
	}
}
