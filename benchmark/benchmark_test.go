package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"omcast"
)

func TestMedianAndPercentile(t *testing.T) {
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v, want 0", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of three = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {100, 100}, {1, 1}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if v[0] != 100 {
		t.Error("percentile sorted its argument in place")
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4): the
// driver computes spreads with that function.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		v      []float64
		q1, q3 float64
	}{
		// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		// statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
		{[]float64{40, 10, 20}, 10, 40},
		// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
		{[]float64{1, 2}, 0.75, 2.25},
		// statistics.quantiles([3.1, 2.9, 3.0, 3.3, 2.8, 3.05, 2.95], n=4) == [2.9, 3.0, 3.1]
		{[]float64{3.1, 2.9, 3.0, 3.3, 2.8, 3.05, 2.95}, 2.9, 3.1},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.v)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestDigestSeparatesResults(t *testing.T) {
	base := simOutcome{tree: omcast.TreeResult{AvgDisruptions: 1.5, DisruptionCounts: []float64{1, 2}}, episodes: 3}
	same := simOutcome{tree: omcast.TreeResult{AvgDisruptions: 1.5, DisruptionCounts: []float64{1, 2}}, episodes: 3, events: 99, bytesPerMember: 7}
	if base.digest() != same.digest() {
		t.Error("digest depends on fields only one pass can observe (events, bytes per member)")
	}
	changed := []simOutcome{
		{tree: omcast.TreeResult{AvgDisruptions: math.Nextafter(1.5, 2), DisruptionCounts: []float64{1, 2}}, episodes: 3},
		{tree: omcast.TreeResult{AvgDisruptions: 1.5, DisruptionCounts: []float64{2, 1}}, episodes: 3},
		{tree: omcast.TreeResult{AvgDisruptions: 1.5, DisruptionCounts: []float64{1, 2}}, episodes: 4},
	}
	for i, c := range changed {
		if c.digest() == base.digest() {
			t.Errorf("case %d: a different result digests equal", i)
		}
	}
	// Length prefixes keep adjacent fields from running together.
	a, b := newDigester(), newDigester()
	a.text("ab")
	a.text("c")
	b.text("a")
	b.text("bc")
	if a.sum() == b.sum() {
		t.Error(`text("ab"),text("c") digests like text("a"),text("bc")`)
	}
}

func TestTracerSelfTime(t *testing.T) {
	// An earlier repetition's span, then a 100 ns loop span with two children
	// of 30 and 20 ns and one grandchild.
	tr := &tracer{open: -1, rep: 1, repStart: 1}
	tr.spans = []span{
		{kind: spanJoin, parent: -1, start: 0, end: 1000},
		{kind: spanMeasure, rep: 1, parent: -1, start: 0, end: 100},
		{kind: spanEpisode, rep: 1, parent: 1, start: 10, end: 40},
		{kind: spanSelect, rep: 1, parent: 2, start: 15, end: 25},
		{kind: spanJoin, rep: 1, parent: 1, start: 50, end: 70},
	}
	st := tr.analyze()
	if got := st[spanMeasure].self; got != 50 {
		t.Errorf("loop self time = %v, want 100-30-20 = 50", got)
	}
	if got := st[spanEpisode].self; got != 20 {
		t.Errorf("episode self time = %v, want 30-10 = 20", got)
	}
	if st[spanJoin].count != 1 || st[spanJoin].total != 20 {
		t.Errorf("join spans of this repetition = %d totalling %v, want 1 totalling 20", st[spanJoin].count, st[spanJoin].total)
	}
	if got := tr.childTotal(spanMeasure, spanJoin); got != 20 {
		t.Errorf("childTotal = %v, want 20", got)
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin(spanJoin)) // must not panic or read a clock
}

func TestJudge(t *testing.T) {
	steady := func(x float64) []float64 { return []float64{x * 0.99, x, x * 1.01, x, x} }
	cases := []struct {
		name        string
		a, b        float64
		sa, sb      []float64
		better      string
		bound       float64
		wantChange  float64
		wantVerdict string
	}{
		{"same", 10, 10, steady(10), steady(10), "lower", 0.1, 0, verdictOK},
		{"slower within bound", 10, 10.5, steady(10), steady(10.5), "lower", 0.1, 0.05, verdictOK},
		{"slower past bound", 10, 12, steady(10), steady(12), "lower", 0.1, 0.2, verdictWorse},
		{"throughput down past bound", 100, 80, steady(100), steady(80), "higher", 0.1, 0.2, verdictWorse},
		{"throughput up", 100, 150, steady(100), steady(150), "higher", 0.1, -0.5, verdictOK},
		{"noisy", 10, 10.2, []float64{8, 9, 10, 11, 12}, steady(10.2), "lower", 0.1, 0.02, verdictUnresolved},
		{"noisy but every run better", 10, 5, []float64{8, 9, 10, 11, 12}, steady(5), "lower", 0.1, -0.5, verdictOK},
	}
	for _, c := range cases {
		change, _, verdict := judge(c.a, c.b, c.sa, c.sb, c.better, c.bound)
		if math.Abs(change-c.wantChange) > 1e-9 || verdict != c.wantVerdict {
			t.Errorf("%s: change %v verdict %s, want %v %s", c.name, change, verdict, c.wantChange, c.wantVerdict)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		t.Helper()
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	doc := func(runS float64, digest string) document {
		return document{Seed: 1, Seconds: 15, Results: []docResult{{
			Workload: "figures", Correct: true, Attempted: 11, Digest: digest,
			Metrics: map[string]metric{"run_s": {Value: runS, Unit: "s"}},
			Samples: map[string][]float64{"run_s": {runS, runS * 1.01, runS * 0.99}},
		}}}
	}
	bounds := write("bounds.json", map[string]any{
		"end_to_end": []map[string]any{{"name": "run_s", "unit": "s", "better": "lower", "bound": 0.15}},
	})
	a := write("a.json", doc(3.0, "d1"))
	var out bytes.Buffer
	worse, err := compareFiles(a, write("b.json", doc(3.1, "d1")), bounds, &out)
	if err != nil || worse {
		t.Fatalf("3.0 -> 3.1 s under a 15%% bound: worse=%v err=%v\n%s", worse, err, out.String())
	}
	if !strings.Contains(out.String(), "digest identical") {
		t.Errorf("equal digests not reported:\n%s", out.String())
	}
	out.Reset()
	worse, err = compareFiles(a, write("c.json", doc(4.0, "d2")), bounds, &out)
	if err != nil || !worse {
		t.Fatalf("3.0 -> 4.0 s under a 15%% bound: worse=%v err=%v\n%s", worse, err, out.String())
	}
	if !strings.Contains(out.String(), verdictWorse) || !strings.Contains(out.String(), "DIFFERS") {
		t.Errorf("regression or digest change not reported:\n%s", out.String())
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json, the metric tables and
// the workload list telling one story.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &file); err != nil {
		t.Fatal(err)
	}
	ws := workloads(false)
	if len(file.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(file.Workloads), len(ws))
	}
	for i, w := range ws {
		if file.Workloads[i].Name != w.name || file.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, file.Workloads[i].Name, file.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	if len(file.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the tables %d", len(file.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, d := range endToEnd {
		f := file.EndToEnd[i]
		if f.Name != d.name || f.Unit != d.unit || f.Better != d.better || f.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the tables %+v", i, f, d)
		}
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
		hasSetup = hasSetup || (d.name == "setup_s" && d.unit == "s" && d.better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds with better=lower")
	}
	if len(file.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the tables %d", len(file.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, d := range perLayer {
		f := file.PerLayer[i]
		if f.Name != d.name || f.Unit != d.unit || f.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the tables %+v", i, f, d)
		}
		if seen[d.name] || d.moves == "" {
			t.Errorf("%s: listed twice, or without the end-to-end metric it should move", d.name)
		}
		seen[d.name] = true
	}
}

// TestSmokeEveryWorkload runs each workload at test size through both passes,
// the way the driver would, and checks the result's shape.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads(true) {
		for _, traced := range []bool{false, true} {
			rep, err := runWorkload(w, runOptions{seed: 2, seconds: 1, traced: traced})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, rep.Correct, rep.Attempted, rep.Failed)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(rep.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(rep.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := rep.Metrics[d.name]
				if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v (present %v)", w.name, traced, d.name, m, ok)
				}
				if !traced && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, d.name, m.Value)
				}
			}
		}
	}
}

// TestRunPrintsOneJSONLine drives the command-line surface: JSON only on
// stdout, the contract's four keys, a second seed passing every check.
func TestRunPrintsOneJSONLine(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", "live-forward", "--seed", "7", "--seconds", "1", "--trace", "0", "-smoke"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d\n%s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("stdout holds %d lines, want the result alone:\n%s", len(lines), stdout.String())
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[0]), &got); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := got[key]; !ok {
			t.Errorf("result lacks %q", key)
		}
	}
	if len(got) != 4 {
		t.Errorf("result has %d keys, want exactly 4: %s", len(got), lines[0])
	}
	if code := run([]string{"--workload", "no-such"}, &stdout, &stderr); code == 0 {
		t.Error("an unknown workload exited 0")
	}
}

// TestTracedAssemblyEqualsPublicRun is the proof the ledger measures the same
// program: the benchmark's own assembly, decorators in place, must reproduce
// omcast.Run and omcast.RunStreaming bit for bit.
func TestTracedAssemblyEqualsPublicRun(t *testing.T) {
	window := 10 * time.Minute
	specs := []simSpec{
		{algorithm: omcast.ROST, members: 500, warmup: window, measure: window, small: true},
		{algorithm: omcast.RelaxedBandwidthOrdered, members: 500, warmup: window, measure: window, small: true},
		{algorithm: omcast.MinimumDepth, members: 500, warmup: window, measure: window, small: true, streaming: true, groupSize: 3},
	}
	for _, spec := range specs {
		const seed = 11
		public, err := runPublic(spec, seed)
		if err != nil {
			t.Fatal(err)
		}
		s, err := assemble(spec, seed, newTracer())
		if err != nil {
			t.Fatal(err)
		}
		traced, err := s.run()
		if err != nil {
			t.Fatal(err)
		}
		if public.digest() != traced.digest() {
			t.Errorf("%v: traced digest differs from the public run's", spec.algorithm)
		}
		if public.tree.AvgDisruptions != traced.tree.AvgDisruptions || public.starvingRatio != traced.starvingRatio {
			t.Errorf("%v: disruptions %v vs %v, starving ratio %v vs %v", spec.algorithm,
				public.tree.AvgDisruptions, traced.tree.AvgDisruptions, public.starvingRatio, traced.starvingRatio)
		}
		if !spec.streaming && public.events != traced.events {
			t.Errorf("%v: %d events through omcast.RunScale, %d through the traced assembly", spec.algorithm, public.events, traced.events)
		}
		if len(s.tr.spans) == 0 || s.joins == 0 || s.delayCalls == 0 {
			t.Errorf("%v: decorators saw nothing (%d spans, %d joins, %d delay calls)", spec.algorithm, len(s.tr.spans), s.joins, s.delayCalls)
		}
		// omcast.Run is the entry point without the footprint measurement.
		plain, err := omcast.Run(spec.config(seed))
		if err != nil {
			t.Fatal(err)
		}
		if plain.AvgDisruptions != traced.tree.AvgDisruptions || plain.Departures != traced.tree.Departures {
			t.Errorf("%v: omcast.Run disagrees with the traced assembly", spec.algorithm)
		}
	}
}
