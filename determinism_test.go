package omcast_test

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"omcast"
	"omcast/internal/golden"
	"omcast/internal/xrand"
)

// fingerprintTree renders every metric of a tree-level result, including the
// full per-member CDF vector, so that any map-order nondeterminism the
// linter's heuristics miss still shows up as a byte difference.
func fingerprintTree(r omcast.TreeResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "alg=%v avgDisr=%v avgReco=%v perLifeDisr=%v perLifeReco=%v\n",
		r.Algorithm, r.AvgDisruptions, r.AvgReconnections,
		r.PerLifetimeDisruptions, r.PerLifetimeReconnections)
	fmt.Fprintf(&sb, "delay=%v stretch=%v size=%v departures=%d\n",
		r.AvgServiceDelayMS, r.AvgStretch, r.AvgSize, r.Departures)
	fmt.Fprintf(&sb, "switches=%d aborts=%d backoffs=%d\n",
		r.Switches, r.SwitchAborts, r.LockBackoffs)
	fmt.Fprintf(&sb, "disruptionCounts=%v\n", r.DisruptionCounts)
	return sb.String()
}

func fingerprintStream(r omcast.StreamResult) string {
	var sb strings.Builder
	sb.WriteString(fingerprintTree(r.TreeResult))
	fmt.Fprintf(&sb, "starving=%v members=%d episodes=%d requests=%d eln=%d repaired=%d lost=%d\n",
		r.AvgStarvingRatio, r.StreamMembers, r.Episodes, r.RepairRequests,
		r.ELNMessages, r.PacketsRepaired, r.PacketsLost)
	fmt.Fprintf(&sb, "starvingRatios=%v\n", r.StarvingRatios)
	return sb.String()
}

// TestRunByteIdentical runs the same seed twice through the full ROST stack
// and requires byte-identical metric output.
func TestRunByteIdentical(t *testing.T) {
	cfg := omcast.Config{
		Seed:       42,
		Algorithm:  omcast.ROST,
		TargetSize: 250,
		Topology:   omcast.SmallTopology(),
		Warmup:     600 * time.Second,
		Measure:    900 * time.Second,
	}
	run := func() string {
		r, err := omcast.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return fingerprintTree(r)
	}
	first := run()
	second := run()
	if first != second {
		t.Fatalf("same seed produced different metrics:\n--- run 1 ---\n%s--- run 2 ---\n%s", first, second)
	}
}

// TestRunStreamingByteIdentical covers the packet-level layer, whose
// starving-ratio vector is finalized from a member-state map (the exact spot
// where unsorted iteration once reordered the output CDF).
func TestRunStreamingByteIdentical(t *testing.T) {
	cfg := omcast.Config{
		Seed:       1337,
		Algorithm:  omcast.ROST,
		TargetSize: 200,
		Topology:   omcast.SmallTopology(),
		Warmup:     600 * time.Second,
		Measure:    900 * time.Second,
	}
	scfg := omcast.StreamConfig{Recovery: omcast.CER, GroupSize: 3}
	run := func() string {
		r, err := omcast.RunStreaming(cfg, scfg)
		if err != nil {
			t.Fatal(err)
		}
		return fingerprintStream(r)
	}
	first := run()
	second := run()
	if first != second {
		t.Fatalf("same seed produced different streaming metrics:\n--- run 1 ---\n%s--- run 2 ---\n%s", first, second)
	}
}

// TestSampledTraceByteIdentical is the acceptance gate for the metrics
// layer's determinism: a traced run with periodic registry snapshots must
// produce a byte-identical JSONL stream — spans AND interleaved sample
// lines — when repeated with the same seed. Any wall-clock read, map-order
// leak or float-accumulation reorder inside the sim-side metrics path shows
// up here as a diff.
func TestSampledTraceByteIdentical(t *testing.T) {
	cfg := omcast.Config{
		Seed:       7,
		Algorithm:  omcast.ROST,
		TargetSize: 200,
		Topology:   omcast.SmallTopology(),
		Warmup:     600 * time.Second,
		Measure:    900 * time.Second,
	}
	opts := omcast.TraceOptions{SampleEvery: 2 * time.Minute}
	run := func() string {
		var buf strings.Builder
		if _, err := omcast.RunWithTrace(cfg, &buf, opts); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	first := run()
	second := run()
	if !strings.Contains(first, `"event":"sample"`) {
		t.Fatal("sampled run emitted no sample lines")
	}
	if first != second {
		t.Fatal("same seed produced different sampled trace streams")
	}
}

// TestSampledStreamingTraceByteIdentical extends the gate to the packet
// level: CER episode counters and repair spans must be as reproducible as
// the overlay spans.
func TestSampledStreamingTraceByteIdentical(t *testing.T) {
	cfg := omcast.Config{
		Seed:       9,
		Algorithm:  omcast.ROST,
		TargetSize: 150,
		Topology:   omcast.SmallTopology(),
		Warmup:     600 * time.Second,
		Measure:    900 * time.Second,
	}
	scfg := omcast.StreamConfig{Recovery: omcast.CER, GroupSize: 3}
	opts := omcast.TraceOptions{SampleEvery: 3 * time.Minute}
	run := func() string {
		var buf strings.Builder
		if _, err := omcast.RunStreamingWithTrace(cfg, scfg, &buf, opts); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	first := run()
	second := run()
	for _, want := range []string{`"event":"sample"`, `"kind":"repair"`} {
		if !strings.Contains(first, want) {
			t.Fatalf("sampled streaming run emitted no %s lines", want)
		}
	}
	if first != second {
		t.Fatal("same seed produced different sampled streaming trace streams")
	}
}

// TestSpanTraceByteIdentical extends the determinism gate to the causal
// span layer: a span trace must be byte-identical across reruns at a fixed
// seed — span IDs derive from (seed, member, sequence) alone, so nothing
// run-local (pointers, global counters, wall time) may leak in.
func TestSpanTraceByteIdentical(t *testing.T) {
	cfg := omcast.Config{
		Seed:       11,
		Algorithm:  omcast.ROST,
		TargetSize: 200,
		Topology:   omcast.SmallTopology(),
		Warmup:     600 * time.Second,
		Measure:    900 * time.Second,
	}
	opts := omcast.TraceOptions{}
	run := func() string {
		var buf strings.Builder
		if _, err := omcast.RunWithTrace(cfg, &buf, opts); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	first := run()
	second := run()
	for _, want := range []string{`"event":"span"`, `"kind":"rejoin"`} {
		if !strings.Contains(first, want) {
			t.Fatalf("traced run emitted no %s lines", want)
		}
	}
	if first != second {
		t.Fatal("same seed produced different span traces")
	}
}

// TestSpanStreamingTraceByteIdentical covers the packet level (repair
// episodes with fetch/stall stages) and additionally runs the two traced
// simulations concurrently: if span IDs or sequences lived in any shared
// state — the failure mode that would break byte-identity across the
// experiment engine's -workers fan-out — the interleaved runs would
// diverge from the serial baseline.
func TestSpanStreamingTraceByteIdentical(t *testing.T) {
	cfg := omcast.Config{
		Seed:       13,
		Algorithm:  omcast.ROST,
		TargetSize: 150,
		Topology:   omcast.SmallTopology(),
		Warmup:     600 * time.Second,
		Measure:    900 * time.Second,
	}
	scfg := omcast.StreamConfig{Recovery: omcast.CER, GroupSize: 3}
	opts := omcast.TraceOptions{}
	run := func() string {
		var buf strings.Builder
		if _, err := omcast.RunStreamingWithTrace(cfg, scfg, &buf, opts); err != nil {
			t.Error(err)
			return ""
		}
		return buf.String()
	}
	serial := run()
	for _, want := range []string{`"kind":"rejoin"`, `"kind":"repair"`, `"kind":"fetch"`} {
		if !strings.Contains(serial, want) {
			t.Fatalf("streaming span run emitted no %s spans", want)
		}
	}
	results := make([]string, 2)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = run()
		}(i)
	}
	wg.Wait()
	for i, got := range results {
		if got != serial {
			t.Fatalf("concurrent run %d diverged from the serial trace", i)
		}
	}
}

// TestStreamingTraceGolden pins the JSONL of two traced packet-level runs
// across commits, one testdata/trace/<name>.golden each (traceDigest). The
// byte-identity tests above compare a build with itself; these fail if the
// spans an operator reads (IDs, creation order on a member's track, fetch
// shares, stall windows, outcomes) ever drift. The first configuration is
// CI's traced smoke run (`omcast trace -seed 1 -size 300 -small -warmup 10m
// -measure 20m -sample 5m -stream`: 750 join, 413 depart, 184 repair, 489
// fetch, 168 stall spans, all fully striped); the second drops sampling and
// runs groups of one, which forces striped + backlog fetches and partial and
// abandoned outcomes. `go test -run TestStreamingTraceGolden -update`
// rewrites the files.
func TestStreamingTraceGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Arrival times are float arithmetic; architectures on which the
		// compiler fuses multiply-add round differently.
		t.Skipf("the goldens were taken on amd64, not %s", runtime.GOARCH)
	}
	cfg := omcast.Config{
		Seed:       1,
		Algorithm:  omcast.ROST,
		TargetSize: 300,
		Topology:   omcast.SmallTopology(),
		Warmup:     10 * time.Minute,
		Measure:    20 * time.Minute,
	}
	for _, tc := range []struct {
		name string
		scfg omcast.StreamConfig
		opts omcast.TraceOptions
	}{
		{
			name: "sampled-group3",
			scfg: omcast.StreamConfig{GroupSize: 3},
			opts: omcast.TraceOptions{SampleEvery: 5 * time.Minute},
		},
		{
			name: "group1",
			scfg: omcast.StreamConfig{GroupSize: 1},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf strings.Builder
			if _, err := omcast.RunStreamingWithTrace(cfg, tc.scfg, &buf, tc.opts); err != nil {
				t.Fatal(err)
			}
			golden.Check(t, traceGolden(tc.name), traceDigest(t, buf.String()), nil)
		})
	}
}

// TestTreeTraceGolden pins the JSONL of two traced tree-level runs like
// TestStreamingTraceGolden: the ROST quick configuration with sampling (24
// switch spans, 170 rejoin spans) and TestTraceSaturatedAttemptSpans'
// bandwidth-starved minimum-depth overlay (99 saturated attempt spans).
func TestTreeTraceGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the goldens were taken on amd64, not %s", runtime.GOARCH)
	}
	saturated := quickConfig(1, omcast.MinimumDepth)
	saturated.Warmup, saturated.Measure = 10*time.Minute, 20*time.Minute
	saturated.RootBandwidth = 20
	saturated.Bandwidth = xrand.BoundedPareto{Shape: 1.2, Lo: 0.5, Hi: 2.2}
	for _, tc := range []struct {
		name string
		cfg  omcast.Config
		opts omcast.TraceOptions
	}{
		{
			name: "rost-sampled",
			cfg:  quickConfig(40, omcast.ROST),
			opts: omcast.TraceOptions{SampleEvery: 5 * time.Minute},
		},
		{
			name: "saturated-min-depth",
			cfg:  saturated,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf strings.Builder
			if _, err := omcast.RunWithTrace(tc.cfg, &buf, tc.opts); err != nil {
				t.Fatal(err)
			}
			golden.Check(t, traceGolden(tc.name), traceDigest(t, buf.String()), nil)
		})
	}
}

// traceGolden is the golden file of the trace named name.
func traceGolden(name string) string {
	return filepath.Join("testdata", "trace", name+".golden")
}

// traceDigest renders a JSONL trace, too long to commit, as its golden: one
// golden.Digest line per line group, "sample" and then "span <kind>" for
// each span kind in name order, over the group's lines in stream order;
// then an "all" line over the whole stream, which also pins how the groups
// interleave.
func traceDigest(t *testing.T, jsonl string) string {
	t.Helper()
	groups := map[string]string{}
	var names []string
	for _, line := range strings.SplitAfter(jsonl, "\n") {
		if line == "" {
			continue
		}
		var ev struct {
			Event string
			Span  *struct{ Kind string }
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("trace line %q: %v", line, err)
		}
		group := ev.Event
		if ev.Span != nil {
			group += " " + ev.Span.Kind
		}
		if _, ok := groups[group]; !ok {
			names = append(names, group)
		}
		groups[group] += line
	}
	sort.Strings(names)
	var b strings.Builder
	for _, group := range names {
		b.WriteString(golden.Digest(group, groups[group]))
	}
	b.WriteString(golden.Digest("all", jsonl))
	return b.String()
}

// TestTraceGoldenReportNamesTheKind: a trace that differs in one span line
// is reported as that kind's line and the "all" line, and one whose two
// adjacent lines of different kinds swapped places as the "all" line alone.
func TestTraceGoldenReportNamesTheKind(t *testing.T) {
	trace := []string{
		`{"v":1,"t":60,"event":"sample","metrics":[{"name":"omcast_churn_members","kind":"gauge","value":3}]}`,
		`{"v":1,"t":61,"event":"span","member":2,"span":{"id":"a1","kind":"join","member":2,"start":61,"end":61,"outcome":"ok"}}`,
		`{"v":1,"t":65,"event":"span","member":3,"span":{"id":"b1","kind":"repair","member":3,"start":62,"end":65,"outcome":"full"}}`,
		`{"v":1,"t":66,"event":"span","member":4,"span":{"id":"c1","kind":"join","member":4,"start":66,"end":66,"outcome":"ok"}}`,
	}
	render := func(lines ...string) string { return traceDigest(t, strings.Join(lines, "\n")+"\n") }
	want := render(trace...)
	changed := render(trace[0], trace[1], strings.Replace(trace[2], `"full"`, `"partial"`, 1), trace[3])
	swapped := render(trace[0], trace[2], trace[1], trace[3])
	for _, tc := range []struct {
		name, got string
		groups    []string
	}{
		{"one span line", changed, []string{"span repair", "all"}},
		{"adjacent kinds swapped", swapped, []string{"all"}},
	} {
		var reported []string
		for _, line := range strings.Split(strings.TrimSuffix(golden.Diff(want, tc.got, nil), "\n"), "\n") {
			if digest, ok := strings.CutPrefix(line, "+ "); ok {
				f := strings.Fields(digest) // group name, count, sha256
				reported = append(reported, strings.Join(f[:len(f)-2], " "))
			}
		}
		if !slices.Equal(reported, tc.groups) {
			t.Errorf("%s: report names %q, want %q", tc.name, reported, tc.groups)
		}
	}
}
