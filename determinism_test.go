package omcast_test

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"omcast"
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
	fmt.Fprintf(&sb, "switches=%d aborts=%d backoffs=%d rejected=%d\n",
		r.Switches, r.SwitchAborts, r.LockBackoffs, r.RejectedClaims)
	fmt.Fprintf(&sb, "cheaters=%d cheatDepth=%v honestDepth=%v\n",
		r.CheaterCount, r.CheaterMeanDepth, r.HonestMeanDepth)
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
// (referees and cheater injection on, exercising every seeded sub-stream)
// and requires byte-identical metric output.
func TestRunByteIdentical(t *testing.T) {
	cfg := omcast.Config{
		Seed:           42,
		Algorithm:      omcast.ROST,
		TargetSize:     250,
		Topology:       omcast.SmallTopology(),
		Warmup:         600 * time.Second,
		Measure:        900 * time.Second,
		EnableReferees: true,
		Cheaters:       5,
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
// produce a byte-identical JSONL stream — events AND interleaved sample
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
		if _, err := omcast.RunWithTraceOptions(cfg, &buf, opts); err != nil {
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
// level: CER episode counters and repair events must be as reproducible as
// the overlay events.
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
	for _, want := range []string{`"event":"sample"`, `"event":"repair"`} {
		if !strings.Contains(first, want) {
			t.Fatalf("sampled streaming run emitted no %s lines", want)
		}
	}
	if first != second {
		t.Fatal("same seed produced different sampled streaming trace streams")
	}
}

// TestSpanTraceByteIdentical extends the determinism gate to the causal
// span layer: a span-enabled trace must be byte-identical across reruns at
// a fixed seed — span IDs derive from (seed, member, sequence) alone, so
// nothing run-local (pointers, global counters, wall time) may leak in.
func TestSpanTraceByteIdentical(t *testing.T) {
	cfg := omcast.Config{
		Seed:       11,
		Algorithm:  omcast.ROST,
		TargetSize: 200,
		Topology:   omcast.SmallTopology(),
		Warmup:     600 * time.Second,
		Measure:    900 * time.Second,
	}
	opts := omcast.TraceOptions{Spans: true}
	run := func() string {
		var buf strings.Builder
		if _, err := omcast.RunWithTraceOptions(cfg, &buf, opts); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	first := run()
	second := run()
	for _, want := range []string{`"event":"span"`, `"kind":"rejoin"`} {
		if !strings.Contains(first, want) {
			t.Fatalf("span-enabled run emitted no %s lines", want)
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
	opts := omcast.TraceOptions{Spans: true}
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

// TestStreamingTraceGolden pins the full JSONL of two traced packet-level
// runs across commits. The byte-identity tests above compare a build with
// itself; these hashes were taken before the traced and untraced episode
// paths were fused, so they fail if the spans an operator reads (IDs,
// creation order on a member's track, fetch shares, stall windows,
// outcomes) ever drift from what that build emitted. The first
// configuration is CI's traced smoke run (`omcast trace -seed 1 -size 300
// -small -warmup 10m -measure 20m -sample 5m -stream -spans`: 184 repair,
// 489 fetch, 168 stall spans, all fully striped); the second drops
// sampling and runs groups of one, which forces striped + backlog fetches
// and partial and abandoned outcomes.
func TestStreamingTraceGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Arrival times are float arithmetic; architectures on which the
		// compiler fuses multiply-add round differently.
		t.Skipf("golden hashes were taken on amd64, not %s", runtime.GOARCH)
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
		name   string
		scfg   omcast.StreamConfig
		opts   omcast.TraceOptions
		sha256 string
		lines  int
	}{
		{
			name:   "sampled-group3",
			scfg:   omcast.StreamConfig{GroupSize: 3},
			opts:   omcast.TraceOptions{SampleEvery: 5 * time.Minute, Spans: true},
			sha256: "34a82eacb6308f4d238f5c58a2632bc52c3907e2e3b58f62e8a83392f56c65af",
			lines:  3214,
		},
		{
			name:   "group1",
			scfg:   omcast.StreamConfig{GroupSize: 1},
			opts:   omcast.TraceOptions{Spans: true},
			sha256: "13537deeeaf0b5987c1b4bd25464f4ad4f99858573931157a4b1a68539f62c04",
			lines:  3062,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf strings.Builder
			if _, err := omcast.RunStreamingWithTrace(cfg, tc.scfg, &buf, tc.opts); err != nil {
				t.Fatal(err)
			}
			got := fmt.Sprintf("%x", sha256.Sum256([]byte(buf.String())))
			if got != tc.sha256 {
				t.Fatalf("trace sha256 = %s (%d lines), want %s (%d lines)",
					got, strings.Count(buf.String(), "\n"), tc.sha256, tc.lines)
			}
		})
	}
}
