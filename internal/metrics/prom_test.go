package metrics

import (
	"bytes"
	"math"
	"path/filepath"
	"testing"

	"omcast/internal/golden"
)

// goldenSnapshot builds one snapshot exercising every encoder path: a labeled
// counter family with two series, a gauge whose label value needs escaping, a
// non-finite gauge, and a histogram with cumulative buckets.
func goldenSnapshot() Snapshot {
	reg := NewRegistry()
	reg.Counter("omcast_demo_events_total", "events by kind", Label{Key: "kind", Value: "join"}).Add(12)
	reg.Counter("omcast_demo_events_total", "events by kind", Label{Key: "kind", Value: "depart"}).Add(5)
	reg.Gauge("omcast_demo_path", `a help line with \ and a newline:`+"\n"+`end`,
		Label{Key: "path", Value: `C:\tmp "quoted"` + "\nnext"}).Set(2.5)
	reg.Gauge("omcast_demo_limit", "non-finite values").Set(math.Inf(1))
	h := reg.Histogram("omcast_demo_latency_seconds", "latency", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.05, 0.5, 3} {
		h.Observe(v)
	}
	return reg.Snapshot(0)
}

func TestWritePromGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteProm(&buf, goldenSnapshot()); err != nil {
		t.Fatal(err)
	}
	golden.Check(t, filepath.Join("testdata", "prom.golden"), buf.String(), nil)
}

func TestWritePromDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := WriteProm(&a, goldenSnapshot()); err != nil {
		t.Fatal(err)
	}
	if err := WriteProm(&b, goldenSnapshot()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two encodes of identical registries differ")
	}
}

func TestWritePromCumulativeBuckets(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("omcast_x_seconds", "", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(9)
	var buf bytes.Buffer
	if err := WriteProm(&buf, reg.Snapshot(0)); err != nil {
		t.Fatal(err)
	}
	want := "# HELP omcast_x_seconds \n# TYPE omcast_x_seconds histogram\n" +
		"omcast_x_seconds_bucket{le=\"1\"} 1\n" +
		"omcast_x_seconds_bucket{le=\"2\"} 2\n" +
		"omcast_x_seconds_bucket{le=\"+Inf\"} 3\n" +
		"omcast_x_seconds_sum 11\n" +
		"omcast_x_seconds_count 3\n"
	if buf.String() != want {
		t.Errorf("cumulative bucket encoding wrong:\n--- got ---\n%s--- want ---\n%s", buf.String(), want)
	}
}

func TestFormatValue(t *testing.T) {
	for v, want := range map[float64]string{
		math.Inf(1):  "+Inf",
		math.Inf(-1): "-Inf",
		2.5:          "2.5",
		0:            "0",
	} {
		if got := formatValue(v); got != want {
			t.Errorf("formatValue(%v) = %q, want %q", v, got, want)
		}
	}
	if got := formatValue(math.NaN()); got != "NaN" {
		t.Errorf("formatValue(NaN) = %q", got)
	}
}
