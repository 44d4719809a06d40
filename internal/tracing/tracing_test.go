package tracing

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"
)

// collect is a Recorder appending into a slice.
type collect struct{ spans []Span }

func (c *collect) Record(sp Span) { c.spans = append(c.spans, sp) }

func TestDeterministicIDs(t *testing.T) {
	mint := func() []Span {
		var c collect
		tr := New(42, &c)
		a := tr.Start(KindRejoin, 7, time.Second)
		a.Child(KindAttempt, 7, 2*time.Second).End(3*time.Second, "accepted")
		a.End(3*time.Second, "reattached")
		tr.Start(KindRepair, 9, 4*time.Second).End(5*time.Second, "filled")
		return c.spans
	}
	first, second := mint(), mint()
	if len(first) != 3 {
		t.Fatalf("got %d spans, want 3", len(first))
	}
	for i := range first {
		if first[i].ID != second[i].ID {
			t.Errorf("span %d: ID %q vs %q across identical runs", i, first[i].ID, second[i].ID)
		}
		if len(first[i].ID) != 16 {
			t.Errorf("span %d: ID %q not 16 hex chars", i, first[i].ID)
		}
	}
	if first[0].Parent != first[1].ID {
		// spans record in completion order: child first, then parent
		t.Errorf("child parent=%q, want parent span ID %q", first[0].Parent, first[1].ID)
	}

	// Different seeds and different members must not collide.
	var c2 collect
	tr2 := New(43, &c2)
	tr2.Start(KindRejoin, 7, time.Second).End(3*time.Second, "reattached")
	if c2.spans[0].ID == first[1].ID {
		t.Error("same ID across different seeds")
	}
	ids := map[string]bool{}
	for _, sp := range first {
		if ids[sp.ID] {
			t.Errorf("duplicate ID %q within one run", sp.ID)
		}
		ids[sp.ID] = true
	}
}

func TestNodeTracerDistinctIDs(t *testing.T) {
	var a, b collect
	ta := NewNode(1, "127.0.0.1:7000", &a)
	tb := NewNode(1, "127.0.0.1:7001", &b)
	ta.Start(KindJoin, 0, 0).End(time.Second, "accepted")
	tb.Start(KindJoin, 0, 0).End(time.Second, "accepted")
	if a.spans[0].ID == b.spans[0].ID {
		t.Error("two nodes with the same seed minted the same span ID")
	}
	if a.spans[0].Node != "127.0.0.1:7000" {
		t.Errorf("node not stamped: %q", a.spans[0].Node)
	}
}

func TestDisabledTracerIsNil(t *testing.T) {
	if New(1, nil) != nil {
		t.Fatal("New with nil sink should return the nil tracer")
	}
	var tr *Tracer
	// Every call on the disabled path must be a safe no-op.
	b := tr.Start(KindRepair, 1, 0)
	b.Attr("k", "v").AttrInt("n", 3)
	b.Child(KindFetch, 2, 0).End(time.Second, "x")
	b.End(time.Second, "y")
	if b != nil {
		t.Error("disabled tracer should hand out the nil builder")
	}
}

// TestDisabledSpanHooksZeroAlloc is the satellite-4 ceiling: the exact
// call shape used by the churn/stream/rost/node hot paths must add zero
// allocations when tracing is disabled.
func TestDisabledSpanHooksZeroAlloc(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Start(KindJoin, 17, 5*time.Second).AttrInt("parent", 3).AttrInt("depth", 2).
			AttrFloat("bandwidth", 2.5).End(5*time.Second, "attached")
		sp := tr.Start(KindRepair, 17, 5*time.Second)
		sp.AttrInt("first", 100).AttrInt("last", 140)
		sp.Child(KindFetch, 17, 5*time.Second).AttrInt("server", 3).End(6*time.Second, "filled")
		sp.End(6*time.Second, "filled")
	})
	if allocs != 0 {
		t.Fatalf("disabled span hooks allocate %.1f/op, want 0", allocs)
	}
}

func TestBuilderReuseInterleaved(t *testing.T) {
	var c collect
	tr := New(5, &c)
	a := tr.Start(KindRejoin, 1, 0)
	b := tr.Start(KindRepair, 2, time.Second) // allocated: a still open
	a.Attr("cause", "failure")
	b.End(2*time.Second, "filled")
	a.End(3*time.Second, "reattached")
	if len(c.spans) != 2 {
		t.Fatalf("got %d spans", len(c.spans))
	}
	if c.spans[0].Kind != KindRepair || c.spans[1].Kind != KindRejoin {
		t.Fatalf("interleaved spans corrupted: %+v", c.spans)
	}
	if c.spans[1].Attrs[0].V != "failure" {
		t.Fatalf("attr lost across interleave: %+v", c.spans[1])
	}
}

func TestWriteJSONLRoundTrip(t *testing.T) {
	var c collect
	tr := New(9, &c)
	ep := tr.Start(KindRepair, 4, 10*time.Second).AttrInt("first", 99)
	ep.Child(KindFetch, 4, 10*time.Second).Attr("server", "2").End(11*time.Second, "arrived")
	ep.End(12*time.Second, "filled")

	var buf bytes.Buffer
	if err := WriteJSONL(&buf, c.spans); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"v":1`) {
		t.Fatalf("span line missing schema version: %s", buf.String())
	}
	got, err := ReadSpans(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(c.spans) {
		t.Fatalf("round trip lost spans: %d vs %d", len(got), len(c.spans))
	}
	for i := range got {
		if got[i].ID != c.spans[i].ID || got[i].Kind != c.spans[i].Kind ||
			got[i].Start != c.spans[i].Start || got[i].End != c.spans[i].End ||
			got[i].Outcome != c.spans[i].Outcome {
			t.Errorf("span %d mismatch: %+v vs %+v", i, got[i], c.spans[i])
		}
	}
	if got[1].Attrs[0].K != "first" || got[1].Attrs[0].V != "99" {
		t.Errorf("attrs not preserved: %+v", got[1].Attrs)
	}
}

func TestParseRejectsNewerSchema(t *testing.T) {
	_, err := Parse(strings.NewReader(`{"v":99,"event":"span"}`))
	if err == nil || !strings.Contains(err.Error(), "newer") {
		t.Fatalf("want schema-version error, got %v", err)
	}
}

// TestParseRejectsSpanlessSpanLine: a "span" line whose span is missing or
// null is a malformed producer, not a point event, and the error names the
// line.
func TestParseRejectsSpanlessSpanLine(t *testing.T) {
	for _, line := range []string{`{"v":1,"t":2,"event":"span","member":3}`, `{"v":1,"t":2,"event":"span","span":null}`} {
		_, err := Parse(strings.NewReader(`{"v":1,"t":1,"event":"join","member":3}` + "\n" + line))
		if err == nil || !strings.Contains(err.Error(), "line 2") {
			t.Errorf("%s: want a line-2 error, got %v", line, err)
		}
	}
}

// TestLiveSpanLineGolden pins the line a live node's span becomes through
// Writer (flight /debug/trace, chaos -trace-out): a live span has no member,
// so the line carries none. Lines written before Writer carried a
// redundant "member":0; Parse must read one to the same Span.
func TestLiveSpanLineGolden(t *testing.T) {
	var c collect
	NewNode(1, "127.0.0.1:7000", &c).Start(KindRejoin, 0, time.Second).Attr("cause", "timeout").End(3*time.Second, "reattached")
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, c.spans); err != nil {
		t.Fatal(err)
	}
	const want = `{"v":1,"t":3,"event":"span","span":{"id":"7f93b5b6022aa53d","kind":"rejoin","member":0,"node":"127.0.0.1:7000","start":1,"end":3,"outcome":"reattached","attrs":[{"k":"cause","v":"timeout"}]}}` + "\n"
	if buf.String() != want {
		t.Fatalf("live span line drifted:\n got  %s want %s", buf.String(), want)
	}
	const old = `{"v":1,"t":3,"event":"span","member":0,"span":{"id":"7f93b5b6022aa53d","kind":"rejoin","member":0,"node":"127.0.0.1:7000","start":1,"end":3,"outcome":"reattached","attrs":[{"k":"cause","v":"timeout"}]}}`
	for _, in := range []string{want, old} {
		got, err := ReadSpans(strings.NewReader(in))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || !reflect.DeepEqual(got[0], c.spans[0]) {
			t.Fatalf("Parse(%s) = %+v, want %+v", in, got, c.spans[0])
		}
	}
}

func TestParseSkipsPointEvents(t *testing.T) {
	in := `{"v":1,"t":1,"event":"join","member":3}
{"v":1,"t":2,"event":"failure","member":3}
{"v":1,"t":2,"event":"join","member":4}
{"v":1,"t":3,"event":"sample","metrics":[]}`
	tr, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Spans) != 0 || tr.Samples != 1 || tr.Lines != 4 {
		t.Fatalf("unexpected parse: %+v", tr)
	}
}

func TestPercentile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		q    float64
		want float64
	}{{0.5, 5}, {0.9, 9}, {0.99, 10}, {1.0, 10}, {0.1, 1}}
	for _, c := range cases {
		if got := Percentile(s, c.q); got != c.want {
			t.Errorf("p%.0f = %v, want %v", c.q*100, got, c.want)
		}
	}
	if Percentile(nil, 0.5) != 0 {
		t.Error("empty slice should yield 0")
	}
}

func TestAnalyzeWaterfall(t *testing.T) {
	var c collect
	tr := New(3, &c)
	for i := int64(0); i < 4; i++ {
		ep := tr.Start(KindRejoin, i, time.Duration(i)*time.Second)
		ep.Child(KindAttempt, i, time.Duration(i)*time.Second+500*time.Millisecond).
			End(time.Duration(i)*time.Second+time.Second, "accepted")
		out := "reattached"
		if i == 3 {
			out = "departed"
		}
		ep.End(time.Duration(i)*time.Second+2*time.Second, out)
	}
	a := Analyze(&ParsedTrace{Spans: c.spans})
	if a.TotalSpans != 8 {
		t.Fatalf("total %d, want 8", a.TotalSpans)
	}
	if len(a.Kinds) != 1 {
		t.Fatalf("kinds %d, want 1 (attempts fold into rejoin stages): %+v", len(a.Kinds), a.Kinds)
	}
	ks := a.Kinds[0]
	if ks.Kind != KindRejoin || ks.Count != 4 {
		t.Fatalf("unexpected kind stats: %+v", ks)
	}
	if ks.Outcomes["reattached"] != 3 || ks.Outcomes["departed"] != 1 {
		t.Fatalf("outcomes: %+v", ks.Outcomes)
	}
	if got := Percentile(ks.Durations, 0.5); got != 2 {
		t.Fatalf("p50 duration %v, want 2", got)
	}
	if len(ks.Stages) != 1 || ks.Stages[0].Kind != KindAttempt || ks.Stages[0].Count != 4 {
		t.Fatalf("stages: %+v", ks.Stages)
	}
	if got := Percentile(ks.Stages[0].Offsets, 0.5); got != 0.5 {
		t.Fatalf("stage offset p50 %v, want 0.5", got)
	}

	var buf bytes.Buffer
	if err := a.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"kind=rejoin", "reattached=3", "stage attempt", "p50=2.000s"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("report missing %q:\n%s", want, buf.String())
		}
	}
}
