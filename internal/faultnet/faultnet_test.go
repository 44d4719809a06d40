package faultnet

import (
	"testing"
	"time"
)

func TestDurationJSON(t *testing.T) {
	var d Duration
	if err := d.UnmarshalJSON([]byte(`"150ms"`)); err != nil || d.D() != 150*time.Millisecond {
		t.Fatalf("string form: %v %v", d, err)
	}
	if err := d.UnmarshalJSON([]byte(`2.5`)); err != nil || d.D() != 2500*time.Millisecond {
		t.Fatalf("numeric form: %v %v", d, err)
	}
	if err := d.UnmarshalJSON([]byte(`"nonsense"`)); err == nil {
		t.Fatal("bad duration accepted")
	}
	b, err := Duration(time.Second).MarshalJSON()
	if err != nil || string(b) != `"1s"` {
		t.Fatalf("marshal: %s %v", b, err)
	}
}

func TestRuleValidate(t *testing.T) {
	good := Rule{Drop: 0.1, Duplicate: 0.05, Reorder: 0.02, Latency: Duration(10 * time.Millisecond)}
	if err := good.Validate(); err != nil {
		t.Fatalf("good rule rejected: %v", err)
	}
	for _, bad := range []Rule{
		{Drop: 1.5},
		{Duplicate: -0.1},
		{Latency: Duration(-time.Second)},
		{RateBytes: -1},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("bad rule %+v accepted", bad)
		}
	}
}

// TestDeciderDeterministic is the core contract: the decision at index n is
// a pure function of (seed, link, n), so the same stream replays exactly and
// rule values never shift the underlying draws.
func TestDeciderDeterministic(t *testing.T) {
	rule := Rule{Drop: 0.2, Duplicate: 0.1, Reorder: 0.1}
	a := NewDecider(42, "n1", "n2")
	b := NewDecider(42, "n1", "n2")
	for i := 0; i < 500; i++ {
		da, db := a.Next(rule), b.Next(rule)
		if da != db {
			t.Fatalf("decision %d diverged: %+v vs %+v", i, da, db)
		}
	}

	// Different links and different seeds must give different streams.
	c := NewDecider(42, "n1", "n3")
	d := NewDecider(43, "n1", "n2")
	sameC, sameD := 0, 0
	ref := NewDecider(42, "n1", "n2")
	for i := 0; i < 200; i++ {
		r := ref.Next(rule)
		if c.Next(rule) == r {
			sameC++
		}
		if d.Next(rule) == r {
			sameD++
		}
	}
	if sameC == 200 || sameD == 200 {
		t.Fatalf("streams not independent: link overlap %d, seed overlap %d", sameC, sameD)
	}
}

// TestDeciderFixedDraws checks that changing the rule's probabilities does
// not consume a different number of draws: the drop decision at index n is
// identical whether or not duplication/reordering were enabled earlier.
func TestDeciderFixedDraws(t *testing.T) {
	heavy := Rule{Drop: 0.3, Duplicate: 0.5, Reorder: 0.5}
	dropOnly := Rule{Drop: 0.3}
	a := NewDecider(7, "x", "y")
	b := NewDecider(7, "x", "y")
	for i := 0; i < 300; i++ {
		da, db := a.Next(heavy), b.Next(dropOnly)
		if da.Drop != db.Drop {
			t.Fatalf("drop decision %d depends on other rule fields", i)
		}
		if da.JitterFrac != db.JitterFrac {
			t.Fatalf("jitter draw %d depends on other rule fields", i)
		}
	}
}

func TestDeciderRates(t *testing.T) {
	rule := Rule{Drop: 0.2}
	d := NewDecider(1, "a", "b")
	drops := 0
	const n = 5000
	for i := 0; i < n; i++ {
		if d.Next(rule).Drop {
			drops++
		}
	}
	got := float64(drops) / n
	if got < 0.15 || got > 0.25 {
		t.Fatalf("drop rate %.3f far from 0.2", got)
	}
}

func TestParseSchedule(t *testing.T) {
	data := []byte(`{
		"seed": 7,
		"default_rule": {"drop": 0.05},
		"links": [
			{"from": "src", "to": "*", "rule": {"latency": "20ms", "jitter": "5ms"}}
		],
		"events": [
			{"at": "2s", "until": "4s", "action": "partition", "from": "a", "to": "b", "symmetric": true},
			{"at": "1s", "action": "crash", "node": "c", "until": "3s"},
			{"at": "2s", "action": "rule", "from": "*", "to": "b", "rule": {"drop": 0.5}}
		]
	}`)
	s, err := Parse(data)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if s.Seed != 7 || s.DefaultRule.Drop != 0.05 {
		t.Fatalf("schedule mis-parsed: %+v", s)
	}
	if got := s.Links[0].Rule.Latency.D(); got != 20*time.Millisecond {
		t.Fatalf("latency = %s", got)
	}

	plan := s.Expand()
	// 3 events, two with Until → 5 changes, ordered by (T, declaration).
	if len(plan) != 5 {
		t.Fatalf("expanded to %d changes, want 5", len(plan))
	}
	wantOrder := []Action{ActionCrash, ActionPartition, ActionRule, ActionRestart, ActionHeal}
	for i, c := range plan {
		if c.Action != wantOrder[i] {
			t.Fatalf("plan[%d] = %s, want %s\nplan:\n%s", i, c.Action, wantOrder[i], s.FormatPlan())
		}
		if c.Seq != i {
			t.Fatalf("plan[%d].Seq = %d", i, c.Seq)
		}
	}
	if plan[3].Action != ActionRestart || plan[3].Node != "c" || plan[3].T != 3*time.Second {
		t.Fatalf("crash reversal wrong: %+v", plan[3])
	}

	if p1, p2 := s.FormatPlan(), s.FormatPlan(); p1 != p2 {
		t.Fatal("FormatPlan not byte-stable")
	}
}

func TestParseScheduleErrors(t *testing.T) {
	cases := map[string]string{
		"unknown field":     `{"sede": 7}`,
		"bad probability":   `{"default_rule": {"drop": 2}}`,
		"missing link ends": `{"links": [{"rule": {"drop": 0.1}}]}`,
		"until before at":   `{"events": [{"at": "2s", "until": "1s", "action": "partition", "from": "a", "to": "b"}]}`,
		"rule without rule": `{"events": [{"at": "1s", "action": "rule", "from": "a", "to": "b"}]}`,
		"crash sans node":   `{"events": [{"at": "1s", "action": "crash"}]}`,
		"unknown action":    `{"events": [{"at": "1s", "action": "explode", "node": "a"}]}`,
	}
	for name, data := range cases {
		if _, err := Parse([]byte(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestStaticRule(t *testing.T) {
	s := &Schedule{
		DefaultRule: &Rule{Drop: 0.01},
		Links: []LinkRule{
			{From: "src", To: "*", Rule: Rule{Drop: 0.2}},
			{From: "a", To: "b", Symmetric: true, Rule: Rule{Block: true}},
		},
	}
	if got := s.StaticRule("x", "y"); got.Drop != 0.01 {
		t.Fatalf("default not applied: %+v", got)
	}
	if got := s.StaticRule("src", "a"); got.Drop != 0.2 {
		t.Fatalf("link rule not applied: %+v", got)
	}
	if !s.StaticRule("a", "b").Block || !s.StaticRule("b", "a").Block {
		t.Fatal("symmetric rule not applied both ways")
	}
}

func TestMatch(t *testing.T) {
	if !Match("*", "anything") || !Match("a", "a") || Match("a", "b") {
		t.Fatal("Match broken")
	}
}

func TestLogEntryString(t *testing.T) {
	per := LogEntry{T: -1, Link: "a>b", N: 3, Action: "drop"}
	if got := per.String(); got != "a>b #3 drop" {
		t.Fatalf("per-datagram entry: %q", got)
	}
	sched := LogEntry{T: 2 * time.Second, Action: "partition", Detail: "a>b sym"}
	if got := sched.String(); got != "t=2s partition a>b sym" {
		t.Fatalf("schedule entry: %q", got)
	}
}
