package bench

import "testing"

// TestSuiteNamesUnique: Suite is exactly the five cases benchmark/probes.go
// resolves by name.
func TestSuiteNamesUnique(t *testing.T) {
	want := []string{
		"eventsim/schedule-fire",
		"overlay/sample-100",
		"overlay/attach-detach-dense",
		"stream/interval-account",
		"topology/delay",
	}
	got := Suite(false)
	if len(got) != len(want) {
		t.Fatalf("Suite has %d cases, want %d", len(got), len(want))
	}
	for i, c := range got {
		if c.Name != want[i] || c.Bench == nil {
			t.Fatalf("case %d = %+v, want %q with a body", i, c, want[i])
		}
	}
}
