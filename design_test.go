package omcast_test

import (
	"bytes"
	"os"
	"testing"
)

// designLineBudget caps DESIGN.md. The document should read by layer and
// stay small enough to read whole, so a change that documents something new
// makes room by tightening what is already there.
const designLineBudget = 1500

// TestDesignLineBudget holds DESIGN.md to designLineBudget lines.
func TestDesignLineBudget(t *testing.T) {
	data, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(data, []byte("\n")); n > designLineBudget {
		t.Fatalf("DESIGN.md has %d lines, over its budget of %d", n, designLineBudget)
	}
}
