package lint

import (
	"fmt"
	"io"
)

// WriteStats renders the per-rule statistics table for -stats.
func WriteStats(w io.Writer, res Result) {
	fmt.Fprintf(w, "%-20s %9s %10s %10s\n", "rule", "findings", "suppressed", "wall_ms")
	for _, s := range res.Stats {
		fmt.Fprintf(w, "%-20s %9d %10d %10.2f\n", s.Rule, s.Findings, s.Suppressed, s.Millis)
	}
	fmt.Fprintf(w, "%-20s %9s %10s %10.2f\n", "total", "", "", res.TotalMillis)
}
