package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// benchmarkFile is the part of BENCHMARK.json -compare needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readJSON(path string, into any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, into); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// Verdicts of one (metric, workload) pairing.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// worseBy is how much b is worse than a, as a share of a, given which
// direction is better; negative when b is better.
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// allBetter reports whether every sample of b reads better than every sample
// of a.
func allBetter(a, b []float64, better string) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	sa, sb := sorted(a), sorted(b)
	if better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

// judge classifies one pairing: a spread between a file's own repetition
// quartiles wider than the bound leaves it unresolved (unless every
// repetition of b beats every one of a); otherwise a median worse by more
// than the bound is a regression.
func judge(a, b float64, samplesA, samplesB []float64, better string, bound float64) (change, spreadMax float64, verdict string) {
	change = worseBy(a, b, better)
	spreadMax = spread(samplesA)
	if s := spread(samplesB); s > spreadMax {
		spreadMax = s
	}
	switch {
	case spreadMax > bound && !allBetter(samplesA, samplesB, better):
		verdict = verdictUnresolved
	case change > bound:
		verdict = verdictWorse
	default:
		verdict = verdictOK
	}
	return change, spreadMax, verdict
}

func (d *document) find(workload string, traced bool) *docResult {
	for i := range d.Results {
		if d.Results[i].Workload == workload && d.Results[i].Traced == traced {
			return &d.Results[i]
		}
	}
	return nil
}

// compareFiles prints, per (metric, workload), both medians, the change
// against the metric's bound, and the verdict; then, per workload, whether the
// digests and every count metric agree exactly. It reports whether any
// pairing is worse.
func compareFiles(pathA, pathB, boundsPath string, w io.Writer) (bool, error) {
	var a, b document
	var bf benchmarkFile
	if err := readJSON(pathA, &a); err != nil {
		return false, err
	}
	if err := readJSON(pathB, &b); err != nil {
		return false, err
	}
	if err := readJSON(boundsPath, &bf); err != nil {
		return false, fmt.Errorf("reading bounds: %w", err)
	}
	fmt.Fprintf(w, "A: %s  (%d CPUs, %s, seed %d, %gs)\n", pathA, a.Machine.NProc, a.Machine.GoVersion, a.Seed, a.Seconds)
	fmt.Fprintf(w, "B: %s  (%d CPUs, %s, seed %d, %gs)\n\n", pathB, b.Machine.NProc, b.Machine.GoVersion, b.Seed, b.Seconds)

	anyWorse := false
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA\tB\tworse by\tbound\tspread\tverdict")
	for _, ra := range a.Results {
		if ra.Traced {
			continue
		}
		rb := b.find(ra.Workload, false)
		if rb == nil {
			return false, fmt.Errorf("%s has no plain result for %s", pathB, ra.Workload)
		}
		for _, m := range bf.EndToEnd {
			change, sp, verdict := judge(ra.Metrics[m.Name].Value, rb.Metrics[m.Name].Value,
				ra.Samples[m.Name], rb.Samples[m.Name], m.Better, m.Bound)
			anyWorse = anyWorse || verdict == verdictWorse
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s\t%.6g %s\t%+.1f%%\t%.0f%%\t%.1f%%\t%s\n",
				ra.Workload, m.Name, ra.Metrics[m.Name].Value, m.Unit, rb.Metrics[m.Name].Value, m.Unit,
				100*change, 100*m.Bound, 100*sp, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return false, err
	}

	// Simulated results and counts are exact for a seed and a commit.
	fmt.Fprintln(w, "\nexact values (digests, and per-layer metrics whose unit is count):")
	for _, ra := range a.Results {
		rb := b.find(ra.Workload, ra.Traced)
		if rb == nil {
			continue
		}
		pass := "plain"
		if ra.Traced {
			pass = "traced"
		}
		state := "identical"
		if ra.Digest != rb.Digest {
			state = "DIFFERS"
		}
		fmt.Fprintf(w, "  %-13s %-6s digest %s", ra.Workload, pass, state)
		differ := 0
		for _, m := range bf.PerLayer {
			if m.Unit != "count" {
				continue
			}
			va, okA := ra.Metrics[m.Name]
			vb, okB := rb.Metrics[m.Name]
			if okA && okB && va.Value != vb.Value {
				fmt.Fprintf(w, "\n      %s: %v vs %v", m.Name, va.Value, vb.Value)
				differ++
			}
		}
		if ra.Traced && differ == 0 {
			fmt.Fprint(w, ", counts identical")
		}
		fmt.Fprintln(w)
	}
	return anyWorse, nil
}
