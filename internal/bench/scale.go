package bench

import (
	"fmt"
	"slices"
	"time"

	"omcast"
)

// ScalePoint is one fig-scale measurement: ROST runs at one member count,
// reporting the deterministic event count alongside the machine observables
// the experiment family tracks — retained heap bytes per member, bytes and
// heap objects allocated over the whole run (garbage included: a per-event
// cost that scales with M shows here long before it shows in the retained
// heap), objects per member created, and wall-clock nanoseconds per event.
// Each machine observable is the median over Runs runs of the same seed,
// which agree on every deterministic field. `omcast bench` writes the points
// to BENCH_scale.json.
type ScalePoint struct {
	Members           int     `json:"members"`
	Runs              int     `json:"runs"`
	AvgSize           float64 `json:"avg_size"`
	Events            uint64  `json:"events"`
	WallNs            int64   `json:"wall_ns"`
	NsPerEvent        float64 `json:"ns_per_event"`
	HeapBytes         uint64  `json:"heap_bytes"`
	BytesPerMember    float64 `json:"bytes_per_member"`
	AllocBytes        uint64  `json:"alloc_bytes"`
	Mallocs           uint64  `json:"mallocs"`
	MallocsPerArrival float64 `json:"mallocs_per_arrival"`
	AvgDisruptions    float64 `json:"avg_disruptions"`
}

// scaleConfig builds the omcast configuration behind one scale point. The
// windows are shorter than the paper's (15-minute warm-up and measure): the
// family measures footprint and event cost, which stabilise long before the
// figure metrics do, and the million-member point must complete in one
// sitting. quick additionally shrinks the underlay and the windows for
// smoke tests.
func scaleConfig(members int, quick bool) omcast.Config {
	cfg := omcast.Config{
		Seed:       1,
		Algorithm:  omcast.ROST,
		TargetSize: members,
		Warmup:     15 * time.Minute,
		Measure:    15 * time.Minute,
	}
	if quick {
		cfg.Topology = omcast.SmallTopology()
		cfg.Warmup = 5 * time.Minute
		cfg.Measure = 5 * time.Minute
	}
	return cfg
}

// scaleRuns is how many runs each scale point takes; each machine observable
// is their median, so one stalled run cannot set it.
const scaleRuns = 3

// RunScale executes scaleRuns runs per size and assembles the scale points.
// progress, when non-nil, receives one line per completed point.
func RunScale(sizes []int, quick bool, progress func(format string, args ...any)) ([]ScalePoint, error) {
	points := make([]ScalePoint, 0, len(sizes))
	for _, m := range sizes {
		results := make([]omcast.ScaleResult, scaleRuns)
		for i := range results {
			res, err := omcast.RunScale(scaleConfig(m, quick))
			if err != nil {
				return nil, fmt.Errorf("bench: scale run at M=%d: %w", m, err)
			}
			if i > 0 && (res.Events != results[0].Events || res.AvgSize != results[0].AvgSize) {
				return nil, fmt.Errorf("bench: scale runs at M=%d diverged: %d events, then %d", m, results[0].Events, res.Events)
			}
			results[i] = res
		}
		p := ScalePoint{
			Members:           m,
			Runs:              scaleRuns,
			AvgSize:           results[0].AvgSize,
			Events:            results[0].Events,
			WallNs:            median(results, func(r omcast.ScaleResult) int64 { return r.WallNs }),
			NsPerEvent:        median(results, func(r omcast.ScaleResult) float64 { return r.NsPerEvent }),
			HeapBytes:         median(results, func(r omcast.ScaleResult) uint64 { return r.HeapBytes }),
			BytesPerMember:    median(results, func(r omcast.ScaleResult) float64 { return r.BytesPerMember }),
			AllocBytes:        median(results, func(r omcast.ScaleResult) uint64 { return r.AllocBytes }),
			Mallocs:           median(results, func(r omcast.ScaleResult) uint64 { return r.Mallocs }),
			MallocsPerArrival: median(results, func(r omcast.ScaleResult) float64 { return r.MallocsPerArrival }),
			AvgDisruptions:    results[0].AvgDisruptions,
		}
		points = append(points, p)
		if progress != nil {
			progress("scale M=%-8d events=%-10d %7.1f ns/event %8.0f B/member %8.1f MB allocated %6.2f objects/arrival disruptions=%.2f",
				p.Members, p.Events, p.NsPerEvent, p.BytesPerMember, float64(p.AllocBytes)/1e6, p.MallocsPerArrival, p.AvgDisruptions)
		}
	}
	return points, nil
}

// median returns the median of field over results; for an even count, the
// lower of the two middle values, so it is always a value one run measured.
func median[T int64 | uint64 | float64](results []omcast.ScaleResult, field func(omcast.ScaleResult) T) T {
	vals := make([]T, len(results))
	for i, r := range results {
		vals[i] = field(r)
	}
	slices.Sort(vals)
	return vals[(len(vals)-1)/2]
}
