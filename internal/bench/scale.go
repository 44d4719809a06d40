package bench

import (
	"fmt"
	"time"

	"omcast"
)

// ScalePoint is one fig-scale measurement: a single ROST run at one member
// count, reporting the deterministic event count alongside the machine
// observables the experiment family tracks — retained heap bytes per member,
// bytes allocated over the whole run (garbage included: a per-event cost that
// scales with M shows here long before it shows in the retained heap) and
// wall-clock nanoseconds per event. `omcast bench` writes the points to
// BENCH_scale.json.
type ScalePoint struct {
	Members        int     `json:"members"`
	AvgSize        float64 `json:"avg_size"`
	Events         uint64  `json:"events"`
	WallNs         int64   `json:"wall_ns"`
	NsPerEvent     float64 `json:"ns_per_event"`
	HeapBytes      uint64  `json:"heap_bytes"`
	BytesPerMember float64 `json:"bytes_per_member"`
	AllocBytes     uint64  `json:"alloc_bytes"`
	AvgDisruptions float64 `json:"avg_disruptions"`
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

// RunScale executes one run per size and assembles the scale points.
// progress, when non-nil, receives one line per completed point.
func RunScale(sizes []int, quick bool, progress func(format string, args ...any)) ([]ScalePoint, error) {
	points := make([]ScalePoint, 0, len(sizes))
	for _, m := range sizes {
		res, err := omcast.RunScale(scaleConfig(m, quick))
		if err != nil {
			return nil, fmt.Errorf("bench: scale run at M=%d: %w", m, err)
		}
		p := ScalePoint{
			Members:        m,
			AvgSize:        res.AvgSize,
			Events:         res.Events,
			WallNs:         res.WallNs,
			NsPerEvent:     res.NsPerEvent,
			HeapBytes:      res.HeapBytes,
			BytesPerMember: res.BytesPerMember,
			AllocBytes:     res.AllocBytes,
			AvgDisruptions: res.AvgDisruptions,
		}
		points = append(points, p)
		if progress != nil {
			progress("scale M=%-8d events=%-10d %7.1f ns/event %8.0f B/member %8.1f MB allocated disruptions=%.2f",
				p.Members, p.Events, p.NsPerEvent, p.BytesPerMember, float64(p.AllocBytes)/1e6, p.AvgDisruptions)
		}
	}
	return points, nil
}
