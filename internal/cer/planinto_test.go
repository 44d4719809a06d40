package cer

import (
	"math"
	"reflect"
	"testing"
	"time"

	"omcast/internal/xrand"
)

// The map planner below is the reference implementation PlanRecoveryInto
// and ServerPlans are tested against. It is the original per-packet planner,
// kept verbatim: a map from sequence number to arrival, the backlog gathered
// in a second pass, and the per-server detail recorded inline.

// Plan maps missing sequence numbers to their repair arrival times at the
// requester; packets absent from the map are lost.
type Plan map[int64]time.Duration

func planRecovery(ep Episode, servers []Server, detail bool) (Plan, []ServerPlan) {
	plan := make(Plan, ep.LastMissing-ep.FirstMissing+1)
	if len(servers) == 0 || ep.Rate <= 0 {
		return plan, nil
	}
	usable := servers
	if !ep.Striped {
		// Single-source baseline: the request walks the list until a node
		// with spare bandwidth answers; only that node's residual bandwidth
		// is used.
		usable = nil
		for _, s := range servers {
			if s.Epsilon > 0 {
				usable = []Server{s}
				break
			}
		}
		if len(usable) == 0 {
			return plan, nil
		}
	}
	// Striped ranges over [0,1) of the (n mod 100)/100 space.
	type slice struct {
		lo, hi float64
		srv    Server
	}
	var slices []slice
	cum := 0.0
	for _, s := range usable {
		if cum >= 1 || s.Epsilon <= 0 {
			continue
		}
		hi := math.Min(1, cum+s.Epsilon)
		slices = append(slices, slice{lo: cum, hi: hi, srv: s})
		cum = hi
	}
	var det []ServerPlan
	if detail {
		det = make([]ServerPlan, len(slices))
		for i := range slices {
			det[i] = ServerPlan{Server: slices[i].srv, Phase: "striped"}
		}
	}
	record := func(sp *ServerPlan, at time.Duration) {
		if sp.Packets == 0 || at < sp.First {
			sp.First = at
		}
		if at > sp.Last {
			sp.Last = at
		}
		sp.Packets++
	}
	var backlog []int64
	for n := ep.FirstMissing; n <= ep.LastMissing; n++ {
		frac := float64(n%100) / 100
		covered := false
		for i, sl := range slices {
			if frac >= sl.lo && frac < sl.hi {
				at := ep.RequestAt + sl.srv.ChainDelay
				if g := ep.gen(n); g > at {
					at = g // live forwarding of not-yet-generated packets
				}
				plan[n] = at + sl.srv.Transfer
				if detail {
					record(&det[i], plan[n])
				}
				covered = true
				break
			}
		}
		if !covered {
			backlog = append(backlog, n)
		}
	}
	// Aggregate residual rate for the backlog phase.
	aggregate := 0.0
	for _, s := range usable {
		if s.Epsilon > 0 {
			aggregate += s.Epsilon
		}
	}
	if aggregate <= 0 {
		return plan, compactDetail(det)
	}
	rate := aggregate * ep.Rate // packets per second
	var back ServerPlan
	if detail {
		back = ServerPlan{Server: usable[0], Phase: "backlog"}
	}
	for k, n := range backlog {
		service := time.Duration(float64(k+1) / rate * float64(time.Second))
		plan[n] = ep.ResumeAt + service + usable[0].Transfer
		if detail {
			record(&back, plan[n])
		}
	}
	if detail && back.Packets > 0 {
		det = append(det, back)
	}
	return plan, compactDetail(det)
}

// compactDetail drops servers whose slice covered no packets (an episode
// narrower than the stripe layout).
func compactDetail(det []ServerPlan) []ServerPlan {
	if det == nil {
		return nil
	}
	out := det[:0]
	for _, d := range det {
		if d.Packets > 0 {
			out = append(out, d)
		}
	}
	return out
}

// TestPlanRecoveryIntoMatchesPlanRecovery pins the dense planner to the map
// planner over randomized episodes and server groups: every packet either
// appears in both with the same arrival time or in neither (Lost), and the
// per-server breakdown ServerPlans derives from the dense arrivals equals
// the detail the map planner records inline.
func TestPlanRecoveryIntoMatchesPlanRecovery(t *testing.T) {
	rng := xrand.New(21)
	tree, _ := buildTree(t, 1, 1)
	var buf []time.Duration // reused across trials, as stream.Model does
	for trial := 0; trial < 400; trial++ {
		rate := 10.0
		first := int64(rng.Intn(5000))
		last := first + int64(rng.Intn(300)) - 1 // empty episodes included
		failedAt := time.Duration(first) * time.Second / 10
		ep := Episode{
			FirstMissing: first,
			LastMissing:  last,
			RequestAt:    failedAt + 5*time.Second,
			ResumeAt:     failedAt + 15*time.Second,
			Rate:         rate,
			Striped:      rng.Intn(2) == 0,
		}
		var servers []Server
		for i := rng.Intn(5); i > 0; i-- {
			servers = append(servers, Server{
				Member:     tree.Root(),
				Epsilon:    float64(rng.Intn(10)) / rate, // zero-epsilon servers included
				ChainDelay: time.Duration(rng.Intn(50)) * time.Millisecond,
				Transfer:   time.Duration(rng.Intn(50)) * time.Millisecond,
			})
		}
		want, wantDetail := planRecovery(ep, servers, true)
		got := PlanRecoveryInto(ep, servers, buf)
		buf = got
		if gotDetail := ServerPlans(ep, servers, got); len(gotDetail) != len(wantDetail) ||
			(len(wantDetail) > 0 && !reflect.DeepEqual(gotDetail, wantDetail)) {
			t.Fatalf("trial %d: per-server detail diverges:\n dense %+v\n map   %+v", trial, gotDetail, wantDetail)
		}
		wantLen := int(last - first + 1)
		if wantLen < 0 {
			wantLen = 0
		}
		if len(got) != wantLen {
			t.Fatalf("trial %d: dense plan has %d entries, want %d", trial, len(got), wantLen)
		}
		for n := first; n <= last; n++ {
			at, ok := want[n]
			dense := got[n-first]
			switch {
			case ok && dense == Lost:
				t.Fatalf("trial %d: packet %d repaired at %v in map plan, Lost in dense plan", trial, n, at)
			case !ok && dense != Lost:
				t.Fatalf("trial %d: packet %d Lost in map plan, repaired at %v in dense plan", trial, n, dense)
			case ok && dense != at:
				t.Fatalf("trial %d: packet %d arrival %v (map) vs %v (dense)", trial, n, at, dense)
			}
		}
	}
}
