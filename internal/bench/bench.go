// Package bench runs the repo's tier-1 performance suite outside `go test`
// and serialises the results as a BENCH report, seeding the performance
// trajectory the ROADMAP calls for: cmd/omcast-bench writes BENCH_<date>.json
// files and compares them against the previous report with a configurable
// regression threshold.
//
// The suite reuses testing.Benchmark, so the measured bodies are the same
// regimes the `go test -bench` suite pins: the event kernel's steady state,
// dense drains, cancel churn, membership sampling (on a standing and on a
// growing tree), relaxed-ordered joins, recovery-group selection,
// delay-oracle lookups, and one reduced figure regeneration as an end-to-end
// composite. Headline figure metrics (the per-algorithm disruption averages
// of a reduced Figure 4) ride along in the report so a perf change that
// shifts simulation output is visible in the same artifact.
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"testing"
	"time"

	"omcast/internal/cer"
	"omcast/internal/construct"
	"omcast/internal/eventsim"
	"omcast/internal/experiments"
	"omcast/internal/fleet"
	"omcast/internal/node"
	"omcast/internal/overlay"
	"omcast/internal/stream"
	"omcast/internal/topology"
	"omcast/internal/tracing"
	"omcast/internal/wire"
	"omcast/internal/xrand"
)

// Case is one named benchmark of the suite.
type Case struct {
	Name  string
	Bench func(b *testing.B)
}

// Suite returns the tier-1 cases. quick shrinks the heavyweight bodies so a
// CI smoke pass stays under a minute.
func Suite(quick bool) []Case {
	dense := 500_000
	if quick {
		dense = 100_000
	}
	return []Case{
		{Name: "eventsim/schedule-fire", Bench: benchScheduleFire},
		{Name: "eventsim/run-dense", Bench: benchRunDense(dense)},
		{Name: "eventsim/cancel-churn", Bench: benchCancelChurn},
		{Name: "overlay/sample-100", Bench: benchSample},
		{Name: "overlay/sample-growing", Bench: benchSampleGrowing},
		{Name: "overlay/attach-detach-dense", Bench: benchAttachDetachDense},
		{Name: "construct/relaxed-join", Bench: benchRelaxedJoin},
		{Name: "stream/interval-account", Bench: benchIntervalAccount},
		{Name: "cer/mlc-select", Bench: benchMLCSelect},
		{Name: "topology/delay", Bench: benchDelay},
		{Name: "tracing/span-emit", Bench: benchSpanEmit},
		{Name: "fleet/assign", Bench: benchFleetAssign},
		{Name: "wire/encode-binary", Bench: benchWireEncode},
		{Name: "wire/decode-binary", Bench: benchWireDecode},
		{Name: "node/attach-retx", Bench: benchAttachRetx},
		{Name: "experiments/fig11-tiny", Bench: benchFig11Tiny},
	}
}

// benchScheduleFire is the kernel steady state: one schedule plus one fire
// per iteration over a 10k standing queue (zero allocations with the pool).
func benchScheduleFire(b *testing.B) {
	sim := eventsim.New()
	for i := 0; i < 10000; i++ {
		sim.Schedule(time.Duration(i)*time.Millisecond, func(*eventsim.Simulator) {})
	}
	at := 10 * time.Second
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Schedule(at, func(*eventsim.Simulator) {})
		at += time.Millisecond
		if err := sim.Run(time.Duration(i) * time.Millisecond); err != nil {
			b.Fatal(err)
		}
	}
}

func benchRunDense(events int) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sim := eventsim.New()
			for j := 0; j < events; j++ {
				sim.Schedule(time.Duration(j%1000)*time.Millisecond, func(*eventsim.Simulator) {})
			}
			if err := sim.RunAll(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func benchCancelChurn(b *testing.B) {
	sim := eventsim.New()
	at := time.Second
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := sim.Schedule(at, func(*eventsim.Simulator) {})
		at += time.Millisecond
		sim.Cancel(id)
	}
}

func benchSample(b *testing.B) {
	tree, err := overlay.NewTree(0, 100, func(a, c topology.NodeID) time.Duration { return time.Millisecond })
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		tree.NewMember(topology.NodeID(i), 0.5, time.Duration(i))
	}
	rng := xrand.New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := tree.Sample(rng, 100, nil); len(got) != 100 {
			b.Fatal("short sample")
		}
	}
}

// benchSampleGrowing is the seeding regime sample-100 cannot see: the tree
// grows by one member between Sample calls, as it does while a run
// pre-populates, so any scratch sized to the exact membership is re-made on
// every join. One op seeds 10 000 members.
func benchSampleGrowing(b *testing.B) {
	rng := xrand.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tree, err := overlay.NewTree(0, 100, func(a, c topology.NodeID) time.Duration { return time.Millisecond })
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 10000; j++ {
			m := tree.NewMember(topology.NodeID(j), 0.5, time.Duration(j))
			if got := tree.Sample(rng, 100, m); j > 100 && len(got) != 100 {
				b.Fatal("short sample")
			}
		}
	}
}

// benchMLCSelect is one recovery-group selection (Algorithm 1 at the default
// knowledge bound, groups of 3) for a leaf of a 2 000-member tree with mixed
// fanout: the per-episode cost of a streaming run.
func benchMLCSelect(b *testing.B) {
	delay := func(a, c topology.NodeID) time.Duration { return time.Duration(a^c) * time.Millisecond }
	tree, err := overlay.NewTree(0, 100, delay)
	if err != nil {
		b.Fatal(err)
	}
	rng := xrand.New(1)
	bw := xrand.BoundedPareto{Shape: 1.2, Lo: 0.5, Hi: 100}
	var self *overlay.Member
	for i := 0; i < 2000; i++ {
		m := tree.NewMember(topology.NodeID(i+1), bw.Sample(rng), time.Duration(i)*time.Second)
		parent := tree.Root()
		for _, c := range tree.Sample(rng, 30, m) {
			if c.Attached() && c.HasSpare() {
				parent = c
				break
			}
		}
		if !parent.HasSpare() {
			continue
		}
		if err := tree.Attach(m, parent); err != nil {
			b.Fatal(err)
		}
		self = m
	}
	sel := &cer.MLCSelector{Tree: tree, Rng: xrand.New(2), Delay: delay}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g := sel.Select(self, 3); len(g) != 3 {
			b.Fatal("short group")
		}
	}
}

// benchSpanEmit is the tracing hot path: open an episode, annotate it, end
// a child stage and the episode itself — the per-repair cost the streaming
// layer pays when span tracing is enabled (the disabled path is pinned to
// zero allocations by the tracing package's own AllocsPerRun test).
func benchSpanEmit(b *testing.B) {
	sink := tracing.RecorderFunc(func(tracing.Span) {})
	tr := tracing.New(1, sink)
	at := time.Duration(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := tr.Start(tracing.KindRepair, int64(i%128), at).AttrInt("first", int64(i))
		sp.Child(tracing.KindFetch, int64(i%128), at).End(at+time.Second, "striped")
		sp.End(at+2*time.Second, "filled")
		at += time.Millisecond
	}
}

// benchAttachDetachDense exercises the struct-of-arrays mutation path: leaf
// detach/re-attach cycles (intrusive child-list surgery plus level-index
// maintenance) with a periodic remove/new-member pair driving the dense-ID
// free list. The overlay package's AllocsPerRun tests pin the zero-alloc
// contract; this case keeps the per-mutation latency on the trend line.
func benchAttachDetachDense(b *testing.B) {
	tree, err := overlay.NewTree(0, 1_000_000, func(a, c topology.NodeID) time.Duration { return time.Millisecond })
	if err != nil {
		b.Fatal(err)
	}
	const nParents, nLeaves = 2000, 1000
	parents := make([]*overlay.Member, 0, nParents)
	for i := 0; i < nParents; i++ {
		m := tree.NewMember(topology.NodeID(i), 8, time.Duration(i))
		if err := tree.Attach(m, tree.Root()); err != nil {
			b.Fatal(err)
		}
		parents = append(parents, m)
	}
	leaves := make([]*overlay.Member, 0, nLeaves)
	for i := 0; i < nLeaves; i++ {
		m := tree.NewMember(topology.NodeID(nParents+i), 1, time.Duration(i))
		if err := tree.Attach(m, parents[i%nParents]); err != nil {
			b.Fatal(err)
		}
		leaves = append(leaves, m)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := leaves[i%nLeaves]
		if err := tree.Detach(l); err != nil {
			b.Fatal(err)
		}
		if err := tree.Attach(l, parents[(i*7)%nParents]); err != nil {
			b.Fatal(err)
		}
		if i%16 == 0 {
			// Free-list churn: retire the leaf's slot and mint a fresh one.
			if _, err := tree.Remove(l); err != nil {
				b.Fatal(err)
			}
			m := tree.NewMember(topology.NodeID(nParents+i%nLeaves), 1, time.Duration(i))
			if err := tree.Attach(m, parents[(i*7)%nParents]); err != nil {
				b.Fatal(err)
			}
			leaves[i%nLeaves] = m
		}
	}
}

// benchRelaxedJoin is the relaxed bandwidth-ordered algorithm in steady state
// on a 5 000-member tree: one op is an arrival, whose join evicts its way down
// the layers, and the departure of the longest-standing member with its
// orphans rejoining. It is the per-event cost of the centralized baselines,
// read off the tree's level index (attach-detach-dense is the same overlay
// with the index off).
func benchRelaxedJoin(b *testing.B) {
	delay := func(a, c topology.NodeID) time.Duration { return time.Duration(a^c) * time.Microsecond }
	tree, err := overlay.NewTree(0, 100, delay)
	if err != nil {
		b.Fatal(err)
	}
	rng := xrand.New(1)
	bw := xrand.BoundedPareto{Shape: 1.2, Lo: 0.5, Hi: 100}
	s := construct.NewRelaxedBandwidthOrdered(&construct.Env{Rng: rng, Delay: delay})
	const members = 5000
	var now time.Duration
	arrive := func() *overlay.Member {
		now += time.Second
		m := tree.NewMember(topology.NodeID(1+rng.Intn(4096)), bw.Sample(rng), now)
		if err := s.Join(tree, m, now); err != nil {
			b.Fatal(err)
		}
		return m
	}
	ring := make([]*overlay.Member, members) // ring[i%members] is the oldest
	for i := range ring {
		ring[i] = arrive()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oldest := ring[i%members]
		ring[i%members] = arrive()
		orphans, err := tree.Remove(oldest)
		if err != nil {
			b.Fatal(err)
		}
		for _, o := range orphans {
			if err := s.Join(tree, o, now); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchSelector returns a canned recovery group (the selection algorithms
// have their own cer benchmarks; this case times the accounting).
type benchSelector struct{ group []*overlay.Member }

func (s *benchSelector) Select(*overlay.Member, int) []*overlay.Member { return s.group }

// benchIntervalAccount is the episode hot path of the streaming model: one
// failure of a 64-child relay, fanning 64 recovery episodes over ~128
// members through the interval accounting (dense plan, sorted slacks, binary
// search, watermark sealing) — the per-failure cost the fig-scale runs pay.
func benchIntervalAccount(b *testing.B) {
	delay := func(a, c topology.NodeID) time.Duration {
		if a == c {
			return 0
		}
		return time.Millisecond
	}
	tree, err := overlay.NewTree(0, 1000, delay)
	if err != nil {
		b.Fatal(err)
	}
	attach := topology.NodeID(1)
	mk := func(parent *overlay.Member, bw float64) *overlay.Member {
		m := tree.NewMember(attach, bw, 0)
		attach++
		if err := tree.Attach(m, parent); err != nil {
			b.Fatal(err)
		}
		return m
	}
	relay := mk(tree.Root(), 200)
	for i := 0; i < 64; i++ {
		mk(mk(relay, 4), 2)
	}
	sel := &benchSelector{}
	for i := 0; i < 3; i++ {
		sel.group = append(sel.group, mk(tree.Root(), 2))
	}
	model := stream.NewModel(tree, delay, sel, xrand.New(1), stream.Config{GroupSize: 3, Striped: true})
	tree.VisitSubtree(tree.Root(), func(m *overlay.Member) {
		if m != tree.Root() {
			model.Register(m, 0)
		}
	})
	now := 100 * time.Second
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.OnFailure(relay, now)
		now += 20 * time.Second
	}
}

func benchDelay(b *testing.B) {
	cfg := topology.DefaultConfig(1)
	cfg.TransitDomains = 2
	cfg.TransitNodesPerDomain = 4
	cfg.StubDomainsPerTransit = 2
	cfg.StubNodesPerDomain = 8
	topo, err := topology.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	rng := xrand.New(2)
	n := topo.Size()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := topology.NodeID(rng.Intn(n))
		v := topology.NodeID(rng.Intn(n))
		if d := topo.Delay(u, v); d < 0 {
			b.Fatal("negative delay")
		}
	}
}

// benchFleetAssign is the federation control plane's hot path: one
// capacity-aware assignment plus the matching release against a 16-source,
// 64-tree fleet. The scan is pinned allocation-free by the fleet package's
// own AllocsPerRun test; this case keeps its latency on the trend line.
func benchFleetAssign(b *testing.B) {
	ctrl := fleet.NewController(16, 4, 32)
	// Half-load the fleet so the best-headroom scan works against a
	// non-trivial load vector rather than an all-zero one.
	for i := 0; i < 16*4*16; i++ {
		if _, ok := ctrl.Assign(); !ok {
			b.Fatal("fleet full during warmup")
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ref, ok := ctrl.Assign()
		if !ok {
			b.Fatal("fleet full")
		}
		ctrl.Release(ref)
	}
}

// benchEnvelope is the wire benchmark workload: a stream packet with a
// 256-byte payload — the by-volume hot path of a live overlay, and the shape
// where the zero-copy payload decode matters most.
func benchEnvelope() wire.Envelope {
	payload := make([]byte, 256)
	for i := range payload {
		payload[i] = byte(i)
	}
	return wire.Envelope{Type: wire.TypePacket, From: "10.0.0.1:7000", Packet: 123456, Payload: payload}
}

func benchWireEncode(b *testing.B) {
	env := benchEnvelope()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wire.EncodeBinary(env); err != nil {
			b.Fatal(err)
		}
	}
}

func benchWireDecode(b *testing.B) {
	data, err := wire.EncodeBinary(benchEnvelope())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wire.DecodeBinary(data); err != nil {
			b.Fatal(err)
		}
	}
}

// benchAttachRetx is the control-plane composite: one member boots against a
// standing source, completes the join/accept exchange through the retransmit
// shim (sequence, ack, dedup bookkeeping), then leaves gracefully — the
// attach round-trip cost a live overlay pays per arriving viewer.
func benchAttachRetx(b *testing.B) {
	network := node.NewMemNetwork(nil)
	defer network.Close()
	// The accelerated timing profile: attach latency is dominated by one
	// backoff step scaled by the heartbeat interval (the first join attempt
	// only fetches membership), so slow timers would measure the config, not
	// the control path.
	srcCfg := node.Config{
		Source:            true,
		Bandwidth:         4,
		StreamRate:        1, // quiet data plane: the bench times control traffic
		HeartbeatInterval: 10 * time.Millisecond,
		GossipInterval:    25 * time.Millisecond,
	}
	srcEp, err := network.Endpoint("source")
	if err != nil {
		b.Fatal(err)
	}
	src := node.New(srcCfg, srcEp)
	src.Start()
	defer src.Kill()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := node.Config{
			Bandwidth:         3,
			Bootstrap:         []wire.Addr{"source"},
			HeartbeatInterval: 10 * time.Millisecond,
			GossipInterval:    25 * time.Millisecond,
		}
		ep, err := network.Endpoint(wire.Addr(fmt.Sprintf("m%d", i)))
		if err != nil {
			b.Fatal(err)
		}
		nd := node.New(cfg, ep)
		nd.Start()
		for !nd.Stats().Attached {
			runtime.Gosched()
		}
		nd.Stop() // graceful leave frees the slot for the next iteration
	}
}

// tinyFigureOptions is the smallest configuration that still drives a full
// churn/stream pipeline end to end.
func tinyFigureOptions() experiments.Options {
	return experiments.Options{Seed: 1, Quick: true, Sizes: []int{300}, Size: 300}
}

func benchFig11Tiny(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.NewRunner(tinyFigureOptions()).Run("fig11"); err != nil {
			b.Fatal(err)
		}
	}
}

// Result is one measured case.
type Result struct {
	Name        string  `json:"name"`
	N           int     `json:"n"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// Report is one BENCH_*.json artifact.
type Report struct {
	// Date is caller-supplied (the package itself reads no clock).
	Date      string   `json:"date"`
	GoVersion string   `json:"go_version"`
	GOOS      string   `json:"goos"`
	GOARCH    string   `json:"goarch"`
	MaxProcs  int      `json:"maxprocs"`
	Quick     bool     `json:"quick"`
	Results   []Result `json:"results"`
	// Headline carries simulation-output scalars (per-algorithm Figure 4
	// disruption averages at reduced scale) so output drift and perf drift
	// land in the same artifact.
	Headline map[string]float64 `json:"headline,omitempty"`
	// Analyzer carries the static-analyzer statistics (per-rule finding and
	// suppression counts plus analysis wall time, the omcast-lint -stats
	// surface) so analyzer cost and tree health trend alongside the perf
	// numbers. Populated by cmd/omcast-bench; Compare ignores it.
	Analyzer map[string]float64 `json:"analyzer,omitempty"`
	// Scale carries the fig-scale sweep (bytes/member and ns/event per
	// member count). Populated by cmd/omcast-bench -scale; Compare ignores
	// it.
	Scale []ScalePoint `json:"scale,omitempty"`
}

// Run executes the cases with testing.Benchmark and assembles a report.
// progress, when non-nil, receives one line per completed case.
func Run(date string, quick bool, progress func(format string, args ...any)) (Report, error) {
	rep := Report{
		Date:      date,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		MaxProcs:  runtime.GOMAXPROCS(0),
		Quick:     quick,
	}
	for _, c := range Suite(quick) {
		r := testing.Benchmark(c.Bench)
		res := Result{
			Name:        c.Name,
			N:           r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		rep.Results = append(rep.Results, res)
		if progress != nil {
			progress("%-26s %12.1f ns/op %8d B/op %6d allocs/op", res.Name, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp)
		}
	}
	head, err := headline()
	if err != nil {
		return Report{}, fmt.Errorf("bench: headline figure: %w", err)
	}
	rep.Headline = head
	return rep, nil
}

// headline regenerates a reduced Figure 4 and records one scalar per
// algorithm: the average disruptions at the single sweep size.
func headline() (map[string]float64, error) {
	tab, err := experiments.NewRunner(tinyFigureOptions()).Run("fig4")
	if err != nil {
		return nil, err
	}
	if len(tab.Rows) == 0 {
		return nil, fmt.Errorf("fig4 produced no rows")
	}
	out := make(map[string]float64, len(tab.Header)-1)
	row := tab.Rows[0]
	for c := 1; c < len(tab.Header) && c < len(row); c++ {
		v, err := strconv.ParseFloat(row[c], 64)
		if err != nil {
			return nil, fmt.Errorf("fig4 cell %q: %w", row[c], err)
		}
		out["fig4/"+tab.Header[c]] = v
	}
	return out, nil
}

// WriteFile serialises the report as indented JSON.
func (r Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadReport loads a previously written report.
func ReadReport(path string) (Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Report{}, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return Report{}, fmt.Errorf("bench: parsing %s: %w", path, err)
	}
	return r, nil
}

// Delta is one case compared across two reports.
type Delta struct {
	Name      string
	PrevNs    float64
	CurNs     float64
	Ratio     float64 // CurNs / PrevNs
	PrevAlloc int64
	CurAlloc  int64
	Regressed bool
}

// Compare matches cases by name and flags every case whose ns/op grew by
// more than threshold (0.25 = +25%). Cases present in only one report are
// skipped: suite membership may change across commits, and a comparison
// should not punish adding coverage. It returns the deltas in name order and
// whether any case regressed.
func Compare(prev, cur Report, threshold float64) ([]Delta, bool) {
	prevByName := make(map[string]Result, len(prev.Results))
	for _, r := range prev.Results {
		prevByName[r.Name] = r
	}
	var deltas []Delta
	regressed := false
	for _, c := range cur.Results {
		p, ok := prevByName[c.Name]
		if !ok || p.NsPerOp <= 0 {
			continue
		}
		d := Delta{
			Name:      c.Name,
			PrevNs:    p.NsPerOp,
			CurNs:     c.NsPerOp,
			Ratio:     c.NsPerOp / p.NsPerOp,
			PrevAlloc: p.AllocsPerOp,
			CurAlloc:  c.AllocsPerOp,
		}
		d.Regressed = d.Ratio > 1+threshold
		if d.Regressed {
			regressed = true
		}
		deltas = append(deltas, d)
	}
	sort.Slice(deltas, func(i, j int) bool { return deltas[i].Name < deltas[j].Name })
	return deltas, regressed
}
