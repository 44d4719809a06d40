package stream

import (
	"math"
	"testing"
	"time"

	"omcast/internal/cer"
	"omcast/internal/overlay"
	"omcast/internal/topology"
	"omcast/internal/xrand"
)

func delayFn(a, b topology.NodeID) time.Duration {
	if a == b {
		return 0
	}
	return time.Millisecond
}

// fixedSelector returns a canned recovery group.
type fixedSelector struct {
	group []*overlay.Member
}

func (s *fixedSelector) Select(*overlay.Member, int) []*overlay.Member { return s.group }

var _ cer.Selector = (*fixedSelector)(nil)

// world is a hand-built overlay for stream tests: root -> relay -> victim
// subtree, plus spare members usable as recovery nodes.
type world struct {
	tree     *overlay.Tree
	relay    *overlay.Member // fails in tests
	orphan   *overlay.Member // relay's child; runs recovery
	deep     *overlay.Member // orphan's child; relies on ELN
	helpers  []*overlay.Member
	selector *fixedSelector
}

func buildWorld(t *testing.T, nHelpers int) *world {
	t.Helper()
	tree, err := overlay.NewTree(0, 100, delayFn)
	if err != nil {
		t.Fatal(err)
	}
	w := &world{tree: tree, selector: &fixedSelector{}}
	attach := topology.NodeID(1)
	mk := func(parent *overlay.Member, bw float64) *overlay.Member {
		m := tree.NewMember(attach, bw, 0)
		attach++
		if err := tree.Attach(m.Slot(), parent.Slot()); err != nil {
			t.Fatal(err)
		}
		return m
	}
	w.relay = mk(tree.Root(), 4)
	w.orphan = mk(w.relay, 4)
	w.deep = mk(w.orphan, 2)
	for i := 0; i < nHelpers; i++ {
		w.helpers = append(w.helpers, mk(tree.Root(), 2))
	}
	w.selector.group = w.helpers
	return w
}

// newModel builds the model and registers every member at time zero.
func newModel(t *testing.T, w *world, cfg Config) *Model {
	t.Helper()
	m := NewModel(w.tree, delayFn, w.selector, xrand.New(1), cfg)
	w.tree.VisitSubtree(w.tree.Root(), func(mem *overlay.Member) {
		if mem != w.tree.Root() {
			m.Register(mem, 0)
		}
	})
	return m
}

// setResidual overrides a member's recovery bandwidth (pkt/s).
func setResidual(m *Model, id overlay.MemberID, pktPerSec float64) {
	m.stateOf(id).residual = pktPerSec
}

func TestDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Buffer != DefaultBuffer || cfg.GroupSize != 1 {
		t.Fatalf("defaults wrong: %+v", cfg)
	}
}

func TestNoFailureNoStarving(t *testing.T) {
	w := buildWorld(t, 2)
	m := newModel(t, w, Config{})
	m.Finish(1000 * time.Second)
	res := m.Result()
	if res.AvgStarvingRatio != 0 {
		t.Fatalf("starving ratio %g with no failures", res.AvgStarvingRatio)
	}
	if res.Members == 0 {
		t.Fatal("no members finalised")
	}
}

func TestShortViewersExcluded(t *testing.T) {
	w := buildWorld(t, 1)
	m := newModel(t, w, Config{})
	m.Register(w.tree.NewMember(99, 1, 999*time.Second), 999*time.Second)
	m.Finish(1000 * time.Second) // 1 s view time < MinViewTime
	for _, r := range m.Result().Ratios {
		if r != 0 {
			t.Fatal("short viewer contributed a ratio")
		}
	}
}

// TestTotalLossWithoutRecovery: no recovery group at all -> the whole 15 s
// outage starves (view 1000 s, ratio 1.5%).
func TestTotalLossWithoutRecovery(t *testing.T) {
	w := buildWorld(t, 0) // no helpers: selector returns nothing
	m := newModel(t, w, Config{})
	m.OnFailure(w.relay, 500*time.Second)
	m.Depart(w.orphan.ID, 1000*time.Second)
	res := m.Result()
	if res.Members != 1 {
		t.Fatalf("members = %d, want 1", res.Members)
	}
	want := 15.0 / 1000.0
	if math.Abs(res.AvgStarvingRatio-want) > 0.001 {
		t.Fatalf("ratio = %g, want ~%g", res.AvgStarvingRatio, want)
	}
	if m.PacketsLost == 0 || m.PacketsRepaired != 0 {
		t.Fatalf("lost=%d repaired=%d", m.PacketsLost, m.PacketsRepaired)
	}
}

// TestFullRecovery: a group covering the full stream rate repairs nearly
// everything; only packets whose deadline passes before detection can
// starve.
func TestFullRecovery(t *testing.T) {
	w := buildWorld(t, 2)
	m := newModel(t, w, Config{GroupSize: 2, Striped: true})
	setResidual(m, w.helpers[0].ID, 6)
	setResidual(m, w.helpers[1].ID, 6)
	m.OnFailure(w.relay, 500*time.Second)
	m.Depart(w.orphan.ID, 1000*time.Second)
	res := m.Result()
	// Detection takes 5 s and the buffer is 5 s: only the few packets whose
	// playback deadline lands within the request latency can starve.
	if res.AvgStarvingRatio > 0.001 {
		t.Fatalf("ratio = %g with full-rate recovery", res.AvgStarvingRatio)
	}
	if m.PacketsRepaired < 140 {
		t.Fatalf("repaired = %d, want ~150", m.PacketsRepaired)
	}
}

// TestPartialRecoveryScales: starving decreases as the recovery group's
// aggregate bandwidth rises.
func TestPartialRecoveryScales(t *testing.T) {
	ratioWith := func(res1, res2 float64) float64 {
		w := buildWorld(t, 2)
		m := newModel(t, w, Config{GroupSize: 2, Striped: true})
		setResidual(m, w.helpers[0].ID, res1)
		setResidual(m, w.helpers[1].ID, res2)
		m.OnFailure(w.relay, 500*time.Second)
		m.Depart(w.orphan.ID, 1000*time.Second)
		return m.Result().AvgStarvingRatio
	}
	weak := ratioWith(2, 0)
	medium := ratioWith(2, 3)
	strong := ratioWith(5, 5)
	if !(weak > medium && medium > strong) {
		t.Fatalf("ratios not monotone: weak=%g medium=%g strong=%g", weak, medium, strong)
	}
}

// TestBufferEffect reproduces the Figure 13 mechanism: with partial
// bandwidth, a larger buffer lets the post-rejoin backlog drain in time.
func TestBufferEffect(t *testing.T) {
	ratioWith := func(buffer time.Duration) float64 {
		w := buildWorld(t, 1)
		m := newModel(t, w, Config{GroupSize: 1, Striped: true, Buffer: buffer})
		setResidual(m, w.helpers[0].ID, 5)
		m.OnFailure(w.relay, 500*time.Second)
		m.Depart(w.orphan.ID, 1000*time.Second)
		return m.Result().AvgStarvingRatio
	}
	small := ratioWith(5 * time.Second)
	large := ratioWith(30 * time.Second)
	if large >= small {
		t.Fatalf("buffer 30s ratio %g not below buffer 5s ratio %g", large, small)
	}
	if large > 0.0005 {
		t.Fatalf("with a 30 s buffer and 5 pkt/s residual the backlog should drain (ratio %g)", large)
	}
}

// TestStripedBeatsSingleSource: same group, same bandwidths; striping
// aggregates where the baseline uses one node.
func TestStripedBeatsSingleSource(t *testing.T) {
	run := func(striped bool) float64 {
		w := buildWorld(t, 3)
		m := newModel(t, w, Config{GroupSize: 3, Striped: striped})
		for _, h := range w.helpers {
			setResidual(m, h.ID, 4)
		}
		m.OnFailure(w.relay, 500*time.Second)
		m.Depart(w.orphan.ID, 1000*time.Second)
		return m.Result().AvgStarvingRatio
	}
	if s, b := run(true), run(false); s >= b {
		t.Fatalf("striped ratio %g not below single-source %g", s, b)
	}
}

// TestELNSubtreeInheritsOutcome: the deep descendant neither issues its own
// request nor escapes the starving; it inherits the orphan's outcome.
func TestELNSubtreeInheritsOutcome(t *testing.T) {
	w := buildWorld(t, 0)
	m := newModel(t, w, Config{})
	m.OnFailure(w.relay, 500*time.Second)
	if m.RepairRequests != 1 {
		t.Fatalf("repair requests = %d, want 1 (orphan only)", m.RepairRequests)
	}
	if m.ELNMessages == 0 {
		t.Fatal("no ELN messages down the subtree")
	}
	m.Depart(w.orphan.ID, 1000*time.Second)
	m.Depart(w.deep.ID, 1000*time.Second)
	rs := m.Result().Ratios
	if len(rs) != 2 {
		t.Fatalf("ratios = %d, want 2", len(rs))
	}
	if math.Abs(rs[0]-rs[1]) > 0.001 {
		t.Fatalf("descendant outcome %g diverges from orphan %g", rs[1], rs[0])
	}
}

// TestOverlappingEpisodesNotDoubleCounted: two failures 5 s apart hit the
// same subtree; the shared missing range must be charged once.
func TestOverlappingEpisodesNotDoubleCounted(t *testing.T) {
	w := buildWorld(t, 0)
	m := newModel(t, w, Config{})
	// First failure disrupts [500, 515); second (the orphan's new parent
	// failing immediately, approximated by hitting relay again via a fresh
	// failure of the same subtree's parent) disrupts [505, 520).
	m.OnFailure(w.relay, 500*time.Second)
	m.OnFailure(w.relay, 505*time.Second)
	m.Depart(w.orphan.ID, 1000*time.Second)
	res := m.Result()
	// Union of the windows is [500, 520) = 20 s, not 30 s.
	want := 20.0 / 1000.0
	if math.Abs(res.AvgStarvingRatio-want) > 0.001 {
		t.Fatalf("ratio = %g, want ~%g (no double counting)", res.AvgStarvingRatio, want)
	}
}

// TestDisruptedServerCannotHelp: a recovery node inside its own outage is
// skipped.
func TestDisruptedServerCannotHelp(t *testing.T) {
	w := buildWorld(t, 1)
	m := newModel(t, w, Config{GroupSize: 1, Striped: true})
	setResidual(m, w.helpers[0].ID, 9)
	// Put the helper itself in an outage overlapping the request.
	m.stateOf(w.helpers[0].ID).outageUntil = 520 * time.Second
	m.OnFailure(w.relay, 500*time.Second)
	m.Depart(w.orphan.ID, 1000*time.Second)
	res := m.Result()
	want := 15.0 / 1000.0 // total loss despite the nominal helper
	if math.Abs(res.AvgStarvingRatio-want) > 0.001 {
		t.Fatalf("ratio = %g, want ~%g", res.AvgStarvingRatio, want)
	}
}

// TestConcurrentSiblingOutage: when a failed node has two orphan subtrees,
// members of one cannot serve as recovery nodes for the other (phase-1
// marking precedes planning).
func TestConcurrentSiblingOutage(t *testing.T) {
	tree, err := overlay.NewTree(0, 100, delayFn)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(parent *overlay.Member, attach topology.NodeID) *overlay.Member {
		mem := tree.NewMember(attach, 4, 0)
		if err := tree.Attach(mem.Slot(), parent.Slot()); err != nil {
			t.Fatal(err)
		}
		return mem
	}
	relay := mk(tree.Root(), 1)
	orphanA := mk(relay, 2)
	orphanB := mk(relay, 3)
	sel := &fixedSelector{group: []*overlay.Member{orphanB}} // cross-sibling helper
	m := NewModel(tree, delayFn, sel, xrand.New(1), Config{GroupSize: 1, Striped: true})
	for _, mem := range []*overlay.Member{relay, orphanA, orphanB} {
		m.Register(mem, 0)
	}
	setResidual(m, orphanB.ID, 9)
	m.OnFailure(relay, 500*time.Second)
	m.Depart(orphanA.ID, 1000*time.Second)
	res := m.Result()
	want := 15.0 / 1000.0 // sibling was down too: no repair at all
	if math.Abs(res.AvgStarvingRatio-want) > 0.001 {
		t.Fatalf("ratio = %g, want ~%g", res.AvgStarvingRatio, want)
	}
}

func TestMeasureFromFiltersWarmup(t *testing.T) {
	w := buildWorld(t, 0)
	m := newModel(t, w, Config{MeasureFrom: 2000 * time.Second})
	m.OnFailure(w.relay, 500*time.Second)
	m.Depart(w.orphan.ID, 1000*time.Second) // finalised before MeasureFrom
	if n := m.Result().Members; n != 0 {
		t.Fatalf("members = %d, want 0 before MeasureFrom", n)
	}
	m.Finish(3000 * time.Second)
	if n := m.Result().Members; n == 0 {
		t.Fatal("survivors past MeasureFrom not finalised")
	}
}

func TestLateJoinerSkipsEpisode(t *testing.T) {
	w := buildWorld(t, 0)
	m := newModel(t, w, Config{})
	// deep joined after the failure instant: it was still buffering and is
	// not charged.
	m.stateOf(w.deep.ID).viewStart = 501 * time.Second
	m.OnFailure(w.relay, 500*time.Second)
	m.Depart(w.deep.ID, 1000*time.Second)
	if got := m.Result().AvgStarvingRatio; got != 0 {
		t.Fatalf("late joiner charged ratio %g", got)
	}
}

func TestRegisterIdempotent(t *testing.T) {
	w := buildWorld(t, 0)
	m := newModel(t, w, Config{})
	viewStart := m.stateOf(w.orphan.ID).viewStart
	residual := m.stateOf(w.orphan.ID).residual
	m.Register(w.orphan, 700*time.Second) // rejoin after failure
	if m.stateOf(w.orphan.ID).viewStart != viewStart || m.stateOf(w.orphan.ID).residual != residual {
		t.Fatal("re-registration reset playback state")
	}
}

func TestPacketAfter(t *testing.T) {
	w := buildWorld(t, 0)
	m := newModel(t, w, Config{})
	if n := m.packetAfter(0); n != 0 {
		t.Fatalf("packetAfter(0) = %d", n)
	}
	if n := m.packetAfter(time.Second); m.gen(n) < time.Second || m.gen(n-1) >= time.Second {
		t.Fatalf("packetAfter(1s) = %d (gen %v)", n, m.gen(n))
	}
}

// TestUntracedEpisodeAllocs pins one outage episode with no tracer attached —
// the path every figure and the stream-cer benchmark run — at zero
// allocations: the orphans go into the model's scratch, spans emitted from
// the shared loop cost an untraced run nothing, and CER lays out its stripes
// in a stack array.
func TestUntracedEpisodeAllocs(t *testing.T) {
	for _, tc := range []struct {
		striped bool
		ceiling float64
	}{
		{striped: true, ceiling: 0},
		{striped: false, ceiling: 0},
	} {
		w := buildWorld(t, 3)
		m := newModel(t, w, Config{GroupSize: 3, Striped: tc.striped})
		now := 100 * time.Second
		fail := func() {
			m.OnFailure(w.relay, now)
			now += 20 * time.Second // past the 15 s outage: no overlap
		}
		fail() // size the episode scratch buffers
		if got := testing.AllocsPerRun(200, fail); got > tc.ceiling {
			t.Errorf("striped=%v: OnFailure allocates %v per episode, ceiling %v", tc.striped, got, tc.ceiling)
		}
		if m.PacketsRepaired == 0 {
			t.Errorf("striped=%v: no packet repaired; the episodes did no planning", tc.striped)
		}
	}
}
