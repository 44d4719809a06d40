package live

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"omcast/internal/eventsim"
	"omcast/internal/faultnet"
	mlive "omcast/internal/metrics/live"
	"omcast/internal/node"
	"omcast/internal/wire"
)

// rig is a two-endpoint fault network with a recording receiver, on a
// virtual clock: nothing is delivered until advance runs the simulator.
type rig struct {
	sim  *eventsim.Simulator
	mem  *node.MemNetwork
	net  *Network
	a, b node.Transport
	got  []string
}

func newRig(t *testing.T, opts Options) *rig {
	t.Helper()
	r := &rig{sim: eventsim.New()}
	clock := node.NewVirtualClock(r.sim)
	r.mem = node.NewMemNetwork(clock, nil)
	opts.Clock = clock
	r.net = NewNetwork(opts)
	for _, name := range []string{"a", "b"} {
		ep, err := r.mem.Endpoint(wire.Addr(name))
		if err != nil {
			t.Fatal(err)
		}
		w := r.net.Wrap(ep)
		if name == "a" {
			r.a = w
		} else {
			r.b = w
		}
	}
	r.b.SetHandler(func(data []byte) { r.got = append(r.got, string(data)) })
	return r
}

// advance runs the rig for d of virtual time.
func (r *rig) advance(d time.Duration) { _ = r.sim.Run(r.sim.Now() + d) }

// settle runs the rig until nothing is left to deliver.
func (r *rig) settle() { _ = r.sim.Run(eventsim.MaxHorizon) }

func TestWrapPassthrough(t *testing.T) {
	r := newRig(t, Options{Seed: 1})
	if r.a.Addr() != "a" {
		t.Fatalf("wrapped addr = %s", r.a.Addr())
	}
	if err := r.a.Send("b", []byte("clean")); err != nil {
		t.Fatal(err)
	}
	r.settle()
	if !slices.Equal(r.got, []string{"clean"}) {
		t.Fatalf("delivered %q", r.got)
	}
	st := r.net.Stats()["a>b"]
	if st.Sent != 1 || st.Dropped != 0 {
		t.Fatalf("link stats = %+v", st)
	}
}

func TestDropRule(t *testing.T) {
	reg := mlive.NewRegistry()
	r := newRig(t, Options{
		Seed:     2,
		Metrics:  reg,
		Schedule: &faultnet.Schedule{DefaultRule: &faultnet.Rule{Drop: 1}},
	})
	for i := 0; i < 20; i++ {
		if err := r.a.Send("b", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	r.settle()
	if len(r.got) != 0 {
		t.Fatalf("drop=1 delivered %d datagrams", len(r.got))
	}
	st := r.net.Stats()["a>b"]
	if st.Sent != 20 || st.Dropped != 20 {
		t.Fatalf("link stats = %+v", st)
	}
	snap := reg.Snapshot()
	dropped := 0.0
	for _, m := range snap.Metrics {
		if m.Name == "omcast_faultnet_dropped_total" {
			dropped = m.Value
		}
	}
	if dropped != 20 {
		t.Fatalf("dropped metric = %v, want 20", dropped)
	}
}

func TestPartitionAndHeal(t *testing.T) {
	r := newRig(t, Options{Seed: 3})
	r.net.Apply(faultnet.Change{T: 0, Action: faultnet.ActionPartition, From: "a", To: "*", Symmetric: true})
	if err := r.a.Send("b", []byte("lost")); err != nil {
		t.Fatal(err)
	}
	r.settle()
	if len(r.got) != 0 {
		t.Fatal("partitioned datagram delivered")
	}
	if st := r.net.Stats()["a>b"]; st.Blocked != 1 {
		t.Fatalf("blocked = %d, want 1", st.Blocked)
	}
	r.net.Apply(faultnet.Change{T: 0, Action: faultnet.ActionHeal, From: "a", To: "*", Symmetric: true})
	if err := r.a.Send("b", []byte("through")); err != nil {
		t.Fatal(err)
	}
	r.settle()
	if !slices.Equal(r.got, []string{"through"}) {
		t.Fatalf("delivered %q after the heal", r.got)
	}
}

func TestBlockRuleOneWay(t *testing.T) {
	r := newRig(t, Options{
		Seed: 4,
		Schedule: &faultnet.Schedule{
			Links: []faultnet.LinkRule{{From: "a", To: "b", Rule: faultnet.Rule{Block: true}}},
		},
	})
	if err := r.a.Send("b", []byte("x")); err != nil {
		t.Fatal(err)
	}
	// Reverse direction stays open (one-way partition).
	backGot := 0
	r.a.SetHandler(func([]byte) { backGot++ })
	if err := r.b.Send("a", []byte("y")); err != nil {
		t.Fatal(err)
	}
	r.settle()
	if backGot != 1 || len(r.got) != 0 {
		t.Fatalf("one-way block broken: forward=%d back=%d", len(r.got), backGot)
	}
}

func TestDuplicateRule(t *testing.T) {
	r := newRig(t, Options{
		Seed:     5,
		Schedule: &faultnet.Schedule{DefaultRule: &faultnet.Rule{Duplicate: 1}},
	})
	if err := r.a.Send("b", []byte("twice")); err != nil {
		t.Fatal(err)
	}
	r.settle()
	if !slices.Equal(r.got, []string{"twice", "twice"}) {
		t.Fatalf("duplicate delivery = %v", r.got)
	}
}

func TestReorderRule(t *testing.T) {
	r := newRig(t, Options{
		Seed:     6,
		Schedule: &faultnet.Schedule{DefaultRule: &faultnet.Rule{Reorder: 1}},
	})
	// First datagram is held (reorder=1), second releases it behind itself.
	if err := r.a.Send("b", []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := r.a.Send("b", []byte("second")); err != nil {
		t.Fatal(err)
	}
	r.settle()
	if !slices.Equal(r.got, []string{"second", "first"}) {
		t.Fatalf("order = %v, want [second first]", r.got)
	}
	if st := r.net.Stats()["a>b"]; st.Held != 1 {
		t.Fatalf("held = %d, want 1", st.Held)
	}
}

func TestReorderFlushOnQuietLink(t *testing.T) {
	r := newRig(t, Options{
		Seed:     7,
		Schedule: &faultnet.Schedule{DefaultRule: &faultnet.Rule{Reorder: 1}},
	})
	// A lone held datagram must still arrive once maxHold expires.
	if err := r.a.Send("b", []byte("only")); err != nil {
		t.Fatal(err)
	}
	r.advance(maxHold - time.Millisecond)
	if len(r.got) != 0 {
		t.Fatalf("held datagram delivered before maxHold: %q", r.got)
	}
	r.advance(time.Millisecond)
	if !slices.Equal(r.got, []string{"only"}) {
		t.Fatalf("held datagram not flushed at maxHold: %q", r.got)
	}
}

func TestLatencyAndJitter(t *testing.T) {
	const lat = 30 * time.Millisecond
	r := newRig(t, Options{
		Seed: 8,
		Schedule: &faultnet.Schedule{
			DefaultRule: &faultnet.Rule{Latency: faultnet.Duration(lat), Jitter: faultnet.Duration(10 * time.Millisecond)},
		},
	})
	if err := r.a.Send("b", []byte("slow")); err != nil {
		t.Fatal(err)
	}
	r.advance(lat - time.Nanosecond)
	if len(r.got) != 0 {
		t.Fatalf("delivered before the %v latency", lat)
	}
	r.advance(10 * time.Millisecond) // the jitter bound
	if !slices.Equal(r.got, []string{"slow"}) {
		t.Fatalf("not delivered within latency + jitter: %q", r.got)
	}
}

func TestRateLimit(t *testing.T) {
	r := newRig(t, Options{
		Seed:     9,
		Schedule: &faultnet.Schedule{DefaultRule: &faultnet.Rule{RateBytes: 100}},
	})
	// The one-second burst is 100 bytes: of 50 10-byte datagrams sent at one
	// instant, 10 pass and 40 drop; half a second later the bucket has
	// refilled 50 bytes, 5 more datagrams' worth.
	for i := 0; i < 50; i++ {
		if err := r.a.Send("b", []byte("0123456789")); err != nil {
			t.Fatal(err)
		}
	}
	r.advance(500 * time.Millisecond)
	if st := r.net.Stats()["a>b"]; st.RateDropped != 40 || len(r.got) != 10 {
		t.Fatalf("rate-dropped = %d, delivered %d, want 40 and 10", st.RateDropped, len(r.got))
	}
	for i := 0; i < 10; i++ {
		if err := r.a.Send("b", []byte("0123456789")); err != nil {
			t.Fatal(err)
		}
	}
	r.settle()
	if st := r.net.Stats()["a>b"]; st.RateDropped != 45 || len(r.got) != 15 {
		t.Fatalf("after the refill: rate-dropped = %d, delivered %d, want 45 and 15", st.RateDropped, len(r.got))
	}
}

func TestCrashBlackholesAndHooks(t *testing.T) {
	var events []string
	r := newRig(t, Options{Seed: 10, NodeHook: func(addr string, up bool) {
		events = append(events, fmt.Sprintf("%s:%t", addr, up))
	}})
	down := func() bool {
		r.net.mu.Lock()
		defer r.net.mu.Unlock()
		return r.net.down["b"]
	}
	r.net.Apply(faultnet.Change{Action: faultnet.ActionCrash, Node: "b"})
	if !down() {
		t.Fatal("b not marked down")
	}
	if err := r.a.Send("b", []byte("into the void")); err != nil {
		t.Fatal(err)
	}
	r.settle()
	if len(r.got) != 0 {
		t.Fatal("datagram delivered to crashed node")
	}
	r.net.Apply(faultnet.Change{Action: faultnet.ActionRestart, Node: "b"})
	if down() {
		t.Fatal("b still down after restart")
	}
	if err := r.a.Send("b", []byte("back")); err != nil {
		t.Fatal(err)
	}
	r.settle()
	if !slices.Equal(r.got, []string{"back"}) {
		t.Fatalf("delivered %q after the restart", r.got)
	}
	if len(events) != 2 || events[0] != "b:false" || events[1] != "b:true" {
		t.Fatalf("hook events = %v", events)
	}
}

func TestScheduleTimedEvents(t *testing.T) {
	r := newRig(t, Options{
		Seed: 11,
		Schedule: &faultnet.Schedule{
			Events: []faultnet.Event{
				{At: faultnet.Duration(20 * time.Millisecond), Until: faultnet.Duration(80 * time.Millisecond),
					Action: faultnet.ActionPartition, From: "a", To: "b"},
			},
		},
	})
	r.net.Start()
	r.advance(40 * time.Millisecond) // inside the partition window
	if err := r.a.Send("b", []byte("blocked")); err != nil {
		t.Fatal(err)
	}
	r.advance(40 * time.Millisecond) // exactly at the heal
	if err := r.a.Send("b", []byte("open")); err != nil {
		t.Fatal(err)
	}
	r.settle()
	if !slices.Equal(r.got, []string{"open"}) {
		t.Fatalf("delivered = %v, want [open]", r.got)
	}
	log := r.net.FormatLog()
	if log == "" {
		t.Fatal("empty fault log")
	}
}

// TestCannedTrafficDeterminism is the byte-reproducibility contract: two
// networks with the same seed and schedule, fed the identical datagram
// sequence, must record identical fault logs and identical link stats.
func TestCannedTrafficDeterminism(t *testing.T) {
	run := func() (string, string) {
		clock := node.NewVirtualClock(eventsim.New())
		mem := node.NewMemNetwork(clock, nil)
		net := NewNetwork(Options{
			Clock: clock,
			Seed:  424242,
			Schedule: &faultnet.Schedule{
				DefaultRule: &faultnet.Rule{Drop: 0.25, Duplicate: 0.1, Reorder: 0.15},
			},
		})
		defer net.Close()
		epA, err := mem.Endpoint("a")
		if err != nil {
			t.Fatal(err)
		}
		epB, err := mem.Endpoint("b")
		if err != nil {
			t.Fatal(err)
		}
		a, b := net.Wrap(epA), net.Wrap(epB)
		b.SetHandler(func([]byte) {})
		a.SetHandler(func([]byte) {})
		for i := 0; i < 300; i++ {
			if err := a.Send("b", []byte(fmt.Sprintf("fwd-%03d", i))); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 150; i++ {
			if err := b.Send("a", []byte(fmt.Sprintf("rev-%03d", i))); err != nil {
				t.Fatal(err)
			}
		}
		return net.FormatLog(), net.FormatStats()
	}
	log1, stats1 := run()
	log2, stats2 := run()
	if log1 != log2 {
		t.Fatalf("fault logs diverged between same-seed runs:\n--- run1\n%s\n--- run2\n%s", log1, log2)
	}
	if stats1 != stats2 {
		t.Fatalf("link stats diverged between same-seed runs:\n--- run1\n%s\n--- run2\n%s", stats1, stats2)
	}
	if stats1 == "" || log1 == "" {
		t.Fatal("canned run recorded nothing")
	}
}

func TestLogLimit(t *testing.T) {
	r := newRig(t, Options{
		Seed:     12,
		Schedule: &faultnet.Schedule{DefaultRule: &faultnet.Rule{Drop: 1}},
	})
	r.net.logCap = 5
	for i := 0; i < 20; i++ {
		_ = r.a.Send("b", []byte("x"))
	}
	log := r.net.FormatLog()
	if want := "(+15 per-datagram entries beyond log limit)"; !strings.Contains(log, want) {
		t.Fatalf("log limit footer missing:\n%s", log)
	}
}
