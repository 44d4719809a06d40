package live

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"omcast/internal/faultnet"
	mlive "omcast/internal/metrics/live"
	"omcast/internal/node"
	"omcast/internal/wire"
)

// rig is a two-endpoint fault network with a recording receiver.
type rig struct {
	mem  *node.MemNetwork
	net  *Network
	a, b node.Transport

	mu  sync.Mutex
	got []string
}

func newRig(t *testing.T, opts Options) *rig {
	t.Helper()
	r := &rig{mem: node.NewMemNetwork(nil)}
	r.net = NewNetwork(opts)
	t.Cleanup(func() {
		r.net.Close()
		r.mem.Close()
	})
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
	r.b.SetHandler(func(data []byte) {
		r.mu.Lock()
		r.got = append(r.got, string(data))
		r.mu.Unlock()
	})
	return r
}

func (r *rig) received() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.got...)
}

func (r *rig) waitCount(t *testing.T, n int, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(sc(within))
	for time.Now().Before(deadline) {
		if len(r.received()) >= n {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("received %d datagrams, want >= %d", len(r.received()), n)
}

func TestWrapPassthrough(t *testing.T) {
	r := newRig(t, Options{Seed: 1})
	if r.a.Addr() != "a" {
		t.Fatalf("wrapped addr = %s", r.a.Addr())
	}
	if err := r.a.Send("b", []byte("clean")); err != nil {
		t.Fatal(err)
	}
	r.waitCount(t, 1, time.Second)
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
	time.Sleep(20 * time.Millisecond)
	if got := r.received(); len(got) != 0 {
		t.Fatalf("drop=1 delivered %d datagrams", len(got))
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
	time.Sleep(20 * time.Millisecond)
	if len(r.received()) != 0 {
		t.Fatal("partitioned datagram delivered")
	}
	if st := r.net.Stats()["a>b"]; st.Blocked != 1 {
		t.Fatalf("blocked = %d, want 1", st.Blocked)
	}
	r.net.Apply(faultnet.Change{T: 0, Action: faultnet.ActionHeal, From: "a", To: "*", Symmetric: true})
	if err := r.a.Send("b", []byte("through")); err != nil {
		t.Fatal(err)
	}
	r.waitCount(t, 1, time.Second)
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
	var mu sync.Mutex
	backGot := 0
	r.a.SetHandler(func([]byte) { mu.Lock(); backGot++; mu.Unlock() })
	if err := r.b.Send("a", []byte("y")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(sc(time.Second))
	for time.Now().Before(deadline) {
		mu.Lock()
		n := backGot
		mu.Unlock()
		if n == 1 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if backGot != 1 || len(r.received()) != 0 {
		t.Fatalf("one-way block broken: forward=%d back=%d", len(r.received()), backGot)
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
	r.waitCount(t, 2, time.Second)
	if got := r.received(); len(got) != 2 || got[0] != "twice" || got[1] != "twice" {
		t.Fatalf("duplicate delivery = %v", got)
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
	r.waitCount(t, 2, time.Second)
	if got := r.received(); got[0] != "second" || got[1] != "first" {
		t.Fatalf("order = %v, want [second first]", got)
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
	r.waitCount(t, 1, time.Second)
}

func TestLatencyAndJitter(t *testing.T) {
	const lat = 30 * time.Millisecond
	r := newRig(t, Options{
		Seed: 8,
		Schedule: &faultnet.Schedule{
			DefaultRule: &faultnet.Rule{Latency: faultnet.Duration(lat), Jitter: faultnet.Duration(10 * time.Millisecond)},
		},
	})
	start := time.Now()
	if err := r.a.Send("b", []byte("slow")); err != nil {
		t.Fatal(err)
	}
	r.waitCount(t, 1, time.Second)
	if elapsed := time.Since(start); elapsed < lat/2 {
		t.Fatalf("delivered after %v, want >= ~%v", elapsed, lat)
	}
}

func TestRateLimit(t *testing.T) {
	r := newRig(t, Options{
		Seed:     9,
		Schedule: &faultnet.Schedule{DefaultRule: &faultnet.Rule{RateBytes: 100}},
	})
	// Burst allows ~100 bytes; 10-byte datagrams: ~10 pass, the rest drop.
	for i := 0; i < 50; i++ {
		if err := r.a.Send("b", []byte("0123456789")); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(20 * time.Millisecond)
	st := r.net.Stats()["a>b"]
	if st.RateDropped < 30 || st.RateDropped > 45 {
		t.Fatalf("rate-dropped = %d, want ~40", st.RateDropped)
	}
}

func TestCrashBlackholesAndHooks(t *testing.T) {
	var mu sync.Mutex
	var events []string
	r := newRig(t, Options{Seed: 10, NodeHook: func(addr string, up bool) {
		mu.Lock()
		events = append(events, fmt.Sprintf("%s:%t", addr, up))
		mu.Unlock()
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
	time.Sleep(10 * time.Millisecond)
	if len(r.received()) != 0 {
		t.Fatal("datagram delivered to crashed node")
	}
	r.net.Apply(faultnet.Change{Action: faultnet.ActionRestart, Node: "b"})
	if down() {
		t.Fatal("b still down after restart")
	}
	if err := r.a.Send("b", []byte("back")); err != nil {
		t.Fatal(err)
	}
	r.waitCount(t, 1, time.Second)
	mu.Lock()
	defer mu.Unlock()
	if len(events) != 2 || events[0] != "b:false" || events[1] != "b:true" {
		t.Fatalf("hook events = %v", events)
	}
}

func TestScheduleTimedEvents(t *testing.T) {
	r := newRig(t, Options{
		Seed: 11,
		Schedule: &faultnet.Schedule{
			Events: []faultnet.Event{
				{At: faultnet.Duration(sc(20 * time.Millisecond)), Until: faultnet.Duration(sc(80 * time.Millisecond)),
					Action: faultnet.ActionPartition, From: "a", To: "b"},
			},
		},
	})
	r.net.Start()
	time.Sleep(sc(40 * time.Millisecond)) // inside the partition window
	if err := r.a.Send("b", []byte("blocked")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(sc(70 * time.Millisecond)) // past the heal
	if err := r.a.Send("b", []byte("open")); err != nil {
		t.Fatal(err)
	}
	r.waitCount(t, 1, time.Second)
	if got := r.received(); len(got) != 1 || got[0] != "open" {
		t.Fatalf("delivered = %v, want [open]", got)
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
		mem := node.NewMemNetwork(nil)
		defer mem.Close()
		net := NewNetwork(Options{
			Seed: 424242,
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
