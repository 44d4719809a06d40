package node

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"omcast/internal/wire"
)

// TestHandlerAdmitsConcurrentSenders: four goroutines call one started
// wall-clock node's handler at once, from twice as many senders as the
// sender table has slots, while Stats is read and the node's timers — its
// duties and the retransmits of its replies — fire on goroutines of their
// own. Every datagram is admitted and handled once, and each one's ack goes
// back to its own sender, so its From was interned right. Every entry point
// holds the node's lock, so under -race this is race-clean: the race
// detector, run raceRepeats times, is the canary for the node's one lock at
// its boundary.
func TestHandlerAdmitsConcurrentSenders(t *testing.T) {
	for range raceRepeats {
		admitConcurrentSenders(t)
	}
}

func admitConcurrentSenders(t *testing.T) {
	const senders, rounds, workers = 2 * senderSlots, 8, 4
	tr := &sinkTransport{addr: "self"}
	n := New(wallFast(), tr)
	n.Start()
	defer n.Kill()
	join := func(i, r int) []byte {
		return wire.AppendBinary(nil, wire.Envelope{Type: wire.TypeJoin, From: wire.Addr(fmt.Sprintf("peer-%d", i)), Bandwidth: 1, Ctrl: uint64(r + 1)})
	}
	stop := make(chan struct{})
	reader := make(chan struct{})
	go func() {
		defer close(reader)
		for {
			select {
			case <-stop:
				return
			default:
				_ = n.Stats()
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Worker g sends rounds g, g+workers, ... from every sender,
			// starting at its own offset, so senders and slots are shared.
			for r := g; r < rounds; r += workers {
				for k := 0; k < senders; k++ {
					n.onDatagram(join((k+g*senders/workers)%senders, r))
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	<-reader

	s := n.Stats()
	if s.WireRejects != 0 || s.GuardRateLimited != 0 || s.GuardQuarantineDrops != 0 || s.RetxDupDrops != 0 {
		t.Fatalf("datagrams refused or deduplicated: %+v", s)
	}
	acks := make(map[wire.Addr][]uint64)
	tr.mu.Lock()
	for i, env := range tr.sent {
		if env.Type == wire.TypeAck {
			acks[tr.dest[i]] = append(acks[tr.dest[i]], env.Ctrl)
		}
	}
	tr.mu.Unlock()
	if len(acks) != senders {
		t.Fatalf("acks went to %d addresses, want the %d senders", len(acks), senders)
	}
	want := make([]uint64, rounds)
	for r := range want {
		want[r] = uint64(r + 1)
	}
	for i := 0; i < senders; i++ {
		to := wire.Addr(fmt.Sprintf("peer-%d", i))
		got := acks[to]
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Fatalf("%s was acked %v, want each of 1..%d once", to, got, rounds)
		}
	}
}

// TestConcurrentChurnRace drives joins, heartbeats, ROST switching, failures
// and stats snapshots all at once over a lossy latency-injecting in-memory
// network. It asserts nothing beyond basic liveness: its job is to give the
// race detector (go test -race) maximal interleaving coverage over the
// node's one lock at its entry points, across many nodes at once: joins,
// gossip, the switch/commit handshake, kills and graceful leaves. It runs on
// the wall clock, where every timer callback and every delivery is a
// goroutine of its own.
func TestConcurrentChurnRace(t *testing.T) {
	latency := func(from, to wire.Addr) time.Duration { return time.Millisecond }
	network := NewMemNetwork(nil, latency)
	defer network.Close()

	cfg := wallFast()
	cfg.SwitchInterval = 30 * time.Millisecond // exercise the switching path

	boot := func(addr wire.Addr, mutate func(*Config)) *Node {
		c := cfg
		c.Bootstrap = []wire.Addr{"source"}
		c.Bandwidth = 3
		if mutate != nil {
			mutate(&c)
		}
		ep, err := network.Endpoint(addr)
		if err != nil {
			t.Fatal(err)
		}
		n := New(c, ep)
		n.Start()
		return n
	}

	source := boot("source", func(c *Config) {
		c.Source = true
		c.Bandwidth = 8
		c.Bootstrap = nil
		c.SwitchInterval = 0
	})
	defer source.Kill()

	const initial = 12
	nodes := make([]*Node, 0, initial)
	for i := 0; i < initial; i++ {
		nodes = append(nodes, boot(wire.Addr(fmt.Sprintf("n%02d", i)), nil))
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Reader: hammer the public snapshot API from outside the node's loops.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, n := range nodes {
				_ = n.Stats()
				_ = n.String()
			}
			_ = source.Stats()
		}
	}()

	// Failover driver: abrupt kills force parent-failure detection and CER
	// repair on the survivors.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			select {
			case <-stop:
				return
			case <-time.After(60 * time.Millisecond):
			}
			nodes[i].Kill()
		}
	}()

	// Late joiners: concurrent membership discovery and join handshakes.
	late := make(chan *Node, 6)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < cap(late); i++ {
			select {
			case <-stop:
				close(late)
				return
			case <-time.After(25 * time.Millisecond):
			}
			late <- boot(wire.Addr(fmt.Sprintf("late%02d", i)), nil)
		}
		close(late)
	}()

	// Graceful leavers: Stop notifies parent and children mid-stream.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := initial - 1; i >= initial-3; i-- {
			select {
			case <-stop:
				return
			case <-time.After(80 * time.Millisecond):
			}
			nodes[i].Stop()
		}
	}()

	time.Sleep(400 * time.Millisecond)
	close(stop)
	wg.Wait()

	var lateNodes []*Node
	for n := range late {
		lateNodes = append(lateNodes, n)
	}
	for _, n := range append(nodes[3:initial-3], lateNodes...) {
		if got := n.Stats(); got.KnownMembers == 0 && !got.Attached {
			// Liveness smoke check only; attachment is timing-dependent under
			// the injected latency, so an empty view is the only hard failure.
			t.Logf("node %s never discovered the overlay", n.Addr())
		}
	}
	for _, n := range append(nodes, lateNodes...) {
		n.Kill()
	}
}
