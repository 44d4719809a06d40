// Liveoverlay: boot the actual protocol runtime (not the simulator's model
// of it) on an in-process datagram network, stream packets, kill an interior
// member and watch the overlay heal — join handshakes, heartbeats, ELN, CER
// repair and ROST switching, the same code `omcast node` runs over UDP. The
// nodes run on a virtual clock driven by an eventsim.Simulator, so the run
// takes a fraction of its virtual time and prints the same overlay every
// time.
//
//	go run ./examples/liveoverlay
package main

import (
	"fmt"
	"os"
	"time"

	"omcast/internal/eventsim"
	"omcast/internal/node"
	"omcast/internal/wire"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "liveoverlay:", err)
		os.Exit(1)
	}
}

func run() error {
	sim := eventsim.New()
	clock := node.NewVirtualClock(sim)
	network := node.NewMemNetwork(clock, nil)

	base := node.Config{
		Clock:             clock,
		HeartbeatInterval: 50 * time.Millisecond,
		GossipInterval:    60 * time.Millisecond,
		SwitchInterval:    500 * time.Millisecond,
		StreamRate:        50,
		RecoveryGroup:     3,
	}

	srcCfg := base
	srcCfg.Source = true
	srcCfg.Bandwidth = 3
	srcTr, err := network.Endpoint("source")
	if err != nil {
		return err
	}
	node.New(srcCfg, srcTr).Start()

	fmt.Println("booting 12 members against a 3-slot source...")
	var members []*node.Node
	for i := 0; i < 12; i++ {
		cfg := base
		cfg.Bandwidth = 2
		cfg.Bootstrap = []wire.Addr{"source"}
		tr, err := network.Endpoint(wire.Addr(fmt.Sprintf("member-%02d", i)))
		if err != nil {
			return err
		}
		n := node.New(cfg, tr)
		members = append(members, n)
		n.Start()
	}

	// waitFor runs the overlay in 20 ms steps of virtual time until cond
	// holds, for at most 15 s of it.
	waitFor := func(what string, cond func() bool) error {
		for end := sim.Now() + 15*time.Second; sim.Now() < end; {
			if cond() {
				return nil
			}
			_ = sim.Run(sim.Now() + 20*time.Millisecond)
		}
		return fmt.Errorf("timed out waiting for %s", what)
	}

	if err := waitFor("the tree to form", func() bool {
		for _, m := range members {
			if !m.Stats().Attached {
				return false
			}
		}
		return true
	}); err != nil {
		return err
	}
	printTree("tree formed", members)

	if err := waitFor("the stream to reach everyone", func() bool {
		for _, m := range members {
			if m.Stats().HighestPacket < 100 {
				return false
			}
		}
		return true
	}); err != nil {
		return err
	}
	fmt.Println("\nstream flowing: every member past packet 100")

	// Kill the busiest interior member abruptly.
	var victim *node.Node
	for _, m := range members {
		if victim == nil || m.Stats().Children > victim.Stats().Children {
			victim = m
		}
	}
	fmt.Printf("\nkilling %s (depth %d, %d children) without warning...\n",
		victim.Addr(), victim.Stats().Depth, victim.Stats().Children)
	mark := victim.Stats().HighestPacket
	victim.Kill()

	survivors := make([]*node.Node, 0, len(members)-1)
	for _, m := range members {
		if m != victim {
			survivors = append(survivors, m)
		}
	}
	if err := waitFor("the overlay to heal and catch up", func() bool {
		for _, m := range survivors {
			s := m.Stats()
			if !s.Attached || s.Parent == victim.Addr() || s.HighestPacket < mark+200 {
				return false
			}
		}
		return true
	}); err != nil {
		return err
	}
	printTree("healed after the failure", survivors)

	var repaired, rejoins, switches int64
	for _, m := range survivors {
		s := m.Stats()
		repaired += s.PacketsRepaired
		rejoins += s.Rejoins
		switches += s.Switches
	}
	fmt.Printf("\nrecovery summary: %d rejoins, %d packets repaired via CER, %d ROST switches\n",
		rejoins, repaired, switches)
	return nil
}

func printTree(title string, members []*node.Node) {
	fmt.Printf("\n[%s]\n", title)
	for _, m := range members {
		s := m.Stats()
		fmt.Printf("  %-10s depth=%d parent=%-10s children=%d packet=%d\n",
			m.Addr(), s.Depth, s.Parent, s.Children, s.HighestPacket)
	}
}
