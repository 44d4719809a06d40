// Livestream: an end-to-end comparison of what a viewer experiences under
// four system designs — the paper's full stack (ROST tree + CER recovery)
// against a conventional stack (minimum-depth tree + single-source
// recovery) and the two mixed combinations — across recovery group sizes.
// This is the scenario behind the paper's Figure 14.
//
//	go run ./examples/livestream [-size 5000]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"omcast"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "livestream:", err)
		os.Exit(1)
	}
}

func run() error {
	size := flag.Int("size", 5000, "steady-state audience size")
	flag.Parse()

	trees := []struct {
		name string
		alg  omcast.Algorithm
	}{{"ROST tree", omcast.ROST}, {"min-depth tree", omcast.MinimumDepth}}
	recoveries := []struct {
		name     string
		recovery omcast.Recovery
	}{{"CER recovery", omcast.CER}, {"single-source", omcast.SingleSource}}
	groupSizes := []int{1, 2, 3}

	fmt.Printf("audience %d, 10 pkt/s stream, 5 s player buffer, members donate 0-9 pkt/s to recovery\n\n", *size)
	fmt.Printf("%-32s %12s %12s %12s\n", "design", "K=1", "K=2", "K=3")
	for _, tree := range trees {
		// Every recovery design of one tree plays over one churn session: the
		// stream models only observe the overlay, so each result is what a
		// session of its own would give.
		var group []omcast.StreamConfig
		for _, r := range recoveries {
			for _, k := range groupSizes {
				group = append(group, omcast.StreamConfig{Recovery: r.recovery, GroupSize: k})
			}
		}
		cfg := omcast.Config{
			Seed:       7,
			Algorithm:  tree.alg,
			TargetSize: *size,
			Warmup:     2 * time.Hour,
			Measure:    time.Hour,
		}
		results, err := omcast.RunStreamingGroup(cfg, group, nil)
		if err != nil {
			return err
		}
		for i, r := range recoveries {
			fmt.Printf("%-32s", tree.name+" + "+r.name)
			for _, res := range results[i*len(groupSizes) : (i+1)*len(groupSizes)] {
				fmt.Printf(" %10.3f%%", res.AvgStarvingRatio*100)
			}
			fmt.Println()
		}
	}
	fmt.Println("\n(values are the mean starving-time ratio: the fraction of view time the player stalls)")
	fmt.Println("expected shape (paper Fig 14): the full stack is ~an order of magnitude better than the")
	fmt.Println("conventional one, and ROST+CER at K=1 already beats the baseline at K=2")
	return nil
}
