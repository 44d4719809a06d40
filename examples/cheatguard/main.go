// Cheatguard: demonstrate the Section 3.4 reference-node mechanism. ROST
// rewards high bandwidth-time products with high tree positions, so a
// malicious member that inflates its claims 50x would climb toward the
// source and could disrupt the whole session. The example runs the same
// attacked session twice — once with referee verification, once without —
// and shows where the cheaters end up.
//
//	go run ./examples/cheatguard [-cheaters 30]
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
		fmt.Fprintln(os.Stderr, "cheatguard:", err)
		os.Exit(1)
	}
}

func run() error {
	cheaters := flag.Int("cheaters", 30, "number of members inflating their claims 50x")
	flag.Parse()

	fmt.Printf("1500-member ROST session; %d members advertise 50x their true bandwidth and age\n\n", *cheaters)
	for _, verified := range []bool{false, true} {
		cfg := omcast.Config{
			Seed:                     3,
			Algorithm:                omcast.ROST,
			TargetSize:               1500,
			Warmup:                   time.Hour,
			Measure:                  2 * time.Hour,
			Cheaters:                 *cheaters,
			DisableClaimVerification: !verified,
		}
		res, err := omcast.Run(cfg)
		if err != nil {
			return err
		}
		mode := "claims verified by referees"
		if !verified {
			mode = "claims taken at face value"
		}
		fmt.Printf("[%s]\n", mode)
		fmt.Printf("  cheaters' mean depth:  %.2f\n", res.CheaterMeanDepth)
		fmt.Printf("  honest mean depth:     %.2f\n", res.HonestMeanDepth)
		fmt.Printf("  claims rejected:       %d\n", res.RejectedClaims)
		switch {
		case !verified && res.CheaterMeanDepth < res.HonestMeanDepth:
			fmt.Printf("  -> cheaters climbed above the honest population: every switch they won\n")
			fmt.Printf("     put their (unreliable) claims between the source and more viewers\n\n")
		case verified:
			fmt.Printf("  -> the age/bandwidth witnesses expose every inflated claim, so cheating\n")
			fmt.Printf("     buys no position at all\n\n")
		default:
			fmt.Printf("\n")
		}
	}
	return nil
}
