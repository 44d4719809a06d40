package main

import (
	"fmt"
	"io"
	"time"

	"omcast/internal/stats"
	"omcast/internal/topology"
	"omcast/internal/xrand"
)

// cmdTopo generates a GT-ITM-style transit-stub topology and prints its
// structural statistics: router counts, degree distribution, and a sampled
// unicast-delay profile between stub routers (the population overlay
// members are placed on).
//
//	omcast topo                      # the paper's 15600-router topology
//	omcast topo -transit-domains 3 -transit-nodes 8 -stub-domains 2 -stub-nodes 8
func cmdTopo(args []string) int {
	fs := newFlags("topo")
	var (
		seed           = fs.Int64("seed", 1, "random seed")
		transitDomains = fs.Int("transit-domains", 0, "transit domains (default 6)")
		transitNodes   = fs.Int("transit-nodes", 0, "routers per transit domain (default 40)")
		stubDomains    = fs.Int("stub-domains", 0, "stub domains per transit router (default 4)")
		stubNodes      = fs.Int("stub-nodes", 0, "routers per stub domain (default 16)")
		samples        = fs.Int("samples", 20000, "random stub pairs for the delay profile")
		verify         = fs.Bool("verify", false, "cross-check the O(1) oracle against full Dijkstra on sampled sources")
		dotFile        = fs.String("dot", "", "write the topology as GraphViz DOT to this file")
	)
	if fs.Parse(args) != nil {
		return 2
	}
	if *samples < 1 {
		return fail(2, "topo", "-samples %d: want at least 1", *samples)
	}

	cfg := topology.DefaultConfig(*seed)
	if *transitDomains > 0 {
		cfg.TransitDomains = *transitDomains
	}
	if *transitNodes > 0 {
		cfg.TransitNodesPerDomain = *transitNodes
	}
	if *stubDomains > 0 {
		cfg.StubDomainsPerTransit = *stubDomains
	}
	if *stubNodes > 0 {
		cfg.StubNodesPerDomain = *stubNodes
	}

	//lint:ignore no-wallclock reason: CLI progress timer; never feeds simulation state
	start := time.Now()
	topo, err := topology.New(cfg)
	if err != nil {
		return fail(1, "topo", "%v", err)
	}
	//lint:ignore no-wallclock reason: CLI progress timer; never feeds simulation state
	fmt.Printf("generated in %.1fms\n", float64(time.Since(start).Microseconds())/1000)
	fmt.Printf("routers: %d total = %d transit + %d stub\n", topo.Size(), topo.TransitCount(), topo.StubCount())
	fmt.Printf("stub domains: %d of %d routers each, single-homed\n",
		cfg.TransitCount()*cfg.StubDomainsPerTransit, cfg.StubNodesPerDomain)

	degSum, degMax := 0, 0
	for id := topology.NodeID(0); int(id) < topo.Size(); id++ {
		d := topo.Degree(id)
		degSum += d
		if d > degMax {
			degMax = d
		}
	}
	fmt.Printf("links: %d (avg degree %.2f, max %d)\n", degSum/2, float64(degSum)/float64(topo.Size()), degMax)

	rng := xrand.NewNamed(*seed, "topo.samples")
	delays := make([]float64, 0, *samples)
	for i := 0; i < *samples; i++ {
		a, b := topo.RandomStub(rng), topo.RandomStub(rng)
		if a == b {
			continue
		}
		delays = append(delays, float64(topo.Delay(a, b))/float64(time.Millisecond))
	}
	p50, err := stats.Percentile(delays, 50)
	if err != nil {
		return fail(1, "topo", "%v", err)
	}
	p95, _ := stats.Percentile(delays, 95)
	mx, _ := stats.Max(delays)
	fmt.Printf("stub-to-stub unicast delay over %d pairs: mean %.1fms, p50 %.1fms, p95 %.1fms, max %.1fms\n",
		len(delays), stats.Mean(delays), p50, p95, mx)

	if *dotFile != "" {
		if err := writeTo(*dotFile, func(w io.Writer) error { writeDOT(w, topo); return nil }); err != nil {
			return fail(1, "topo", "%v", err)
		}
		fmt.Printf("DOT graph written to %s\n", *dotFile)
	}

	if *verify {
		mismatches := 0
		for i := 0; i < 3; i++ {
			src := topo.RandomStub(rng)
			dist := topo.DijkstraFrom(src)
			for v := topology.NodeID(0); int(v) < topo.Size(); v++ {
				if topo.Delay(src, v) != dist[v] {
					mismatches++
				}
			}
		}
		if mismatches > 0 {
			return fail(1, "topo", "oracle mismatched Dijkstra on %d pairs", mismatches)
		}
		fmt.Println("oracle verified: exact match with full-graph Dijkstra on 3 sampled sources")
	}
	return 0
}

// writeDOT renders the topology as a GraphViz graph: transit routers as
// boxes, stub routers as points, edge length labels in milliseconds. Write
// errors surface when writeTo flushes.
func writeDOT(w io.Writer, topo *topology.Topology) {
	fmt.Fprintln(w, "graph transitstub {")
	fmt.Fprintln(w, "  node [shape=point];")
	for id := topology.NodeID(0); int(id) < topo.Size(); id++ {
		if topo.KindOf(id) == topology.Transit {
			fmt.Fprintf(w, "  n%d [shape=box, label=\"t%d\"];\n", id, id)
		}
	}
	topo.VisitLinks(func(a, b topology.NodeID, delay time.Duration) {
		fmt.Fprintf(w, "  n%d -- n%d [label=\"%.1f\"];\n", a, b, float64(delay)/float64(time.Millisecond))
	})
	fmt.Fprintln(w, "}")
}
