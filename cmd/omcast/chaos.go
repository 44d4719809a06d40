package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"omcast/internal/faultnet"
	"omcast/internal/faultnet/live"
	"omcast/internal/tracing"
)

// cmdChaos runs the chaos resilience suite: live overlays on an in-memory
// network behind the deterministic fault injector, each scenario
// byte-reproducible from its seed.
//
//	omcast chaos -list                      # what scenarios exist
//	omcast chaos -scenario parent-crash     # run one
//	omcast chaos -scenario all              # run the whole suite
//	omcast chaos -scenario lossy-10 -plan   # print the fault plan, no run
//	omcast chaos -scenario lossy-10 -log    # include the canonical fault log
//	omcast chaos -scenario lossy-10 -seed 7 # same faults, different dice
//
// With -trace-out the runs' causal spans (every node's flight-recorder
// episodes plus fault-window annotations) are written as JSONL, ready for
// `omcast trace analyze` or `omcast trace convert -format perfetto`.
// Custom fault schedules (the JSON format of internal/faultnet) run against a
// default overlay:
//
//	omcast chaos -schedule faults.json -nodes 10 -duration 5s
//
// Exit status: 0 all bounds held, 1 a scenario failed its bounds, 2 usage.
func cmdChaos(args []string) int {
	fs := newFlags("chaos")
	var (
		list     = fs.Bool("list", false, "list scenarios and exit")
		scenario = fs.String("scenario", "", "scenario name, or \"all\" for the whole suite")
		seed     = fs.Int64("seed", 0, "override the scenario seed (0 = scenario default)")
		plan     = fs.Bool("plan", false, "print the expanded fault plan instead of running")
		showLog  = fs.Bool("log", false, "print the canonical fault log after each run")
		schedule = fs.String("schedule", "", "run a custom JSON fault schedule instead of a named scenario")
		nodes    = fs.Int("nodes", 8, "member count for -schedule runs")
		duration = fs.Duration("duration", 3*time.Second, "fault run length for -schedule runs")
		warmup   = fs.Duration("warmup", 5*time.Second, "attach deadline before faults arm for -schedule runs (0 = faults from birth)")
		traceOut = fs.String("trace-out", "", "write the runs' causal spans (recovery episodes + fault windows) as JSONL to this file (\"-\" = stdout)")
	)
	if fs.Parse(args) != nil {
		return 2
	}

	if *list {
		for _, s := range live.Scenarios {
			fmt.Printf("%-22s %s\n", s.Name, s.About)
		}
		return 0
	}

	var run []live.Scenario
	switch {
	case *schedule != "":
		// The harness would quietly replace a non-positive member count with
		// its default, and a non-positive run length passes vacuously.
		switch {
		case *nodes < 1:
			return fail(2, "chaos", "-nodes %d: need at least 1 member", *nodes)
		case *duration <= 0:
			return fail(2, "chaos", "-duration %v: must be positive", *duration)
		case *warmup < 0:
			return fail(2, "chaos", "-warmup %v: must not be negative", *warmup)
		}
		data, err := os.ReadFile(*schedule)
		if err != nil {
			return fail(2, "chaos", "%v", err)
		}
		sch, err := faultnet.Parse(data)
		if err != nil {
			return fail(2, "chaos", "%s: %v", *schedule, err)
		}
		run = []live.Scenario{{
			Name:     "custom",
			About:    *schedule,
			Nodes:    *nodes,
			Seed:     sch.Seed,
			Warmup:   *warmup,
			Duration: *duration,
			Schedule: *sch,
		}}
	case *scenario == "all":
		run = live.Scenarios
	case *scenario != "":
		s := live.ScenarioByName(*scenario)
		if s == nil {
			return fail(2, "chaos", "unknown scenario %q (try -list)", *scenario)
		}
		run = []live.Scenario{*s}
	default:
		fs.Usage()
		return fail(2, "chaos", "need -list, -scenario or -schedule")
	}

	var spans []tracing.Span
	failed := false
	for _, scn := range run {
		if *seed != 0 {
			scn.Seed = *seed
		}
		if *plan {
			fmt.Printf("# %s seed=%d\n%s", scn.Name, scn.Seed, scn.Plan())
			continue
		}
		rep, err := live.Run(scn)
		if err != nil {
			return fail(1, "chaos", "%s: %v", scn.Name, err)
		}
		fmt.Println(rep.Summary())
		for _, nr := range rep.Nodes {
			s := nr.Stats
			mark := " "
			if nr.Byzantine {
				mark = "!" // adversarial member: excluded from per-node bounds
			}
			fmt.Printf(" %s%-8s attached=%-5v pkts=%-5d repaired=%-4d rejoins=%-3d stalls=%-3d starving=%5.1f%% repairs=%d suppressed=%d quarantines=%d rejects=%d\n",
				mark, nr.Addr, s.Attached, s.PacketsReceived, s.PacketsRepaired, s.Rejoins,
				s.Stalls, s.StarvingRatio()*100, s.RepairRequests, s.RepairsSuppressed,
				s.GuardQuarantines, s.WireRejects)
		}
		if *showLog {
			fmt.Printf("--- fault log\n%s--- link stats\n%s", rep.FaultLog, rep.FaultStats)
		}
		spans = append(spans, rep.Spans...)
		if !rep.OK() {
			failed = true
		}
	}
	if *traceOut != "" {
		if err := writeTo(*traceOut, func(w io.Writer) error { return tracing.WriteJSONL(w, spans) }); err != nil {
			return fail(1, "chaos", "%v", err)
		}
		fmt.Fprintf(os.Stderr, "omcast chaos: wrote %d spans to %s\n", len(spans), *traceOut)
	}
	if failed {
		return 1
	}
	return 0
}
