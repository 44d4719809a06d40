package main

import (
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"omcast/internal/faultnet"
	fnlive "omcast/internal/faultnet/live"
	"omcast/internal/metrics"
	"omcast/internal/metrics/live"
	"omcast/internal/node"
	"omcast/internal/tracing/flight"
	"omcast/internal/wire"
)

// processStart anchors the uptime gauge and the /healthz uptime field.
//
//lint:ignore no-wallclock reason: live node uptime is wall-clock by definition
var processStart = time.Now()

// buildVersion reports the module version baked into the binary ("(devel)"
// for plain `go build`, a tag or pseudo-version for `go install m@v`).
func buildVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		return bi.Main.Version
	}
	return "unknown"
}

// newMux builds the node's HTTP surface: /metrics in the Prometheus text
// exposition format (with build info and a scrape-time uptime gauge),
// /healthz reporting tree attachment, and /debug/trace dumping the span
// flight recorder as JSONL (empty when tracing is disabled).
func newMux(n *node.Node, reg *live.Registry, ring *flight.Ring) *http.ServeMux {
	buildInfo := reg.Gauge("omcast_build_info",
		"Build metadata carried in labels; the value is always 1.",
		metrics.Label{Key: "version", Value: buildVersion()},
		metrics.Label{Key: "goversion", Value: runtime.Version()})
	buildInfo.Set(1)
	uptime := reg.Gauge("omcast_node_uptime_seconds", "Seconds since process start.")
	metricsHandler := live.Handler(reg)

	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		//lint:ignore no-wallclock reason: uptime gauge measures real elapsed time at scrape
		uptime.Set(time.Since(processStart).Seconds())
		metricsHandler.ServeHTTP(w, r)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		s := n.Stats()
		//lint:ignore no-wallclock reason: uptime field reports real elapsed time
		up := time.Since(processStart).Round(time.Second)
		if s.Attached {
			w.WriteHeader(http.StatusOK)
			fmt.Fprintf(w, "ok depth=%d children=%d version=%s uptime=%s\n",
				s.Depth, s.Children, buildVersion(), up)
			return
		}
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintf(w, "joining version=%s uptime=%s\n", buildVersion(), up)
	})
	mux.Handle("/debug/trace", flight.Handler(ring))
	return mux
}

// cmdNode runs one live protocol node over UDP: the deployable counterpart
// of the simulator. Start a source, point members at it, and the overlay
// assembles, streams, heals failures and (optionally) ROST-switches on real
// sockets.
//
//	omcast node -listen 127.0.0.1:7000 -source -bandwidth 8                       # terminal 1
//	omcast node -listen 127.0.0.1:0 -bootstrap 127.0.0.1:7000 -bandwidth 3 -switch 30s  # 2..n
//
// Each node prints a status line every -status interval; SIGINT leaves
// gracefully (children re-attach immediately).
//
// Datagrams are binary v1 envelopes (internal/wire); anything else arriving
// on the socket is counted as a malformed reject. Control-class messages
// (joins, accepts, membership, switches, repair requests) ride a retransmit
// shim tuned by -retx-attempts, -retx-base and -retx-inflight.
//
// With -http the node also serves /metrics (Prometheus text format),
// /healthz (200 once attached, 503 before) and /debug/trace: the last
// -trace-buf completed recovery episodes from the node's causal-span flight
// recorder (rejoins with per-attempt children, CER repair round-trips,
// playback stalls) as JSONL, pipeable straight into `omcast trace analyze`.
//
// For resilience drills, -faults injects a JSON fault schedule (the
// internal/faultnet format: loss, latency, partitions, timed events) on this
// node's own traffic, seed-deterministically.
func cmdNode(args []string) int {
	fs := newFlags("node")
	var (
		listen     = fs.String("listen", "127.0.0.1:0", "UDP address to bind")
		source     = fs.Bool("source", false, "act as the stream source")
		bandwidth  = fs.Float64("bandwidth", 3, "outbound bandwidth (out-degree = floor)")
		bootstrap  = fs.String("bootstrap", "", "comma-separated bootstrap addresses")
		rate       = fs.Float64("rate", 10, "stream rate in packets/second (source)")
		heartbeat  = fs.Duration("heartbeat", time.Second, "heartbeat interval")
		switchIv   = fs.Duration("switch", 0, "ROST switching interval (0 = disabled)")
		status     = fs.Duration("status", 5*time.Second, "status print interval")
		group      = fs.Int("recovery-group", 3, "CER recovery group size")
		httpAddr   = fs.String("http", "", "serve /metrics and /healthz on this address (empty = disabled)")
		faults     = fs.String("faults", "", "JSON fault schedule to inject on this node's traffic (see internal/faultnet)")
		faultSeed  = fs.Int64("fault-seed", 0, "override the fault schedule's seed")
		noGuard    = fs.Bool("no-guard", false, "disable the per-peer misbehavior guard (rate limiting, quarantine, BTP audit)")
		guardRate  = fs.Float64("guard-rate", 0, "per-peer request rate limit in requests/second (0 = default)")
		guardScore = fs.Float64("guard-score", 0, "misbehavior score that triggers quarantine (0 = default)")
		traceBuf   = fs.Int("trace-buf", flight.DefaultSize, "span flight-recorder capacity served on /debug/trace (0 = disable span tracing)")
		retxN      = fs.Int("retx-attempts", 0, "max transmissions per control message (0 = default of 4; 1 = send once, never retransmit)")
		retxBase   = fs.Duration("retx-base", 0, "first retransmit backoff (0 = default of heartbeat/2)")
		retxCap    = fs.Int("retx-inflight", 0, "max unacked control messages per peer (0 = default of 32)")
	)
	if fs.Parse(args) != nil {
		return 2
	}

	if !*source && *bootstrap == "" {
		return fail(2, "node", "members need -bootstrap")
	}
	if *retxN < 0 {
		return fail(2, "node", "-retx-attempts %d: must not be negative", *retxN)
	}
	if *status <= 0 {
		return fail(2, "node", "-status %v: must be positive", *status)
	}
	var boots []wire.Addr
	for _, b := range strings.Split(*bootstrap, ",") {
		if b = strings.TrimSpace(b); b != "" {
			boots = append(boots, wire.Addr(b))
		}
	}
	var sch *faultnet.Schedule
	if *faults != "" {
		data, err := os.ReadFile(*faults)
		if err != nil {
			return fail(2, "node", "%v", err)
		}
		if sch, err = faultnet.Parse(data); err != nil {
			return fail(2, "node", "%s: %v", *faults, err)
		}
	}
	transport, err := node.NewUDPTransport(*listen)
	if err != nil {
		return fail(1, "node", "%v", err)
	}
	reg := live.NewRegistry()
	var tr node.Transport = transport
	if sch != nil {
		fnet := fnlive.NewNetwork(fnlive.Options{Seed: *faultSeed, Schedule: sch, Metrics: reg})
		defer fnet.Close()
		tr = fnet.Wrap(transport)
		fnet.Start()
		fmt.Printf("omcast node: injecting faults from %s (seed %d)\n", *faults, sch.Seed)
	}
	cfg := node.Config{
		Source:               *source,
		Bandwidth:            *bandwidth,
		StreamRate:           *rate,
		Bootstrap:            boots,
		HeartbeatInterval:    *heartbeat,
		SwitchInterval:       *switchIv,
		RecoveryGroup:        *group,
		DisableGuard:         *noGuard,
		GuardRequestRate:     *guardRate,
		GuardQuarantineScore: *guardScore,
		RetxAttempts:         *retxN,
		RetxBackoffBase:      *retxBase,
		RetxInflight:         *retxCap,
		Metrics:              reg,
	}
	var ring *flight.Ring
	if *traceBuf > 0 {
		ring = flight.NewRing(*traceBuf)
		cfg.Trace = ring
	}
	n := node.New(cfg, tr)
	n.Start()
	role := "member"
	if *source {
		role = "source"
	}
	fmt.Printf("omcast node: %s listening on %s\n", role, n.Addr())
	if *httpAddr != "" {
		srv := &http.Server{Addr: *httpAddr, Handler: newMux(n, reg, ring)}
		go func() {
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "omcast node: http: %v\n", err)
			}
		}()
		defer srv.Close()
		fmt.Printf("omcast node: metrics on http://%s/metrics\n", *httpAddr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	//lint:ignore no-wallclock reason: live protocol node; real time is the correct clock here
	ticker := time.NewTicker(*status)
	defer ticker.Stop()
	for {
		select {
		case <-sig:
			fmt.Println("\nomcast node: leaving gracefully")
			n.Stop()
			return 0
		case <-ticker.C:
			s := n.Stats()
			fmt.Printf("attached=%-5v depth=%d parent=%-22s children=%d packet=%d repaired=%d rejoins=%d failovers=%d switches=%d known=%d starving=%.2f%% quarantined=%d rejects=%d ctrl=%d retx=%d acked=%d expired=%d\n",
				s.Attached, s.Depth, s.Parent, s.Children, s.HighestPacket,
				s.PacketsRepaired, s.Rejoins, s.Failovers, s.Switches, s.KnownMembers,
				s.StarvingRatio()*100, s.QuarantinedPeers, s.WireRejects,
				s.CtrlSent, s.RetxSent, s.RetxAcked, s.RetxExpired)
		}
	}
}
