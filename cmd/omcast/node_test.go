package main

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"omcast/internal/metrics"
	"omcast/internal/metrics/live"
	"omcast/internal/node"
	"omcast/internal/tracing"
	"omcast/internal/tracing/flight"
	"omcast/internal/wire"
)

// bootPair starts a source and one member on an in-memory network and
// returns them with their live registries and the member's flight ring.
func bootPair(t *testing.T) (src, member *node.Node, srcReg, memReg *live.Registry, memRing *flight.Ring) {
	t.Helper()
	network := node.NewMemNetwork(nil, nil)
	t.Cleanup(network.Close)

	srcReg = live.NewRegistry()
	sep, err := network.Endpoint("source")
	if err != nil {
		t.Fatal(err)
	}
	src = node.New(node.Config{
		Source:            true,
		Bandwidth:         8,
		StreamRate:        50,
		HeartbeatInterval: 20 * time.Millisecond,
		Metrics:           srcReg,
	}, sep)
	src.Start()
	t.Cleanup(src.Kill)

	memReg = live.NewRegistry()
	memRing = flight.NewRing(0)
	mep, err := network.Endpoint("member")
	if err != nil {
		t.Fatal(err)
	}
	member = node.New(node.Config{
		Bandwidth:         3,
		Bootstrap:         []wire.Addr{"source"},
		HeartbeatInterval: 20 * time.Millisecond,
		Metrics:           memReg,
		Trace:             memRing,
	}, mep)
	member.Start()
	t.Cleanup(member.Kill)
	return src, member, srcReg, memReg, memRing
}

func get(t *testing.T, srv *httptest.Server, path string) (int, string, http.Header) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header
}

func TestMetricsEndpoint(t *testing.T) {
	src, _, srcReg, _, _ := bootPair(t)
	srv := httptest.NewServer(newMux(src, srcReg, nil))
	defer srv.Close()

	code, body, hdr := get(t, srv, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	if ct := hdr.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("content type = %q", ct)
	}
	for _, want := range []string{
		"# TYPE omcast_node_heartbeats_sent_total counter",
		"omcast_node_attached 1",
		`omcast_build_info{goversion="`, // build metadata rides the registry
		"# TYPE omcast_node_uptime_seconds gauge",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
}

// TestNodeRegistryCountsOversizeDrops: the registry omcast node serves on
// /metrics carries the UDP transport's oversize-drop counter.
func TestNodeRegistryCountsOversizeDrops(t *testing.T) {
	tr, reg, err := listenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if err := tr.Send(tr.Addr(), make([]byte, node.MaxUDPDatagram+1)); !errors.Is(err, node.ErrOversize) {
		t.Fatalf("Send = %v, want ErrOversize", err)
	}
	var b strings.Builder
	if err := metrics.WriteProm(&b, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if want := "omcast_node_udp_oversize_dropped_total 1"; !strings.Contains(b.String(), want) {
		t.Fatalf("node registry missing %q:\n%s", want, b.String())
	}
}

func TestHealthzLifecycle(t *testing.T) {
	src, member, srcReg, memReg, memRing := bootPair(t)

	// The source is attached by definition: healthy immediately, and the
	// health line carries build identity and uptime.
	srcSrv := httptest.NewServer(newMux(src, srcReg, nil))
	defer srcSrv.Close()
	code, body, _ := get(t, srcSrv, "/healthz")
	if code != http.StatusOK || !strings.HasPrefix(body, "ok ") {
		t.Fatalf("source /healthz = %d %q, want 200 ok", code, body)
	}
	for _, want := range []string{"version=", "uptime="} {
		if !strings.Contains(body, want) {
			t.Fatalf("source /healthz %q missing %q", body, want)
		}
	}

	// The member reports 503 until it attaches, then 200.
	memSrv := httptest.NewServer(newMux(member, memReg, memRing))
	defer memSrv.Close()
	deadline := time.Now().Add(5 * time.Second)
	sawJoining := false
	for {
		code, body, _ := get(t, memSrv, "/healthz")
		if code == http.StatusOK {
			if !strings.HasPrefix(body, "ok ") {
				t.Fatalf("healthy body = %q", body)
			}
			break
		}
		if code != http.StatusServiceUnavailable {
			t.Fatalf("/healthz status = %d, want 200 or 503", code)
		}
		sawJoining = true
		if time.Now().After(deadline) {
			t.Fatal("member never became healthy")
		}
		time.Sleep(10 * time.Millisecond)
	}
	_ = sawJoining // racing the join is fine; 503-then-200 is asserted when observed
}

// TestDebugTraceEndpoint waits for the member's boot join episode to
// complete and asserts /debug/trace serves it as parseable span JSONL.
func TestDebugTraceEndpoint(t *testing.T) {
	_, member, _, memReg, memRing := bootPair(t)
	srv := httptest.NewServer(newMux(member, memReg, memRing))
	defer srv.Close()

	deadline := time.Now().Add(5 * time.Second)
	for !member.Stats().Attached {
		if time.Now().After(deadline) {
			t.Fatal("member never attached")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The join span is recorded under the node mutex before Attached flips,
	// so it is visible as soon as the poll above succeeds.
	code, body, hdr := get(t, srv, "/debug/trace")
	if code != http.StatusOK {
		t.Fatalf("/debug/trace status = %d", code)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type = %q", ct)
	}
	spans, err := tracing.ReadSpans(strings.NewReader(body))
	if err != nil {
		t.Fatalf("parsing /debug/trace: %v", err)
	}
	var joined bool
	for _, sp := range spans {
		if sp.Kind == tracing.KindJoin && sp.Outcome == "attached" {
			joined = true
			if sp.Node != string(member.Addr()) {
				t.Fatalf("join span node = %q, want %q", sp.Node, member.Addr())
			}
		}
	}
	if !joined {
		t.Fatalf("no completed join span in /debug/trace:\n%s", body)
	}
}

// TestNodeStatusIntervalRejected: a non-positive -status would reach
// time.NewTicker and panic after the socket opened; it is a usage error.
func TestNodeStatusIntervalRejected(t *testing.T) {
	for _, iv := range []string{"0", "-3s"} {
		if code := cmdNode([]string{"-source", "-status", iv}); code != 2 {
			t.Errorf("node -status %s = %d, want 2", iv, code)
		}
	}
}
