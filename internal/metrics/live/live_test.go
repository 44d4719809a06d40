package live

import (
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"omcast/internal/metrics"
)

func TestCounterGaugeConcurrent(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("omcast_node_ops_total", "")
	g := reg.Gauge("omcast_node_depth", "")
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				c.Add(1)
				g.Set(float64(i))
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per*2 {
		t.Fatalf("counter = %v, want %v", got, workers*per*2)
	}
	if got := g.Value(); got != per-1 {
		t.Fatalf("gauge = %v, want %v", got, per-1)
	}
}

func TestRegistryDedupAndSnapshot(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("omcast_node_x_total", "", metrics.Label{Key: "peer", Value: "parent"})
	b := reg.Counter("omcast_node_x_total", "", metrics.Label{Key: "peer", Value: "parent"})
	if a != b {
		t.Fatal("re-registration must return the existing counter")
	}
	a.Add(7)
	snap := reg.Snapshot()
	if snap.T < 0 {
		t.Fatalf("snapshot T (uptime) negative: %v", snap.T)
	}
	if len(snap.Metrics) != 1 || snap.Metrics[0].Value != 7 {
		t.Fatalf("snapshot = %+v", snap.Metrics)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind clash did not panic")
		}
	}()
	reg.Gauge("omcast_node_x_total", "", metrics.Label{Key: "peer", Value: "parent"})
}

// TestSnapshotWhileWriting exercises Snapshot concurrently with writers so
// `go test -race` can catch unsynchronised access.
func TestSnapshotWhileWriting(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("omcast_node_busy_total", "")
	g := reg.Gauge("omcast_node_busy_level", "")
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
					c.Inc()
					g.Set(0.01)
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		reg.Snapshot()
	}
	close(done)
	wg.Wait()
}

func TestHandler(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("omcast_node_packets_received_total", "packets accepted").Add(3)
	srv := httptest.NewServer(Handler(reg))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE omcast_node_packets_received_total counter",
		"omcast_node_packets_received_total 3",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}
