package node

import (
	"fmt"
	"testing"
	"time"

	"omcast/internal/wire"
)

// BenchmarkAttachRetx is the control-plane composite: one member boots
// against a standing source, completes the join/accept exchange through the
// retransmit shim (sequence, ack, dedup bookkeeping), then leaves gracefully
// — the attach round-trip cost a live overlay pays per arriving viewer.
func BenchmarkAttachRetx(b *testing.B) {
	w := newWorld(b)
	// The accelerated timing profile: attach latency is dominated by one
	// backoff step scaled by the heartbeat interval (the first join attempt
	// only fetches membership), so slow timers would measure the config, not
	// the control path.
	srcCfg := Config{
		Source:            true,
		Bandwidth:         4,
		StreamRate:        1, // quiet data plane: the bench times control traffic
		HeartbeatInterval: 10 * time.Millisecond,
		GossipInterval:    25 * time.Millisecond,
	}
	w.node("source", srcCfg).Start()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := Config{
			Bandwidth:         3,
			Bootstrap:         []wire.Addr{"source"},
			HeartbeatInterval: 10 * time.Millisecond,
			GossipInterval:    25 * time.Millisecond,
		}
		nd := w.node(wire.Addr(fmt.Sprintf("m%d", i)), cfg)
		nd.Start()
		for !nd.Stats().Attached {
			w.advance(time.Millisecond)
		}
		nd.Stop() // graceful leave frees the slot for the next iteration
	}
}
