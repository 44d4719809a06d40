// Chrome trace-event export: `omcast trace convert -format perfetto` turns
// a span trace into JSON loadable in Perfetto (ui.perfetto.dev) or
// chrome://tracing, one named track per member (or per live node), with
// every episode a complete ("X") slice whose args carry the span's ID,
// parent, outcome and attributes.
package tracing

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// perfettoEvent is one entry of the Chrome trace-event format's
// traceEvents array. Timestamps and durations are microseconds.
type perfettoEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  *float64          `json:"dur,omitempty"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

type perfettoFile struct {
	TraceEvents     []perfettoEvent `json:"traceEvents"`
	DisplayTimeUnit string          `json:"displayTimeUnit"`
}

// trackKey identifies one Perfetto track: a live node's address, or a sim
// member ID when the span carries no node.
type trackKey struct {
	node   string
	member int64
}

func (k trackKey) label() string {
	if k.node != "" {
		return k.node
	}
	return fmt.Sprintf("member %d", k.member)
}

// WritePerfetto emits the spans as Chrome trace-event JSON. Tracks are
// assigned deterministic tids (sorted by node then member), each track
// gets a thread_name metadata event, and slices within a track are sorted
// by start time so per-track timestamps are monotonic.
func WritePerfetto(w io.Writer, spans []Span) error {
	keyOf := func(sp Span) trackKey {
		k := trackKey{node: sp.Node}
		if k.node == "" {
			k.member = sp.Member
		}
		return k
	}
	seen := make(map[trackKey]bool)
	var keys []trackKey
	for _, sp := range spans {
		if k := keyOf(sp); !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].node != keys[j].node {
			return keys[i].node < keys[j].node
		}
		return keys[i].member < keys[j].member
	})
	tids := make(map[trackKey]int, len(keys))
	file := perfettoFile{DisplayTimeUnit: "ms", TraceEvents: []perfettoEvent{}}
	for i, k := range keys {
		tids[k] = i + 1
		file.TraceEvents = append(file.TraceEvents, perfettoEvent{
			Name: "thread_name",
			Ph:   "M",
			Pid:  1,
			Tid:  i + 1,
			Args: map[string]string{"name": k.label()},
		})
	}
	slices := make([]perfettoEvent, 0, len(spans))
	for _, sp := range spans {
		args := map[string]string{
			"id":      sp.ID,
			"outcome": sp.Outcome,
		}
		if sp.Parent != "" {
			args["parent"] = sp.Parent
		}
		for _, a := range sp.Attrs {
			args[a.K] = a.V
		}
		dur := sp.Duration() * 1e6
		if dur < 0 {
			dur = 0
		}
		slices = append(slices, perfettoEvent{
			Name: sp.Kind,
			Cat:  sp.Kind,
			Ph:   "X",
			Ts:   sp.Start * 1e6,
			Dur:  &dur,
			Pid:  1,
			Tid:  tids[keyOf(sp)],
			Args: args,
		})
	}
	sort.SliceStable(slices, func(i, j int) bool {
		if slices[i].Tid != slices[j].Tid {
			return slices[i].Tid < slices[j].Tid
		}
		if slices[i].Ts != slices[j].Ts {
			return slices[i].Ts < slices[j].Ts
		}
		return slices[i].Args["id"] < slices[j].Args["id"]
	})
	file.TraceEvents = append(file.TraceEvents, slices...)
	data, err := json.Marshal(file)
	if err != nil {
		return fmt.Errorf("tracing: encoding perfetto trace: %w", err)
	}
	data = append(data, '\n')
	if _, err := w.Write(data); err != nil {
		return fmt.Errorf("tracing: writing perfetto trace: %w", err)
	}
	return nil
}
