package stream

// span is a half-open range [from, to) of stream sequence numbers.
type span struct{ from, to int64 }

// spanSet tracks which sequence numbers of a member's stream have already
// been accounted by an outage episode, so overlapping episodes are never
// double-counted. Episodes arrive with non-decreasing windows in virtual
// time, so accounting a window may also forget everything below it: the set
// is always the prefix up to watermark (every n <= watermark is accounted),
// and per-member loss state is one int64, never per-packet.
type spanSet struct {
	watermark int64
}

// uncovered returns the part of [from, to) not yet accounted: from clipped
// to the watermark. It is empty (from == to) when the whole range is.
func (s *spanSet) uncovered(from, to int64) span {
	return span{min(max(from, s.watermark+1), to), to}
}

// add accounts every sequence number below to: an episode's window and,
// since no later window reaches back, everything before it.
func (s *spanSet) add(to int64) {
	s.watermark = max(s.watermark, to-1)
}
