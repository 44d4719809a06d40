package node

import (
	"time"

	"omcast/internal/wire"
)

// This file is the oracle for the repair ring: the node's data path exactly
// as it ran on a map[int64][]byte trimmed by a full walk after every store
// (before PR 23), reduced to the state that path reads and writes, so
// TestRingMatchesMapOracle can hold the ring to the same presence, the same
// repair service and the same counters. Only the type holding it is new.

// refNode is the former data path of one node: sanity check, duplicate
// check, store and trim, playback scoring and repair service over the map.
type refNode struct {
	cfg    Config
	tm     timing
	parent wire.Addr // "" models the source

	buffer     map[int64][]byte
	highest    int64
	streamSeen bool
	jumpStreak int

	playFirst   int64
	playStart   time.Time
	playChecked int64
	inStall     bool

	stats Stats
}

func newRefNode(cfg Config, parent wire.Addr) *refNode {
	cfg = cfg.withDefaults()
	return &refNode{
		cfg:       cfg,
		tm:        newTiming(cfg),
		parent:    parent,
		buffer:    make(map[int64][]byte),
		highest:   -1,
		playFirst: -1,
	}
}

func (r *refNode) trim() {
	low := r.highest - int64(r.cfg.BufferPackets)
	for seq := range r.buffer {
		if seq < low {
			delete(r.buffer, seq)
		}
	}
}

func (r *refNode) emit() int64 {
	seq := r.highest + 1
	r.buffer[seq] = nil
	r.highest = seq
	r.trim()
	return seq
}

// reject is packetReject for a node that stays attached to r.parent.
func (r *refNode) reject(from wire.Addr, seq int64, repaired bool) bool {
	if r.cfg.Source {
		return true
	}
	fromParent := from == r.parent
	if !repaired && !fromParent {
		return true
	}
	span := r.tm.plausibleSpan
	if r.streamSeen && seq > r.highest+span {
		if fromParent && !repaired {
			r.jumpStreak++
			if r.jumpStreak >= jumpResyncStreak {
				r.jumpStreak = 0
				return false
			}
		}
		return true
	}
	if repaired && r.streamSeen && seq < r.highest-span {
		return true
	}
	if fromParent && !repaired {
		r.jumpStreak = 0
	}
	return false
}

// accept is the former acceptPacket; it reports whether the packet was
// forwarded to the children.
func (r *refNode) accept(from wire.Addr, seq int64, payload []byte, repaired bool, now time.Time) bool {
	if r.reject(from, seq, repaired) {
		r.stats.GuardImplausible++
		return false
	}
	if _, dup := r.buffer[seq]; dup {
		return false
	}
	r.buffer[seq] = payload
	r.stats.PacketsReceived++
	r.streamSeen = true
	if repaired {
		r.stats.PacketsRepaired++
	}
	if r.playFirst < 0 {
		r.playFirst = seq
		r.playChecked = seq - 1
		r.playStart = now.Add(r.cfg.PlaybackBuffer)
	}
	if seq > r.highest {
		r.highest = seq
	}
	r.trim()
	return true
}

// advancePlayback is the former Node.advancePlayback.
func (r *refNode) advancePlayback(now time.Time) {
	if r.playFirst < 0 || now.Before(r.playStart) {
		return
	}
	due := r.playFirst + int64(now.Sub(r.playStart).Seconds()*r.cfg.StreamRate)
	for seq := r.playChecked + 1; seq <= due; seq++ {
		if _, ok := r.buffer[seq]; ok {
			r.stats.PlayedSlots++
			r.inStall = false
		} else {
			r.stats.StarvedSlots++
			if !r.inStall {
				r.inStall = true
				r.stats.Stalls++
			}
			r.stats.StallSeconds += 1 / r.cfg.StreamRate
		}
		r.playChecked = seq
	}
}

// serve is the scan of the former handleRepairRequest: the sequences of
// [first, last] in this node's stripe share that the buffer holds.
func (r *refNode) serve(first, last int64, epsilon float64) []int64 {
	share := 1.0 / float64(r.cfg.RecoveryGroup)
	lo, hi := epsilon, epsilon+share
	if low := r.highest - int64(r.cfg.BufferPackets); first < low {
		first = low
	}
	if last > r.highest {
		last = r.highest
	}
	var out []int64
	for seq := first; seq <= last; seq++ {
		frac := float64(seq%100) / 100
		if frac >= lo && frac < hi {
			if _, ok := r.buffer[seq]; ok {
				out = append(out, seq)
			}
		}
	}
	r.stats.RepairsServed += int64(len(out))
	return out
}
