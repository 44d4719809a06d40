package live

import (
	"omcast/internal/faultnet"
	"omcast/internal/wire"
)

// defaultForgeFactor scales the "btp" forgery when the rule leaves
// ForgeFactor zero: strong enough that a single forged claim outruns any
// honest bandwidth's allowed growth.
const defaultForgeFactor = 50

// forgeBytes applies the rule's field-level forgery to a datagram: the
// in-flight adversary that rewrites protocol claims instead of flipping bits.
// It returns the forged datagram and whether anything changed. Datagrams that
// do not decode, or whose type the forge kind does not target, pass through
// untouched — the forger is a protocol-aware attacker, not a fuzzer (Corrupt
// models the latter). The forged envelope is re-encoded canonically, so the
// rewrite is invisible at the framing layer.
func forgeBytes(rule faultnet.Rule, data []byte) ([]byte, bool) {
	if rule.Forge == "" {
		return data, false
	}
	env, err := wire.DecodeBinary(data)
	if err != nil {
		return data, false
	}
	switch rule.Forge {
	case faultnet.ForgeBTP:
		if env.Type != wire.TypeHeartbeat && env.Type != wire.TypeSwitchPropose {
			return data, false
		}
		f := rule.ForgeFactor
		if f <= 0 {
			f = defaultForgeFactor
		}
		// claim' = claim*f + f: inflated even when the genuine claim is still
		// zero, so the very first heartbeat already lies.
		env.BTP = env.BTP*f + f
	case faultnet.ForgeRepair:
		if env.Type != wire.TypeRepairRequest && env.Type != wire.TypeELN {
			return data, false
		}
		// Invert the range: wire validation at the receiver rejects it and
		// attributes the misbehavior to the (byzantine) sender.
		env.FirstMissing = env.LastMissing + 5
	default:
		return data, false
	}
	forged, err := wire.EncodeBinary(env)
	if err != nil {
		return data, false
	}
	return forged, true
}

// datagramClass sorts a datagram into the Rule.Class vocabulary. Control
// covers the attachment/membership/switch/repair-request exchanges plus their
// acks (the reverse leg of the same exchange); everything else — including
// datagrams too mangled to decode — is data.
func datagramClass(data []byte) string {
	env, err := wire.DecodeBinaryRaw(data)
	if err != nil {
		return faultnet.ClassData
	}
	if wire.ControlClass(env.Type) || env.Type == wire.TypeAck {
		return faultnet.ClassControl
	}
	return faultnet.ClassData
}

// corruptBytes flips one bit of the datagram at the decision's deterministic
// position. Empty datagrams pass through.
func corruptBytes(dec faultnet.Decision, data []byte) []byte {
	if len(data) == 0 {
		return data
	}
	out := append([]byte(nil), data...)
	pos := int(dec.CorruptPos * float64(len(out)))
	if pos >= len(out) {
		pos = len(out) - 1
	}
	bit := uint(dec.CorruptBit * 8)
	if bit > 7 {
		bit = 7
	}
	out[pos] ^= 1 << bit
	return out
}
