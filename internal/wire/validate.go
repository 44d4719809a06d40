package wire

import (
	"errors"
	"fmt"
	"math"
	"unicode/utf8"
)

// Wire-level caps. The protocol's honest senders stay far below every one of
// these; a datagram over a cap is evidence of a broken or hostile peer, never
// of load. They bound the memory and CPU any single datagram can cost the
// receiver: parse size, per-field lengths, and — critically for CER — the
// width of a repair range (handleRepairRequest walks the range, so an
// unbounded span would be a one-datagram CPU exhaustion attack).
const (
	// MaxDatagram bounds the encoded envelope size the decoder will even parse.
	MaxDatagram = 64 << 10
	// MaxPayload bounds the opaque media bytes in one packet.
	MaxPayload = 32 << 10
	// MaxAddrLen bounds any single address string (host:port and the test
	// transports' map keys are far shorter).
	MaxAddrLen = 200
	// MaxChain bounds the NACK-forwarding chain; it never exceeds the CER
	// recovery-group size K (single digits in the paper).
	MaxChain = 16
	// MaxMembers bounds one gossip exchange's member list.
	MaxMembers = 256
	// MaxAncestors bounds one member's advertised root path (the node itself
	// truncates at 16).
	MaxAncestors = 32
	// MaxRepairSpan bounds LastMissing-FirstMissing+1 in ELN/RepairRequest.
	// Honest requesters clamp to their repair buffer (BufferPackets, default
	// 256); the cap leaves generous headroom for large configured buffers.
	MaxRepairSpan = 1 << 16
	// MaxLimit bounds a membership-reply limit (receivers additionally clamp
	// to their own configured partial-view size).
	MaxLimit = 1024
	// MaxDepth bounds a claimed tree depth.
	MaxDepth = 1 << 20
	// MaxBandwidth bounds a claimed bandwidth (stream-rate units; real
	// deployments are single to double digits).
	MaxBandwidth = 1 << 20
	// MaxBTP bounds a claimed bandwidth-time product: MaxBandwidth times a
	// ten-year stream — any claim beyond it is absurd on its face.
	MaxBTP = MaxBandwidth * 10 * 365 * 24 * 3600
)

// Validation reason tokens: a small fixed vocabulary so rejects can be
// counted per reason as bounded metric labels.
const (
	ReasonMalformed = "malformed" // not an envelope: no magic, truncated, or a length overrun
	ReasonSize      = "size"      // datagram over MaxDatagram
	ReasonType      = "type"      // unknown message type
	ReasonSender    = "sender"    // missing From
	ReasonAddr      = "addr"      // oversized address field
	ReasonNumeric   = "numeric"   // non-finite / negative / absurd numeric claim
	ReasonRange     = "range"     // negative or inverted sequence range
	ReasonSpan      = "span"      // repair range wider than MaxRepairSpan
	ReasonChain     = "chain"     // oversized, looping or self-addressed chain
	ReasonMembers   = "members"   // oversized or corrupt member list
	ReasonLimit     = "limit"     // membership limit outside [0, MaxLimit]
	ReasonPayload   = "payload"   // payload over MaxPayload
	ReasonVersion   = "version"   // envelope with an unknown version byte
	ReasonField     = "field"     // unknown, duplicate or non-canonical field
	ReasonCtrl      = "ctrl"      // reliable-delivery tag on a data-class type, or a tagless ack
)

// ValidationError reports a semantically invalid envelope. The envelope
// parsed — so the sender is known and the guard layer can attribute the
// misbehavior — but its claims are outside what any honest peer sends.
type ValidationError struct {
	// Type is the message type being validated.
	Type Type
	// Reason is one of the Reason* tokens.
	Reason string
	// Detail is the human-readable specifics.
	Detail string
}

// Error implements error.
func (e *ValidationError) Error() string {
	return fmt.Sprintf("wire: invalid %v: %s: %s", e.Type, e.Reason, e.Detail)
}

// Reason extracts the validation reason token from a DecodeBinary/Validate
// error: the ValidationError's reason, or ReasonMalformed for any other
// error. It returns "" for nil.
func Reason(err error) string {
	if err == nil {
		return ""
	}
	var verr *ValidationError
	if errors.As(err, &verr) {
		return verr.Reason
	}
	return ReasonMalformed
}

// Reasons lists every reason token DecodeBinary can produce, for metric
// pre-registration.
func Reasons() []string {
	return []string{
		ReasonMalformed, ReasonSize, ReasonType, ReasonSender, ReasonAddr,
		ReasonNumeric, ReasonRange, ReasonSpan, ReasonChain, ReasonMembers,
		ReasonLimit, ReasonPayload, ReasonVersion, ReasonField, ReasonCtrl,
	}
}

func bad(t Type, reason, format string, args ...any) *ValidationError {
	return &ValidationError{Type: t, Reason: reason, Detail: fmt.Sprintf(format, args...)}
}

// finiteNonNeg reports whether v is a finite, non-negative float no larger
// than max.
func finiteNonNeg(v, max float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0) && v >= 0 && v <= max
}

// ValidAddr bounds an address and requires valid UTF-8: addresses surface as
// attributes of JSONL trace spans, whose encoder replaces invalid sequences,
// so two distinct non-UTF-8 addresses could read as one peer there (and real
// transports never produce one).
func ValidAddr(a Addr) bool {
	return a != "" && len(a) <= MaxAddrLen && utf8.ValidString(string(a))
}

// Validate applies the per-message-type semantic validators: field lengths,
// numeric sanity (finite, non-negative, within the absurdity caps), sequence
// range ordering and width, and chain shape (no empties, duplicates, or the
// sender/requester addressing itself). It returns nil for every envelope an
// honest node produces.
func Validate(env *Envelope) error {
	t := env.Type
	if t < TypeJoin || t > TypeAck {
		return bad(t, ReasonType, "unknown message type %d", int(t))
	}
	if env.From == "" {
		return bad(t, ReasonSender, "missing sender")
	}
	if !ValidAddr(env.From) {
		return bad(t, ReasonAddr, "sender address %d bytes > %d", len(env.From), MaxAddrLen)
	}
	if env.Requester != "" && !ValidAddr(env.Requester) {
		return bad(t, ReasonAddr, "requester address %d bytes > %d", len(env.Requester), MaxAddrLen)
	}
	if env.NewParent != "" && !ValidAddr(env.NewParent) {
		return bad(t, ReasonAddr, "new_parent address %d bytes > %d", len(env.NewParent), MaxAddrLen)
	}
	if !finiteNonNeg(env.Bandwidth, MaxBandwidth) {
		return bad(t, ReasonNumeric, "bandwidth %v outside [0, %d]", env.Bandwidth, int64(MaxBandwidth))
	}
	if !finiteNonNeg(env.BTP, MaxBTP) {
		return bad(t, ReasonNumeric, "btp %v outside [0, %d]", env.BTP, int64(MaxBTP))
	}
	if !finiteNonNeg(env.Epsilon, 1) {
		return bad(t, ReasonNumeric, "epsilon %v outside [0, 1]", env.Epsilon)
	}
	if env.Depth < 0 || env.Depth > MaxDepth {
		return bad(t, ReasonNumeric, "depth %d outside [0, %d]", env.Depth, MaxDepth)
	}
	if env.Limit < 0 || env.Limit > MaxLimit {
		return bad(t, ReasonLimit, "limit %d outside [0, %d]", env.Limit, MaxLimit)
	}
	if len(env.Payload) > MaxPayload {
		return bad(t, ReasonPayload, "payload %d bytes > %d", len(env.Payload), MaxPayload)
	}
	if env.Packet < 0 {
		return bad(t, ReasonRange, "negative packet sequence %d", env.Packet)
	}
	// Ctrl tags mark reliable control delivery: an ack must name the sequence
	// it answers, and data-class traffic (fire-and-forget by design) must not
	// carry one — a tag there would trick receivers into generating acks.
	if t == TypeAck && env.Ctrl == 0 {
		return bad(t, ReasonCtrl, "ack without a ctrl sequence")
	}
	if env.Ctrl != 0 && t != TypeAck && !ControlClass(t) {
		return bad(t, ReasonCtrl, "%v carries a ctrl sequence", t)
	}
	if err := validateRange(env); err != nil {
		return err
	}
	if err := validateChain(env); err != nil {
		return err
	}
	return validateMembers(env)
}

// validateRange checks the [FirstMissing, LastMissing] repair range carried
// by ELN and RepairRequest: non-negative, ordered, width-capped. Other types
// must not carry one (the fields are protocol-inert there, so any non-zero
// value is a forgery or corruption signal).
func validateRange(env *Envelope) error {
	t := env.Type
	switch t {
	case TypeELN, TypeRepairRequest:
		if env.FirstMissing < 0 || env.LastMissing < 0 {
			return bad(t, ReasonRange, "negative repair range [%d, %d]", env.FirstMissing, env.LastMissing)
		}
		if env.LastMissing < env.FirstMissing {
			return bad(t, ReasonRange, "inverted repair range [%d, %d]", env.FirstMissing, env.LastMissing)
		}
		if span := env.LastMissing - env.FirstMissing + 1; span > MaxRepairSpan {
			return bad(t, ReasonSpan, "repair range width %d > %d", span, MaxRepairSpan)
		}
	default:
		if env.FirstMissing != 0 || env.LastMissing != 0 {
			return bad(t, ReasonRange, "%v carries a repair range", t)
		}
	}
	return nil
}

// validateChain checks the NACK-forwarding chain: bounded, well-formed
// addresses, no duplicates (loops), and never containing the sender or the
// original requester — a chain that routes a request back to either is a
// forwarding loop by construction. SwitchCommit reuses Chain as a length-1
// child pointer and gets the same shape checks.
func validateChain(env *Envelope) error {
	t := env.Type
	if len(env.Chain) == 0 {
		return nil
	}
	switch t {
	case TypeELN, TypeRepairRequest, TypeSwitchCommit:
	default:
		return bad(t, ReasonChain, "%v carries a chain", t)
	}
	if len(env.Chain) > MaxChain {
		return bad(t, ReasonChain, "chain length %d > %d", len(env.Chain), MaxChain)
	}
	seen := make(map[Addr]bool, len(env.Chain))
	for _, a := range env.Chain {
		if !ValidAddr(a) {
			return bad(t, ReasonChain, "empty or oversized chain entry")
		}
		if a == env.From {
			return bad(t, ReasonChain, "chain contains the sender %s", a)
		}
		if a == env.Requester {
			return bad(t, ReasonChain, "chain contains the requester %s", a)
		}
		if seen[a] {
			return bad(t, ReasonChain, "chain loops through %s", a)
		}
		seen[a] = true
	}
	return nil
}

// validateMembers checks a gossip member list: bounded, every record
// well-formed with sane capacity claims and a bounded ancestor path.
func validateMembers(env *Envelope) error {
	t := env.Type
	if len(env.Members) == 0 {
		return nil
	}
	if len(env.Members) > MaxMembers {
		return bad(t, ReasonMembers, "member list length %d > %d", len(env.Members), MaxMembers)
	}
	for _, m := range env.Members {
		if !ValidAddr(m.Addr) {
			return bad(t, ReasonMembers, "empty or oversized member address")
		}
		if m.Depth < 0 || m.Depth > MaxDepth {
			return bad(t, ReasonMembers, "member %s depth %d outside [0, %d]", m.Addr, m.Depth, MaxDepth)
		}
		if m.Spare < -MaxDepth || m.Spare > MaxDepth {
			return bad(t, ReasonMembers, "member %s spare %d outside [-%d, %d]", m.Addr, m.Spare, MaxDepth, MaxDepth)
		}
		if !finiteNonNeg(m.Bandwidth, MaxBandwidth) {
			return bad(t, ReasonMembers, "member %s bandwidth %v outside [0, %d]", m.Addr, m.Bandwidth, int64(MaxBandwidth))
		}
		if len(m.Ancestors) > MaxAncestors {
			return bad(t, ReasonMembers, "member %s ancestor path %d > %d", m.Addr, len(m.Ancestors), MaxAncestors)
		}
		for _, a := range m.Ancestors {
			if !ValidAddr(a) {
				return bad(t, ReasonMembers, "member %s has an empty or oversized ancestor", m.Addr)
			}
		}
	}
	return nil
}
