// Package wire defines the message vocabulary of the live protocol runtime
// (internal/node): the joining handshake, parent/child heartbeats, stream
// packets, Explicit Loss Notification, CER repair exchanges, membership
// gossip, the ROST switching handshake, and the control-delivery acks of the
// retransmit shim. Envelopes travel in one format, binary v1 (binary.go): a
// magic-prefixed, versioned, canonical encoding — exactly one byte string per
// envelope. DecodeBinary (DecodeBinaryWith, for a receiver that interns its
// senders) is the single parser a received datagram meets, and Validate the
// single semantic check behind it; everything else arriving on the socket is
// rejected as malformed and charged to nobody.
package wire

import "fmt"

// Type discriminates protocol messages.
type Type int

// Message types.
const (
	// TypeJoin asks a prospective parent for a slot.
	TypeJoin Type = iota + 1
	// TypeAccept grants a slot (the joiner is now a child).
	TypeAccept
	// TypeReject declines a join (no spare out-degree).
	TypeReject
	// TypeLeave announces a graceful departure to neighbours.
	TypeLeave
	// TypeHeartbeat is the parent/child liveness exchange.
	TypeHeartbeat
	// TypePacket carries one stream packet.
	TypePacket
	// TypeELN is the Explicit Loss Notification: "this gap is not my fault;
	// recovery is happening upstream".
	TypeELN
	// TypeRepairRequest asks a recovery node for missing packets.
	TypeRepairRequest
	// TypeRepairData returns repaired packets.
	TypeRepairData
	// TypeMembershipRequest asks a peer for the members it knows.
	TypeMembershipRequest
	// TypeMembershipReply returns a sample of known members.
	TypeMembershipReply
	// TypeSwitchPropose opens the ROST switching handshake with the parent
	// (carries the initiator's claimed BTP).
	TypeSwitchPropose
	// TypeSwitchAccept locks the parent and approves the exchange.
	TypeSwitchAccept
	// TypeSwitchReject declines (lock held, claim rejected, or condition
	// stale).
	TypeSwitchReject
	// TypeSwitchCommit finalises the exchange; both sides re-point links.
	TypeSwitchCommit
	// TypeAck acknowledges one reliable control message (Ctrl carries the
	// sequence being acked). Acks themselves are fire-and-forget.
	TypeAck
)

// String names the message type.
func (t Type) String() string {
	switch t {
	case TypeJoin:
		return "join"
	case TypeAccept:
		return "accept"
	case TypeReject:
		return "reject"
	case TypeLeave:
		return "leave"
	case TypeHeartbeat:
		return "heartbeat"
	case TypePacket:
		return "packet"
	case TypeELN:
		return "eln"
	case TypeRepairRequest:
		return "repair-request"
	case TypeRepairData:
		return "repair-data"
	case TypeMembershipRequest:
		return "membership-request"
	case TypeMembershipReply:
		return "membership-reply"
	case TypeSwitchPropose:
		return "switch-propose"
	case TypeSwitchAccept:
		return "switch-accept"
	case TypeSwitchReject:
		return "switch-reject"
	case TypeSwitchCommit:
		return "switch-commit"
	case TypeAck:
		return "ack"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// Addr identifies a protocol endpoint (transport-specific string: a map key
// for the in-memory transport, host:port for UDP).
type Addr string

// MemberInfo is the gossip record for one member: enough for min-depth
// parent selection (depth, spare slots) and MLC group construction (the
// ancestor path).
type MemberInfo struct {
	Addr Addr
	// Depth is the member's layer in the tree.
	Depth int
	// Spare is its remaining out-degree.
	Spare int
	// Bandwidth is its advertised outbound bandwidth.
	Bandwidth float64
	// Ancestors is the member's root path, nearest first.
	Ancestors []Addr
}

// Envelope is the on-wire frame.
type Envelope struct {
	Type Type
	From Addr

	// Join / Accept / Reject.
	Bandwidth float64 // joiner's advertised bandwidth
	Depth     int     // acceptor's depth

	// Heartbeat.
	Seq uint64

	// Packet / RepairData.
	Packet  int64  // sequence number
	Payload []byte // opaque media bytes

	// ELN / RepairRequest: the missing range [FirstMissing, LastMissing].
	FirstMissing int64
	LastMissing  int64
	// Chain lists further recovery nodes for NACK forwarding.
	Chain []Addr
	// Requester is the original repair requester when a request is
	// forwarded along the chain (From is always the immediate sender).
	Requester Addr
	// Epsilon is the responder's residual bandwidth share already consumed
	// (striping offset) when a request is forwarded along the chain.
	Epsilon float64

	// Membership gossip.
	Members []MemberInfo
	// Limit bounds a membership reply.
	Limit int

	// Switch handshake.
	BTP float64 // initiator's claimed bandwidth-time product
	// NewParent tells a re-pointed child where to attach after a commit.
	NewParent Addr

	// Ctrl is the reliable-delivery sequence of the retransmit shim: non-zero
	// on control-class messages the sender wants acked, and on the Ack that
	// answers one. Zero means fire-and-forget.
	Ctrl uint64
}

// ControlClass reports whether a message type belongs to the reliable control
// class: the handshakes whose loss stalls the protocol into a timeout cycle
// (join/accept/reject/leave, membership gossip, ROST switching, repair
// requests). Data-class traffic — stream packets, repair data, heartbeats,
// ELN and the acks themselves — is periodic or best-effort by design and
// stays fire-and-forget.
func ControlClass(t Type) bool {
	switch t {
	case TypeJoin, TypeAccept, TypeReject, TypeLeave,
		TypeMembershipRequest, TypeMembershipReply, TypeRepairRequest,
		TypeSwitchPropose, TypeSwitchAccept, TypeSwitchReject, TypeSwitchCommit:
		return true
	}
	return false
}
