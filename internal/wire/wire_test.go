package wire

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestRoundTrip(t *testing.T) {
	cases := []Envelope{
		{Type: TypeJoin, From: "a", Bandwidth: 3.5},
		{Type: TypeAccept, From: "b", Depth: 2},
		{Type: TypeReject, From: "b"},
		{Type: TypeLeave, From: "c"},
		{Type: TypeHeartbeat, From: "a", Seq: 42},
		{Type: TypePacket, From: "s", Packet: 1000, Payload: []byte{1, 2, 3}},
		{Type: TypeELN, From: "a", FirstMissing: 10, LastMissing: 20},
		{Type: TypeRepairRequest, From: "a", FirstMissing: 10, LastMissing: 160, Chain: []Addr{"r2", "r3"}, Epsilon: 0.4},
		{Type: TypeRepairData, From: "r", Packet: 15, Payload: []byte("x")},
		{Type: TypeMembershipRequest, From: "a", Limit: 100},
		{Type: TypeMembershipReply, From: "b", Members: []MemberInfo{
			{Addr: "m1", Depth: 3, Spare: 2, Bandwidth: 4, Ancestors: []Addr{"p", "root"}},
		}},
		{Type: TypeSwitchPropose, From: "a", BTP: 123.4},
		{Type: TypeSwitchAccept, From: "p"},
		{Type: TypeSwitchReject, From: "p"},
		{Type: TypeSwitchCommit, From: "a", NewParent: "a"},
		{Type: TypeAck, From: "a", Ctrl: 7},
	}
	for _, env := range cases {
		got, err := DecodeBinary(mustEncode(t, env))
		if err != nil {
			t.Fatalf("DecodeBinary(%v): %v", env.Type, err)
		}
		if !reflect.DeepEqual(got, env) {
			t.Fatalf("round trip changed the envelope: %+v -> %+v", env, got)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := DecodeBinary([]byte("{not an envelope")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := DecodeBinary(mustEncode(t, Envelope{Type: 999, From: "a"})); err == nil {
		t.Fatal("unknown type accepted")
	}
	if _, err := DecodeBinary(mustEncode(t, Envelope{Type: TypeJoin})); err == nil {
		t.Fatal("missing sender accepted")
	}
}

func mustEncode(t *testing.T, env Envelope) []byte {
	t.Helper()
	b, err := EncodeBinary(env)
	if err != nil {
		t.Fatalf("EncodeBinary(%v): %v", env.Type, err)
	}
	return b
}

func TestTypeStrings(t *testing.T) {
	for ty := TypeJoin; ty <= TypeAck; ty++ {
		if s := ty.String(); strings.HasPrefix(s, "Type(") {
			t.Fatalf("type %d has no name", int(ty))
		}
	}
	if Type(99).String() != "Type(99)" {
		t.Fatal("unknown type string wrong")
	}
}

// TestRoundTripProperty: any envelope an honest node could send — valid
// type, sender, non-negative in-cap numerics — survives the round trip.
// (Out-of-domain values are decode *rejections*; those live in
// validate_test.go.)
func TestRoundTripProperty(t *testing.T) {
	f := func(tRaw uint8, from string, pkt int64, btp float64, seq uint64) bool {
		if from == "" {
			from = "x"
		}
		if len(from) > MaxAddrLen {
			from = "too-long" // byte-truncation could split a rune; just swap it
		}
		if pkt < 0 {
			pkt = -pkt
		}
		if pkt < 0 { // MinInt64 negates to itself
			pkt = 0
		}
		if btp < 0 {
			btp = -btp
		}
		for btp > MaxBTP {
			btp /= MaxBTP
		}
		env := Envelope{
			Type:   Type(int(tRaw)%int(TypeSwitchCommit) + 1),
			From:   Addr(from),
			Packet: pkt,
			BTP:    btp,
			Seq:    seq,
		}
		b, err := EncodeBinary(env)
		if err != nil {
			return false
		}
		got, err := DecodeBinary(b)
		if err != nil {
			return false
		}
		return got.Type == env.Type && got.From == env.From &&
			got.Packet == env.Packet && got.BTP == env.BTP && got.Seq == env.Seq
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// recordingInterner returns a fixed address and records what it was given.
type recordingInterner struct {
	calls []string
	out   Addr
}

func (r *recordingInterner) Intern(b []byte) Addr {
	r.calls = append(r.calls, string(b))
	return r.out
}

// TestInternerSuppliesOnlyFrom: DecodeBinaryWith asks the interner for the
// sender once and uses its answer; the other addresses (chain, requester,
// members, ancestors, new parent) and every other field decode as
// DecodeBinary decodes them.
func TestInternerSuppliesOnlyFrom(t *testing.T) {
	env := Envelope{Type: TypeSwitchCommit, From: "sender", Chain: []Addr{"old"}, NewParent: "np", Ctrl: 11}
	b := mustEncode(t, env)
	in := &recordingInterner{out: "sender"}
	var got Envelope
	if err := DecodeBinaryWith(&got, b, in); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in.calls, []string{"sender"}) {
		t.Fatalf("interner called with %q, want only the sender", in.calls)
	}
	if !reflect.DeepEqual(got, env) {
		t.Fatalf("decoded %+v, want %+v", got, env)
	}
	in = &recordingInterner{out: "interned"}
	if err := DecodeBinaryWith(&got, b, in); err != nil || got.From != "interned" {
		t.Fatalf("From = %q (err %v), want the interner's answer", got.From, err)
	}
	if err := DecodeBinaryWith(&got, mustEncode(t, Envelope{Type: TypeJoin, Bandwidth: 1}), in); Reason(err) != ReasonSender {
		t.Fatalf("missing sender: %v, want reason %q", err, ReasonSender)
	}
	if len(in.calls) != 1 {
		t.Fatalf("interner called %d times, want once (never for an absent sender)", len(in.calls))
	}
}
