package wire

import (
	"math"
	"strings"
	"testing"
)

// ok is a minimal valid envelope per type, mutated by the reject cases.
func ok(t Type) Envelope {
	env := Envelope{Type: t, From: "a"}
	switch t {
	case TypeELN, TypeRepairRequest:
		env.FirstMissing, env.LastMissing = 5, 9
	}
	return env
}

func TestValidateAccepts(t *testing.T) {
	cases := []Envelope{
		{Type: TypeJoin, From: "a", Bandwidth: 3},
		{Type: TypeAccept, From: "p", Depth: 4},
		{Type: TypeHeartbeat, From: "p", Seq: 9, BTP: 120, Bandwidth: 3, Depth: 2},
		{Type: TypePacket, From: "s", Packet: 77, Payload: make([]byte, MaxPayload)},
		{Type: TypeELN, From: "p", FirstMissing: 0, LastMissing: 0},
		{Type: TypeELN, From: "p", FirstMissing: 10, LastMissing: 10 + MaxRepairSpan - 1},
		{Type: TypeRepairRequest, From: "a", FirstMissing: 3, LastMissing: 40,
			Chain: []Addr{"r2", "r3"}, Requester: "orig", Epsilon: 0.66},
		{Type: TypeRepairData, From: "r", Packet: 12},
		{Type: TypeMembershipRequest, From: "a", Limit: MaxLimit},
		{Type: TypeMembershipReply, From: "b", Members: []MemberInfo{
			{Addr: "m", Depth: 2, Spare: -1, Bandwidth: 3, Ancestors: []Addr{"p", "root"}},
		}},
		{Type: TypeSwitchPropose, From: "c", BTP: 99.5},
		{Type: TypeSwitchCommit, From: "i", Chain: []Addr{"old-child"}},
		{Type: TypeSwitchCommit, From: "i", NewParent: "np"},
	}
	for _, env := range cases {
		if err := Validate(&env); err != nil {
			t.Errorf("Validate(%v) rejected an honest envelope: %v", env.Type, err)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	long := Addr(strings.Repeat("x", MaxAddrLen+1))
	cases := []struct {
		name   string
		env    Envelope
		reason string
	}{
		{"unknown-type", Envelope{Type: 99, From: "a"}, ReasonType},
		{"zero-type", Envelope{From: "a"}, ReasonType},
		{"no-sender", Envelope{Type: TypeJoin}, ReasonSender},
		{"long-sender", Envelope{Type: TypeJoin, From: long}, ReasonAddr},
		{"long-requester", func() Envelope { e := ok(TypeRepairRequest); e.Requester = long; return e }(), ReasonAddr},
		{"long-new-parent", func() Envelope { e := ok(TypeSwitchCommit); e.NewParent = long; return e }(), ReasonAddr},
		{"nan-btp", func() Envelope { e := ok(TypeSwitchPropose); e.BTP = math.NaN(); return e }(), ReasonNumeric},
		{"inf-btp", func() Envelope { e := ok(TypeHeartbeat); e.BTP = math.Inf(1); return e }(), ReasonNumeric},
		{"negative-btp", func() Envelope { e := ok(TypeHeartbeat); e.BTP = -1; return e }(), ReasonNumeric},
		{"absurd-btp", func() Envelope { e := ok(TypeHeartbeat); e.BTP = MaxBTP * 2; return e }(), ReasonNumeric},
		{"negative-bandwidth", func() Envelope { e := ok(TypeJoin); e.Bandwidth = -3; return e }(), ReasonNumeric},
		{"nan-epsilon", func() Envelope { e := ok(TypeRepairRequest); e.Epsilon = math.NaN(); return e }(), ReasonNumeric},
		{"epsilon-over-1", func() Envelope { e := ok(TypeRepairRequest); e.Epsilon = 1.5; return e }(), ReasonNumeric},
		{"negative-depth", func() Envelope { e := ok(TypeAccept); e.Depth = -2; return e }(), ReasonNumeric},
		{"absurd-depth", func() Envelope { e := ok(TypeAccept); e.Depth = MaxDepth + 1; return e }(), ReasonNumeric},
		{"negative-limit", func() Envelope { e := ok(TypeMembershipRequest); e.Limit = -1; return e }(), ReasonLimit},
		{"huge-limit", func() Envelope { e := ok(TypeMembershipRequest); e.Limit = MaxLimit + 1; return e }(), ReasonLimit},
		{"huge-payload", func() Envelope { e := ok(TypePacket); e.Payload = make([]byte, MaxPayload+1); return e }(), ReasonPayload},
		{"negative-packet", func() Envelope { e := ok(TypePacket); e.Packet = -7; return e }(), ReasonRange},
		{"negative-range", Envelope{Type: TypeRepairRequest, From: "a", FirstMissing: -1, LastMissing: 4}, ReasonRange},
		{"inverted-range", Envelope{Type: TypeRepairRequest, From: "a", FirstMissing: 9, LastMissing: 3}, ReasonRange},
		{"inverted-eln", Envelope{Type: TypeELN, From: "a", FirstMissing: 9, LastMissing: 3}, ReasonRange},
		{"huge-span", Envelope{Type: TypeRepairRequest, From: "a", FirstMissing: 0, LastMissing: MaxRepairSpan}, ReasonSpan},
		{"range-on-packet", func() Envelope { e := ok(TypePacket); e.LastMissing = 5; return e }(), ReasonRange},
		{"chain-on-join", func() Envelope { e := ok(TypeJoin); e.Chain = []Addr{"x"}; return e }(), ReasonChain},
		{"long-chain", func() Envelope {
			e := ok(TypeRepairRequest)
			for i := 0; i <= MaxChain; i++ {
				e.Chain = append(e.Chain, Addr(strings.Repeat("c", i+1)))
			}
			return e
		}(), ReasonChain},
		{"empty-chain-entry", func() Envelope { e := ok(TypeRepairRequest); e.Chain = []Addr{""}; return e }(), ReasonChain},
		{"self-chain", func() Envelope { e := ok(TypeRepairRequest); e.Chain = []Addr{"a"}; return e }(), ReasonChain},
		{"requester-chain", func() Envelope {
			e := ok(TypeRepairRequest)
			e.Requester, e.Chain = "orig", []Addr{"orig"}
			return e
		}(), ReasonChain},
		{"loop-chain", func() Envelope { e := ok(TypeRepairRequest); e.Chain = []Addr{"r2", "r3", "r2"}; return e }(), ReasonChain},
		{"huge-members", func() Envelope {
			e := ok(TypeMembershipReply)
			for i := 0; i <= MaxMembers; i++ {
				e.Members = append(e.Members, MemberInfo{Addr: "m", Bandwidth: 1})
			}
			return e
		}(), ReasonMembers},
		{"empty-member-addr", func() Envelope {
			e := ok(TypeMembershipReply)
			e.Members = []MemberInfo{{Addr: ""}}
			return e
		}(), ReasonMembers},
		{"member-nan-bw", func() Envelope {
			e := ok(TypeMembershipReply)
			e.Members = []MemberInfo{{Addr: "m", Bandwidth: math.NaN()}}
			return e
		}(), ReasonMembers},
		{"member-deep-ancestors", func() Envelope {
			e := ok(TypeMembershipReply)
			m := MemberInfo{Addr: "m"}
			for i := 0; i <= MaxAncestors; i++ {
				m.Ancestors = append(m.Ancestors, "p")
			}
			e.Members = []MemberInfo{m}
			return e
		}(), ReasonMembers},
		{"member-empty-ancestor", func() Envelope {
			e := ok(TypeMembershipReply)
			e.Members = []MemberInfo{{Addr: "m", Ancestors: []Addr{""}}}
			return e
		}(), ReasonMembers},
	}
	for _, tc := range cases {
		err := Validate(&tc.env)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if got := Reason(err); got != tc.reason {
			t.Errorf("%s: reason %q, want %q (%v)", tc.name, got, tc.reason, err)
		}
		// The same envelope arriving as bytes is rejected for the same reason:
		// no validation gap between Validate and the decoder.
		if _, err := DecodeBinary(mustEncode(t, tc.env)); Reason(err) != tc.reason {
			t.Errorf("%s: decoded reason %q, want %q (%v)", tc.name, Reason(err), tc.reason, err)
		}
	}
}

// TestEveryReasonReachable proves the reject vocabulary has no dead token:
// each reason in Reasons() is produced by some datagram fed to DecodeBinary,
// and the table names no reason outside the vocabulary.
func TestEveryReasonReachable(t *testing.T) {
	join := mustEncode(t, Envelope{Type: TypeJoin, From: "j", Bandwidth: 3.5})
	datagrams := map[string][]byte{
		ReasonMalformed: []byte(`{"type":1,"from":"evil","bandwidth":3.5}`), // no magic
		ReasonSize:      make([]byte, MaxDatagram+1),
		ReasonType:      mustEncode(t, Envelope{Type: 99, From: "a"}),
		ReasonSender:    mustEncode(t, Envelope{Type: TypeJoin}),
		ReasonAddr:      mustEncode(t, Envelope{Type: TypeJoin, From: Addr(strings.Repeat("x", MaxAddrLen+1))}),
		ReasonNumeric:   mustEncode(t, Envelope{Type: TypeJoin, From: "a", Bandwidth: -3}),
		ReasonRange:     mustEncode(t, Envelope{Type: TypeRepairRequest, From: "a", FirstMissing: 9, LastMissing: 3}),
		ReasonSpan:      mustEncode(t, Envelope{Type: TypeRepairRequest, From: "a", LastMissing: MaxRepairSpan}),
		ReasonChain:     mustEncode(t, Envelope{Type: TypeJoin, From: "a", Chain: []Addr{"x"}}),
		ReasonMembers:   mustEncode(t, Envelope{Type: TypeMembershipReply, From: "a", Members: []MemberInfo{{Addr: ""}}}),
		ReasonLimit:     mustEncode(t, Envelope{Type: TypeMembershipRequest, From: "a", Limit: MaxLimit + 1}),
		ReasonPayload:   mustEncode(t, Envelope{Type: TypePacket, From: "s", Payload: make([]byte, MaxPayload+1)}),
		ReasonVersion:   append([]byte{BinaryMagic0, BinaryMagic1, BinaryVersion + 1}, join[3:]...),
		ReasonField:     append(append([]byte{}, join...), 99, 1), // unknown field id
		ReasonCtrl:      mustEncode(t, Envelope{Type: TypeAck, From: "r"}),
	}
	for _, reason := range Reasons() {
		data, ok := datagrams[reason]
		if !ok {
			t.Errorf("no datagram produces reason %q", reason)
			continue
		}
		if _, err := DecodeBinary(data); Reason(err) != reason {
			t.Errorf("reason %q: datagram decoded with reason %q (%v)", reason, Reason(err), err)
		}
		delete(datagrams, reason)
	}
	for reason := range datagrams {
		t.Errorf("table names reason %q, which Reasons() does not list", reason)
	}
}

// TestDecodeValidationAttribution: a parseable but invalid envelope comes
// back with its claimed sender intact, so the guard layer can score it.
func TestDecodeValidationAttribution(t *testing.T) {
	env, err := DecodeBinary(mustEncode(t, Envelope{Type: TypeRepairRequest, From: "evil", FirstMissing: 9, LastMissing: 3}))
	if err == nil {
		t.Fatal("inverted range accepted")
	}
	if env.From != "evil" {
		t.Fatalf("sender not preserved for attribution: %q", env.From)
	}
	if Reason(err) != ReasonRange {
		t.Fatalf("reason = %q, want %q", Reason(err), ReasonRange)
	}
}

func TestDecodeSizeCap(t *testing.T) {
	big := make([]byte, MaxDatagram+1)
	if _, err := DecodeBinary(big); Reason(err) != ReasonSize {
		t.Fatalf("oversized datagram: reason %q, want %q", Reason(err), ReasonSize)
	}
}

func TestReason(t *testing.T) {
	if Reason(nil) != "" {
		t.Fatal("Reason(nil) not empty")
	}
	if env, err := DecodeBinary([]byte("{broken")); Reason(err) != ReasonMalformed || env.From != "" {
		t.Fatalf("garbage not classified malformed and unattributed: %+v, %v", env, err)
	}
	seen := map[string]bool{}
	for _, r := range Reasons() {
		if seen[r] {
			t.Fatalf("duplicate reason token %q", r)
		}
		seen[r] = true
	}
}
