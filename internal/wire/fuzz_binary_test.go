package wire

import (
	"bytes"
	"encoding/hex"
	"strings"
	"testing"
)

// binSeed decodes a hex-pinned seed (sharing the golden vocabulary).
func binSeed(f *testing.F, h string) []byte {
	b, err := hex.DecodeString(h)
	if err != nil {
		f.Fatalf("bad seed hex: %v", err)
	}
	return b
}

// FuzzDecodeBinary throws arbitrary bytes at the binary parser. Invariants:
// DecodeBinary never panics, never accepts an envelope Validate rejects, and
// — the canonical-format property, stronger than the JSON fuzzer's — every
// accepted datagram re-encodes byte-identically.
func FuzzDecodeBinary(f *testing.F) {
	f.Add(binSeed(f, "f54d010201016a020000000000000c401001"))                                     // join
	f.Add(binSeed(f, "f54d010a010170020000000000000840030204070e0000000000404540"))               // heartbeat
	f.Add(binSeed(f, "f54d010c01017305c8010603010203"))                                           // packet
	f.Add(binSeed(f, "f54d0110010161070a083209020272320272330a046f7269670b000000000000d03f1005")) // repair-request
	f.Add(binSeed(f, "f54d01160101620c01026d310604000000000000104002017004726f6f741007"))         // membership-reply
	f.Add(binSeed(f, "f54d0120010172100c"))                                                       // ack
	f.Add(binSeed(f, "f54d01ff0101780801"))                                                       // absurd type
	f.Add(binSeed(f, "f54d02020101"))                                                             // future version
	f.Add(binSeed(f, "f54d01"))                                                                   // bare header
	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := DecodeBinary(data)
		if err != nil {
			if r := Reason(err); r == "" {
				t.Fatalf("error without a reason: %v", err)
			}
			return
		}
		if verr := Validate(&env); verr != nil {
			t.Fatalf("DecodeBinary accepted an envelope Validate rejects: %v\n%x", verr, data)
		}
		b, err := EncodeBinary(env)
		if err != nil {
			t.Fatalf("accepted envelope does not re-encode: %v", err)
		}
		if !bytes.Equal(b, data) {
			t.Fatalf("accepted datagram is not canonical:\n in  %x\n out %x", data, b)
		}
	})
}

// FuzzRoundTripBinary drives structured field values through the binary
// EncodeBinary|DecodeBinary pair. Unlike JSON — which can launder invalid
// envelopes by replacing bad UTF-8 — the binary codec is exact: a valid
// envelope must round-trip to equality (and canonical bytes), and an invalid
// one must be rejected when its encoding comes back in.
func FuzzRoundTripBinary(f *testing.F) {
	f.Add(uint8(6), "s", 0.0, 0, uint64(0), int64(100), []byte{1, 2, 3}, int64(0), int64(0), "", "", 0.0, 0, 0.0, "", uint64(0))
	f.Add(uint8(8), "a", 0.0, 0, uint64(0), int64(0), []byte(nil), int64(5), int64(25), "r2,r3", "orig", 0.25, 0, 0.0, "", uint64(3))
	f.Add(uint8(5), "p", 3.0, 1, uint64(7), int64(0), []byte(nil), int64(0), int64(0), "", "", 0.0, 0, 42.5, "", uint64(0))
	f.Add(uint8(15), "i", 0.0, 0, uint64(0), int64(0), []byte(nil), int64(0), int64(0), "old", "", 0.0, 0, 0.0, "np", uint64(9))
	f.Add(uint8(16), "r", 0.0, 0, uint64(0), int64(0), []byte(nil), int64(0), int64(0), "", "", 0.0, 0, 0.0, "", uint64(12))
	f.Add(uint8(6), "s", 0.0, 0, uint64(0), int64(1), []byte(nil), int64(0), int64(0), "", "", 0.0, 0, 0.0, "", uint64(4))
	f.Fuzz(func(t *testing.T, typ uint8, from string, bw float64, depth int, seq uint64,
		pkt int64, payload []byte, first, last int64, chain, requester string,
		eps float64, limit int, btp float64, newParent string, ctrl uint64) {
		env := Envelope{
			Type: Type(typ), From: Addr(from), Bandwidth: bw, Depth: depth,
			Seq: seq, Packet: pkt, Payload: payload,
			FirstMissing: first, LastMissing: last,
			Requester: Addr(requester), Epsilon: eps, Limit: limit,
			BTP: btp, NewParent: Addr(newParent), Ctrl: ctrl,
		}
		if chain != "" {
			for _, c := range strings.Split(chain, ",") {
				env.Chain = append(env.Chain, Addr(c))
			}
		}
		valid := Validate(&env) == nil
		b, err := EncodeBinary(env)
		if err != nil {
			t.Fatalf("EncodeBinary failed: %v", err)
		}
		got, err := DecodeBinary(b)
		if valid && err != nil {
			t.Fatalf("validation gap: Validate accepted but DecodeBinary rejects: %v\n%x", err, b)
		}
		if !valid {
			if err == nil {
				t.Fatalf("binary laundered an invalid envelope: %+v", env)
			}
			return
		}
		if got.Type != env.Type || got.From != env.From || got.Packet != env.Packet ||
			got.Seq != env.Seq || got.Depth != env.Depth ||
			got.FirstMissing != env.FirstMissing || got.LastMissing != env.LastMissing ||
			got.Bandwidth != env.Bandwidth || got.BTP != env.BTP || got.Epsilon != env.Epsilon ||
			got.Limit != env.Limit || got.Requester != env.Requester || got.NewParent != env.NewParent ||
			got.Ctrl != env.Ctrl {
			t.Fatalf("round trip drifted:\n sent %+v\n got  %+v", env, got)
		}
		again, err := EncodeBinary(got)
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		if !bytes.Equal(again, b) {
			t.Fatalf("re-encode not canonical:\n first  %x\n second %x", b, again)
		}
	})
}
