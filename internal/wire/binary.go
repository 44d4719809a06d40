package wire

import (
	"fmt"
	"math"
)

// Binary wire format v1. A datagram is:
//
//	magic[2] version[1] type[uvarint] (field-id[1] field-value)*
//
// Fields are tagged with the IDs below and MUST appear in strictly ascending
// ID order with zero-valued fields omitted — the encoding of an envelope is
// canonical (exactly one byte string per envelope), so relays and the fuzz
// harness can assert byte-identical re-encoding, and an attacker cannot mint
// semantic aliases of one message. Decoding rejects unknown versions (reason
// "version"), unknown / duplicate / out-of-order / explicitly-zero fields and
// non-minimal varints (reason "field"), and truncated or trailing bytes
// (reason "malformed").
//
// Value encodings: unsigned integers are minimal uvarints; signed integers
// are zigzag uvarints; floats are 8-byte little-endian IEEE 754 bits;
// strings and byte fields are uvarint length + raw bytes; address lists are
// uvarint count + strings; the member list is uvarint count + records, each
// record the fixed untagged sequence addr, depth, spare, bandwidth,
// ancestors. DecodeBinary is zero-copy for the payload: the returned
// envelope's Payload aliases the input buffer.
const (
	// BinaryMagic0 and BinaryMagic1 prefix every envelope. The first byte is
	// outside ASCII so no text protocol can collide with it.
	BinaryMagic0 = 0xF5
	BinaryMagic1 = 0x4D // 'M' for multicast
	// BinaryVersion is the current (and only) binary format version.
	BinaryVersion = 1
	// binaryHeaderLen covers magic and version; the type varint follows.
	binaryHeaderLen = 3
)

// Binary field IDs. Frozen: new fields append new IDs; IDs are never reused.
const (
	binFrom         = 1
	binBandwidth    = 2
	binDepth        = 3
	binSeq          = 4
	binPacket       = 5
	binPayload      = 6
	binFirstMissing = 7
	binLastMissing  = 8
	binChain        = 9
	binRequester    = 10
	binEpsilon      = 11
	binMembers      = 12
	binLimit        = 13
	binBTP          = 14
	binNewParent    = 15
	binCtrl         = 16
	binFieldMax     = binCtrl
)

// IsBinary reports whether b starts with the envelope magic (any version).
// Anything that does not is not an envelope: DecodeBinaryRaw rejects it as
// malformed before looking at another byte.
func IsBinary(b []byte) bool {
	return len(b) >= 2 && b[0] == BinaryMagic0 && b[1] == BinaryMagic1
}

// ---- primitive writers ----

func appendUvarint(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

// zigzag folds signed integers into unsigned so small magnitudes of either
// sign stay short.
func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

func appendVarint(dst []byte, v int64) []byte { return appendUvarint(dst, zigzag(v)) }

func appendFloat(dst []byte, v float64) []byte {
	bits := math.Float64bits(v)
	return append(dst,
		byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24),
		byte(bits>>32), byte(bits>>40), byte(bits>>48), byte(bits>>56))
}

func appendString(dst []byte, s string) []byte {
	dst = appendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendAddrs(dst []byte, addrs []Addr) []byte {
	dst = appendUvarint(dst, uint64(len(addrs)))
	for _, a := range addrs {
		dst = appendString(dst, string(a))
	}
	return dst
}

// AppendBinary appends env's canonical binary v1 encoding to dst and returns
// the extended slice. It never fails: every representable envelope encodes
// (validity is the decoder's concern).
func AppendBinary(dst []byte, env Envelope) []byte {
	dst = append(dst, BinaryMagic0, BinaryMagic1, BinaryVersion)
	dst = appendUvarint(dst, zigzag(int64(env.Type)))
	if env.From != "" {
		dst = appendString(append(dst, binFrom), string(env.From))
	}
	if env.Bandwidth != 0 {
		dst = appendFloat(append(dst, binBandwidth), env.Bandwidth)
	}
	if env.Depth != 0 {
		dst = appendVarint(append(dst, binDepth), int64(env.Depth))
	}
	if env.Seq != 0 {
		dst = appendUvarint(append(dst, binSeq), env.Seq)
	}
	if env.Packet != 0 {
		dst = appendVarint(append(dst, binPacket), env.Packet)
	}
	if len(env.Payload) != 0 {
		dst = appendUvarint(append(dst, binPayload), uint64(len(env.Payload)))
		dst = append(dst, env.Payload...)
	}
	if env.FirstMissing != 0 {
		dst = appendVarint(append(dst, binFirstMissing), env.FirstMissing)
	}
	if env.LastMissing != 0 {
		dst = appendVarint(append(dst, binLastMissing), env.LastMissing)
	}
	if len(env.Chain) != 0 {
		dst = appendAddrs(append(dst, binChain), env.Chain)
	}
	if env.Requester != "" {
		dst = appendString(append(dst, binRequester), string(env.Requester))
	}
	if env.Epsilon != 0 {
		dst = appendFloat(append(dst, binEpsilon), env.Epsilon)
	}
	if len(env.Members) != 0 {
		dst = appendUvarint(append(dst, binMembers), uint64(len(env.Members)))
		for _, m := range env.Members {
			dst = appendString(dst, string(m.Addr))
			dst = appendVarint(dst, int64(m.Depth))
			dst = appendVarint(dst, int64(m.Spare))
			dst = appendFloat(dst, m.Bandwidth)
			dst = appendAddrs(dst, m.Ancestors)
		}
	}
	if env.Limit != 0 {
		dst = appendVarint(append(dst, binLimit), int64(env.Limit))
	}
	if env.BTP != 0 {
		dst = appendFloat(append(dst, binBTP), env.BTP)
	}
	if env.NewParent != "" {
		dst = appendString(append(dst, binNewParent), string(env.NewParent))
	}
	if env.Ctrl != 0 {
		dst = appendUvarint(append(dst, binCtrl), env.Ctrl)
	}
	return dst
}

// EncodeBinary serialises the envelope in binary v1. The error is always nil.
func EncodeBinary(env Envelope) ([]byte, error) {
	return AppendBinary(make([]byte, 0, 64), env), nil
}

// BinaryV1 names the format as a value, for callers that hold "the wire
// format" rather than call the package functions: its methods are
// EncodeBinary and DecodeBinary.
var BinaryV1 binaryV1

type binaryV1 struct{}

func (binaryV1) Encode(env Envelope) ([]byte, error) { return EncodeBinary(env) }
func (binaryV1) Decode(b []byte) (Envelope, error)   { return DecodeBinary(b) }

// Interner turns the raw bytes of a decoded sender address into an Addr, so a
// receiver that hears the same few senders over and over can hand back one
// string per sender instead of converting every datagram's copy. Intern must
// return an Addr equal to string(b) that does not alias b (the input buffer
// belongs to the caller), and must not retain b. The decoder only calls it;
// any table behind it is the caller's.
type Interner interface {
	Intern(b []byte) Addr
}

// ---- primitive readers ----

// binReader walks one datagram. Every read error is sticky in err; the field
// loop checks it once per field.
type binReader struct {
	b   []byte
	off int
	err *ValidationError
	in  Interner // nil: senders are converted fresh
}

func (r *binReader) fail(t Type, reason, format string, args ...any) {
	if r.err == nil {
		r.err = bad(t, reason, format, args...)
	}
}

// uvarint reads a minimal-form varint. Non-minimal forms (a redundant
// trailing zero group, or more than ten bytes) are rejected: they would give
// one value several encodings and break canonical re-encoding.
func (r *binReader) uvarint(t Type) uint64 {
	var v uint64
	for i := 0; ; i++ {
		if r.off >= len(r.b) {
			r.fail(t, ReasonMalformed, "truncated varint at byte %d", r.off)
			return 0
		}
		c := r.b[r.off]
		r.off++
		if i == 9 && c > 1 {
			r.fail(t, ReasonField, "varint overflows 64 bits")
			return 0
		}
		if c < 0x80 {
			if c == 0 && i > 0 {
				r.fail(t, ReasonField, "non-minimal varint")
				return 0
			}
			return v | uint64(c)<<(7*i)
		}
		v |= uint64(c&0x7f) << (7 * i)
	}
}

func (r *binReader) varint(t Type) int64 { return unzigzag(r.uvarint(t)) }

func (r *binReader) float(t Type) float64 {
	if r.off+8 > len(r.b) {
		r.fail(t, ReasonMalformed, "truncated float at byte %d", r.off)
		r.off = len(r.b)
		return 0
	}
	b := r.b[r.off:]
	r.off += 8
	bits := uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
	return math.Float64frombits(bits)
}

// bytes reads a length-prefixed byte field, aliasing the input buffer.
func (r *binReader) bytes(t Type) []byte {
	n := r.uvarint(t)
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)-r.off) {
		r.fail(t, ReasonMalformed, "length %d overruns datagram at byte %d", n, r.off)
		r.off = len(r.b)
		return nil
	}
	out := r.b[r.off : r.off+int(n) : r.off+int(n)]
	r.off += int(n)
	return out
}

func (r *binReader) str(t Type) string { return string(r.bytes(t)) }

// sender reads the From field, through the interner when there is one.
func (r *binReader) sender(t Type) Addr {
	b := r.bytes(t)
	if r.in == nil || len(b) == 0 {
		return Addr(b)
	}
	return r.in.Intern(b)
}

// addrs reads a counted address list. The count is capped by the bytes
// actually present (each entry needs at least its length byte), so a forged
// count cannot force a huge allocation.
func (r *binReader) addrs(t Type) []Addr {
	n := r.uvarint(t)
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)-r.off) {
		r.fail(t, ReasonMalformed, "list count %d overruns datagram", n)
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]Addr, 0, n)
	for i := uint64(0); i < n && r.err == nil; i++ {
		out = append(out, Addr(r.str(t)))
	}
	return out
}

// DecodeBinaryRaw parses a binary v1 envelope WITHOUT semantic validation:
// only the datagram size cap and the framing rules above are enforced.
// Everything in the result is attacker-controlled until Validate accepts it —
// which is exactly how the wire-taint lint rule treats its results. Use
// DecodeBinary unless you are a tool (fuzzer, adversary model, wire
// inspector) that needs the pre-validation view. The returned envelope's
// Payload aliases b. On a post-header failure the partially decoded envelope
// is returned so the guard layer can attribute the reject.
func DecodeBinaryRaw(b []byte) (Envelope, error) {
	var env Envelope
	err := decodeRaw(&env, b, nil)
	return env, err
}

// decodeRaw is the one parser behind every Decode entry point. It fills env
// in place (an Envelope is a few hundred bytes, so every by-value hop is a
// copy); in, when not nil, supplies the From address.
func decodeRaw(env *Envelope, b []byte, in Interner) error {
	if len(b) > MaxDatagram {
		return &ValidationError{Reason: ReasonSize,
			Detail: fmt.Sprintf("datagram %d bytes > %d", len(b), MaxDatagram)}
	}
	if !IsBinary(b) {
		return bad(0, ReasonMalformed, "missing binary envelope magic")
	}
	if len(b) < binaryHeaderLen {
		return bad(0, ReasonMalformed, "truncated binary header")
	}
	if b[2] != BinaryVersion {
		return bad(0, ReasonVersion, "unknown binary version %d", b[2])
	}
	r := &binReader{b: b, off: binaryHeaderLen, in: in}
	env.Type = Type(r.varint(0))
	t := env.Type
	prev := 0
	for r.err == nil && r.off < len(r.b) {
		id := int(r.b[r.off])
		r.off++
		if id < 1 || id > binFieldMax {
			r.fail(t, ReasonField, "unknown field id %d", id)
			break
		}
		if id <= prev {
			r.fail(t, ReasonField, "field id %d out of order after %d", id, prev)
			break
		}
		prev = id
		zero := false
		switch id {
		case binFrom:
			env.From = r.sender(t)
			zero = env.From == ""
		case binBandwidth:
			env.Bandwidth = r.float(t)
			zero = env.Bandwidth == 0
		case binDepth:
			env.Depth = int(r.varint(t))
			zero = env.Depth == 0
		case binSeq:
			env.Seq = r.uvarint(t)
			zero = env.Seq == 0
		case binPacket:
			env.Packet = r.varint(t)
			zero = env.Packet == 0
		case binPayload:
			env.Payload = r.bytes(t)
			zero = len(env.Payload) == 0
		case binFirstMissing:
			env.FirstMissing = r.varint(t)
			zero = env.FirstMissing == 0
		case binLastMissing:
			env.LastMissing = r.varint(t)
			zero = env.LastMissing == 0
		case binChain:
			env.Chain = r.addrs(t)
			zero = len(env.Chain) == 0
		case binRequester:
			env.Requester = Addr(r.str(t))
			zero = env.Requester == ""
		case binEpsilon:
			env.Epsilon = r.float(t)
			zero = env.Epsilon == 0
		case binMembers:
			env.Members = r.members(t)
			zero = len(env.Members) == 0
		case binLimit:
			env.Limit = int(r.varint(t))
			zero = env.Limit == 0
		case binBTP:
			env.BTP = r.float(t)
			zero = env.BTP == 0
		case binNewParent:
			env.NewParent = Addr(r.str(t))
			zero = env.NewParent == ""
		case binCtrl:
			env.Ctrl = r.uvarint(t)
			zero = env.Ctrl == 0
		}
		// A field spelling out its zero value is a non-canonical alias of the
		// omitted form (this also catches negative-zero floats, whose bits
		// differ but whose value re-encodes as omitted).
		if r.err == nil && zero {
			r.fail(t, ReasonField, "field id %d carries its zero value", id)
		}
	}
	if r.err != nil {
		return r.err
	}
	return nil
}

// members reads the member list: count, then fixed-order untagged records.
func (r *binReader) members(t Type) []MemberInfo {
	n := r.uvarint(t)
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)-r.off) {
		r.fail(t, ReasonMalformed, "member count %d overruns datagram", n)
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]MemberInfo, 0, n)
	for i := uint64(0); i < n && r.err == nil; i++ {
		var m MemberInfo
		m.Addr = Addr(r.str(t))
		m.Depth = int(r.varint(t))
		m.Spare = int(r.varint(t))
		m.Bandwidth = r.float(t)
		m.Ancestors = r.addrs(t)
		out = append(out, m)
	}
	return out
}

// DecodeBinary parses a binary v1 envelope and runs the full semantic
// validators (see Validate): every envelope it returns with a nil error is
// one an honest node could have sent. On a validation failure the partially
// decoded envelope is returned alongside the error so the caller can
// attribute the misbehavior to the claimed sender (the guard layer in
// internal/node keys its misbehavior scores on this); on a framing failure
// before the header parsed, the envelope is zero. Classify errors with
// Reason. The returned envelope's Payload aliases b.
func DecodeBinary(b []byte) (env Envelope, err error) {
	err = DecodeBinaryWith(&env, b, nil)
	return env, err
}

// DecodeBinaryWith is DecodeBinary into the caller's envelope, which it
// overwrites, with the From address supplied by in (nil converts it fresh,
// exactly as DecodeBinary does). Every field, every error and its reason are
// the same whatever the interner. An Envelope is a few hundred bytes: a
// receiver that decodes into its own saves the copies a returned one costs.
func DecodeBinaryWith(env *Envelope, b []byte, in Interner) error {
	// Small enough to inline, so the caller's own zeroing of a fresh
	// envelope and this one fold into one.
	*env = Envelope{}
	return decodeValidated(env, b, in)
}

// decodeValidated is decodeRaw, then Validate on success.
func decodeValidated(env *Envelope, b []byte, in Interner) error {
	if err := decodeRaw(env, b, in); err != nil {
		return err
	}
	return Validate(env)
}
