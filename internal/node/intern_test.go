package node

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"omcast/internal/wire"
)

// wireCorpus returns every datagram in the wire package's FuzzDecodeBinary
// seed corpus (go test fuzz v1 files holding one []byte value each).
func wireCorpus(tb testing.TB) [][]byte {
	tb.Helper()
	dir := filepath.Join("..", "wire", "testdata", "fuzz", "FuzzDecodeBinary")
	files, err := os.ReadDir(dir)
	if err != nil {
		tb.Fatal(err)
	}
	var out [][]byte
	for _, f := range files {
		raw, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			tb.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if len(lines) != 2 || lines[0] != "go test fuzz v1" ||
			!strings.HasPrefix(lines[1], "[]byte(") || !strings.HasSuffix(lines[1], ")") {
			tb.Fatalf("%s: not a one-[]byte corpus file", f.Name())
		}
		s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
		if err != nil {
			tb.Fatalf("%s: %v", f.Name(), err)
		}
		out = append(out, []byte(s))
	}
	if len(out) == 0 {
		tb.Fatalf("no corpus files in %s", dir)
	}
	return out
}

// fullSenderTable returns a table with every slot occupied.
func fullSenderTable() *senderTable {
	t := newSenderTable()
	for i, empty := 0, senderSlots; empty > 0; i++ {
		t.Intern([]byte(fmt.Sprintf("filler-%d", i)))
		empty = 0
		for s := range t.slots {
			if t.slots[s] == "" {
				empty++
			}
		}
	}
	return t
}

// checkInternedDecode fails unless decoding data through tbl gives exactly
// what the plain decoder gives, and the decoded From survives the input
// being overwritten. Both passes decode into one envelope, so the second
// also shows that a decode overwrites whatever the envelope held.
func checkInternedDecode(t *testing.T, tbl *senderTable, data []byte) {
	t.Helper()
	want, wantErr := wire.DecodeBinary(data)
	var got wire.Envelope
	for pass := 0; pass < 2; pass++ { // the second pass can hit the table
		buf := bytes.Clone(data)
		err := wire.DecodeBinaryWith(&got, buf, tbl)
		if wire.Reason(err) != wire.Reason(wantErr) || fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("pass %d: interned decode error %v, plain %v\n%x", pass, err, wantErr, data)
		}
		// %#v, not reflect.DeepEqual: a decoded float may be NaN.
		if fmt.Sprintf("%#v", got) != fmt.Sprintf("%#v", want) {
			t.Fatalf("pass %d: interned decode\n %+v\nplain\n %+v\n%x", pass, got, want, data)
		}
		from := strings.Clone(string(got.From))
		for i := range buf {
			buf[i] ^= 0xff
		}
		if string(got.From) != from {
			t.Fatalf("pass %d: From changed with its datagram: %q, was %q", pass, got.From, from)
		}
	}
}

// FuzzInternedDecode: the node's sender table changes no decode. Every input
// — the wire package's seed corpus, then whatever the fuzzer finds — decodes
// to a field-for-field equal envelope with the same error through a cold
// table and a full one, and the interned From never aliases the datagram.
func FuzzInternedDecode(f *testing.F) {
	for _, d := range wireCorpus(f) {
		f.Add(d)
	}
	enc := func(env wire.Envelope) []byte { return wire.AppendBinary(nil, env) }
	f.Add([]byte{wire.BinaryMagic0, wire.BinaryMagic1, wire.BinaryVersion}) // bare header
	f.Add(enc(wire.Envelope{Type: wire.TypePacket, From: wire.Addr(strings.Repeat("x", wire.MaxAddrLen+1)), Packet: 1}))
	f.Add(enc(wire.Envelope{Type: wire.TypePacket, From: "\xff\xfe", Packet: 1}))
	full := fullSenderTable()
	f.Fuzz(func(t *testing.T, data []byte) {
		checkInternedDecode(t, newSenderTable(), data)
		checkInternedDecode(t, full, data)
	})
}

// TestSenderTableStaysBounded: a flood of distinct senders, valid, oversize
// and not UTF-8, leaves the table its fixed size holding only valid
// addresses, and every sender still comes back as its own bytes.
func TestSenderTableStaysBounded(t *testing.T) {
	tbl := newSenderTable()
	long := strings.Repeat("y", wire.MaxAddrLen)
	for i := 0; i < 100_000; i++ {
		for _, b := range [][]byte{
			fmt.Appendf(nil, "peer-%d", i),
			fmt.Appendf(nil, "%s-%d", long, i),  // oversize
			fmt.Appendf(nil, "\xff-%d-\xfe", i), // not UTF-8
		} {
			if got := tbl.Intern(b); string(got) != string(b) {
				t.Fatalf("Intern(%q) = %q", b, got)
			}
		}
	}
	if len(tbl.slots) != senderSlots {
		t.Fatalf("table has %d slots, want %d", len(tbl.slots), senderSlots)
	}
	held := 0
	for i := range tbl.slots {
		if a := tbl.slots[i]; a != "" {
			held++
			if !wire.ValidAddr(a) || !strings.HasPrefix(string(a), "peer-") {
				t.Fatalf("slot %d holds %q", i, a)
			}
		}
	}
	if held == 0 {
		t.Fatal("the table cached no valid sender")
	}
}

// BenchmarkDecodePacket is the decode of one stream packet with and without
// the sender table: the difference is the sender's allocation against a hit.
func BenchmarkDecodePacket(b *testing.B) {
	data := wire.AppendBinary(nil, wire.Envelope{Type: wire.TypePacket, From: "203.0.113.7:7000", Packet: 42})
	for _, tc := range []struct {
		name string
		in   wire.Interner
	}{{"plain", nil}, {"interned", newSenderTable()}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var env wire.Envelope
			for i := 0; i < b.N; i++ {
				if err := wire.DecodeBinaryWith(&env, data, tc.in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
