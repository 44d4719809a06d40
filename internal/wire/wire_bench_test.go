package wire

import "testing"

// benchEnvelope is the wire benchmark workload: a stream packet with a
// 256-byte payload — the by-volume hot path of a live overlay, and the shape
// where the zero-copy payload decode matters most.
func benchEnvelope() Envelope {
	payload := make([]byte, 256)
	for i := range payload {
		payload[i] = byte(i)
	}
	return Envelope{Type: TypePacket, From: "10.0.0.1:7000", Packet: 123456, Payload: payload}
}

func BenchmarkEncodeBinary(b *testing.B) {
	env := benchEnvelope()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeBinary(env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeBinary(b *testing.B) {
	data, err := EncodeBinary(benchEnvelope())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeBinary(data); err != nil {
			b.Fatal(err)
		}
	}
}
