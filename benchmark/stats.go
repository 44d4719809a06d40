package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"sort"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of v (the mean of the two middle values for
// an even count), or 0 for an empty slice.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of v, or
// 0 for an empty slice.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// quartiles returns the first and third quartile of v exactly as Python's
// statistics.quantiles(v, n=4) does (the "exclusive" method), because that is
// what the driver computes spreads with. It needs at least two values; for
// fewer it returns the single value (or zeros) twice.
func quartiles(v []float64) (q1, q3 float64) {
	s := sorted(v)
	m := len(s)
	if m < 2 {
		if m == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	cut := func(i int) float64 {
		const n = 4
		j := i * (m + 1) / n
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance of v as a share of its median: the
// steadiness figure the driver holds against a metric's bound.
func spread(v []float64) float64 {
	med := median(v)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return math.Abs(q3-q1) / math.Abs(med)
}

// digester accumulates the canonical form of a result: integers as 8-byte
// big-endian words, floats by their IEEE-754 bits, text as its bytes. Two
// results digest equal only when they agree bit for bit.
type digester struct{ h hash.Hash }

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) u64(v uint64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}

func (d *digester) int(v int)     { d.u64(uint64(int64(v))) }
func (d *digester) f64(v float64) { d.u64(math.Float64bits(v)) }
func (d *digester) text(s string) { d.int(len(s)); d.h.Write([]byte(s)) }
func (d *digester) f64s(v []float64) {
	d.int(len(v))
	for _, x := range v {
		d.f64(x)
	}
}
func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }
