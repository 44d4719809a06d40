// Package wire mirrors the real wire package's decode/validate vocabulary:
// the taint rule keys on the package NAME, Decode*/Valid* prefixes, and
// result shapes, so this small double drives the same classification paths.
package wire

import "errors"

// Addr is a transport address.
type Addr string

// Envelope is the parsed datagram.
type Envelope struct {
	From Addr
	Seq  uint64
	Kind string
}

// ErrBad is the validation failure.
var ErrBad = errors.New("wire: bad envelope")

// DecodeRaw parses without validating: results are attacker-controlled until
// Validate accepts them (the "raw" taint flavor).
func DecodeRaw(data []byte) (*Envelope, error) {
	if len(data) == 0 {
		return nil, ErrBad
	}
	return &Envelope{From: Addr(data), Kind: "join"}, nil
}

// Decode parses and validates: its result is trusted once the paired error
// has been observed (the errObj taint flavor).
func Decode(data []byte) (*Envelope, error) {
	env, err := DecodeRaw(data)
	if err != nil {
		return nil, err
	}
	if err := Validate(env); err != nil {
		return env, err
	}
	return env, nil
}

// DecodeInto is Decode into the caller's envelope: the envelope it fills is
// trusted once the returned error has been observed.
func DecodeInto(env *Envelope, data []byte) error {
	dec, err := Decode(data)
	if dec != nil {
		*env = *dec
	}
	return err
}

// Validate is the error-returning sanitizer.
func Validate(env *Envelope) error {
	if env == nil || !ValidAddr(env.From) {
		return ErrBad
	}
	return nil
}

// ValidAddr is the boolean-predicate sanitizer.
func ValidAddr(a Addr) bool { return a != "" && len(a) < 64 }
