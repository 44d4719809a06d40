// Package exports is the test-only-export fixture: an exported function or
// method that no non-test file references is a finding, unless the method
// implements an interface or a directive keeps the declaration.
package exports

import (
	"encoding/json"
	"fmt"
)

// Shape is an interface declared in the module.
type Shape interface {
	Area() float64
}

// Square implements Shape and json.Marshaler.
type Square struct{ Side float64 }

// Area implements Shape: calls through the interface name Shape.Area, not
// this method.
func (s Square) Area() float64 { return s.Side * s.Side }

// MarshalJSON implements json.Marshaler; only encoding/json calls it.
func (s Square) MarshalJSON() ([]byte, error) { return json.Marshal(s.Side) }

// Scale is a method only exports_test.go calls.
func (s *Square) Scale(k float64) { s.Side *= k } // want `test-only-export: exports\.\(\*Square\)\.Scale is exported but no non-test file references it`

// Unit is a function only exports_test.go calls.
func Unit() Square { return Square{Side: 1} } // want `test-only-export: exports\.Unit is exported but no non-test file references it`

// Describe is used by report.
func Describe(s Shape) string { return fmt.Sprintf("%.1f", s.Area()) }

func report() string { return Describe(Square{Side: 2}) }

// Planned waits for a reader that has not landed yet.
//
//lint:ignore test-only-export reason: the directive keeps a declaration its planned reader needs
func Planned() string { return report() }
