package exports

import "testing"

func TestUnitScale(t *testing.T) {
	s := Unit()
	s.Scale(3)
	if s.Area() != 9 {
		t.Fatal(s)
	}
}
