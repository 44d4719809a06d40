package fields

import "testing"

func TestChecked(t *testing.T) {
	c := newCounter()
	c.add(1)
	if c.checked != 1 {
		t.Fatal(c.checked)
	}
}
