// Package fields is the write-only-field fixture: an unexported field that
// the package and its tests only assign, increment or append to itself is a
// finding, unless something reads it or a directive names its reader.
package fields

// counter is one of each case.
type counter struct {
	total   int   // want `write-only-field: fields\.counter\.total is written but never read, tests included`
	seen    []int // want `write-only-field: fields\.counter\.seen is written but never read, tests included`
	last    int
	checked int // read by fields_test.go only
	//lint:ignore write-only-field reason: the directive names the reader a later change adds
	planned int
}

func newCounter() *counter { return &counter{total: 0} }

func (c *counter) add(v int) {
	c.total += v
	c.seen = append(c.seen, v)
	c.last = v
	c.checked++
	c.planned = v
}

// lastOf reads last.
func lastOf(vs []int) int {
	c := newCounter()
	for _, v := range vs {
		c.add(v)
	}
	return c.last
}
