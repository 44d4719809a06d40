package golden

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// headed splits text into sections that open at "# name" lines.
func headed(text string) []Section {
	var out []Section
	for _, l := range strings.SplitAfter(text, "\n") {
		if name, ok := strings.CutPrefix(l, "# "); ok || len(out) == 0 {
			out = append(out, Section{Name: strings.TrimSuffix(name, "\n")})
		}
		out[len(out)-1].Text += l
	}
	return out
}

func TestDiffReportsEachDifferingSection(t *testing.T) {
	want := "# a\n1\n2\n# b\n3\n4\n# c\n5\n"
	for _, tc := range []struct {
		name, got, report string
	}{
		{"equal", want, ""},
		{"one line", "# a\n1\n2\n# b\n3\nfour\n# c\n5\n", "b\n- 4\n+ four\n"},
		{"gone and new", "# a\n1\n2\n# b\n3\n4\n# d\n5\n", "- # c\n- 5\n+ # d\n+ 5\n"},
		{"longer", "# a\n1\n2\n3\n# b\n3\n4\n# c\n5\n", "a\n+ 3\n"},
		{"reordered", "# b\n3\n4\n# a\n1\n2\n# c\n5\n", "no section differs; first difference:\n- # a\n+ # b\n- 1\n+ 3\n- 2\n+ 4\n- # b\n+ # a\n- 3\n+ 1\n- 4\n+ 2\n"},
		{"no final newline", strings.TrimSuffix(want, "\n"), "c\n- 5\n+ 5 (no newline at end)\n"},
	} {
		if got := Diff(want, tc.got, headed); got != tc.report {
			t.Errorf("%s: report\n%s\nwant\n%s", tc.name, got, tc.report)
		}
	}
	// Line-wise, a repeated line matches its own occurrence.
	if got := Diff("x\ny\nx\n", "x\ny\nz\n", nil); got != "- x\n+ z\n" {
		t.Errorf("line-wise report %q", got)
	}
}

// TestCheckUpdateWritesTheGolden: -update writes the file Check then passes
// against, creating its directory.
func TestCheckUpdateWritesTheGolden(t *testing.T) {
	path := filepath.Join(t.TempDir(), "testdata", "x.golden")
	defer func(was bool) { *update = was }(*update)
	*update = true
	Check(t, path, "one\ntwo\n", nil)
	*update = false
	if raw, err := os.ReadFile(path); err != nil || string(raw) != "one\ntwo\n" {
		t.Fatalf("golden reads %q, %v", raw, err)
	}
	Check(t, path, "one\ntwo\n", nil)
}
