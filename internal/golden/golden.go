// Package golden compares a test's rendered output with a committed file
// under testdata. Run with -update, the test rewrites the file instead, so a
// change that moves an output on purpose shows up as a reviewable diff of
// that file. A mismatch is reported section by section: the caller says how
// its text divides into named sections, and the failure names each section
// that differs and shows its differing lines.
package golden

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata instead of comparing with them")

// Section is one named part of a golden text.
type Section struct {
	Name, Text string
}

// Check compares got with the file at path, byte for byte, and fails t with
// Diff's report when they differ. With -update it writes got to path
// instead. split divides a text into sections; nil makes every line its own
// section.
//
//lint:ignore test-only-export reason: the golden tests of the root package, experiments, lint, metrics and the chaos suite compare their output through it
func Check(t testing.TB, path, got string, split func(string) []Section) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading the golden (go test -run '%s' -update writes it): %v", t.Name(), err)
	}
	if d := Diff(string(want), got, split); d != "" {
		t.Errorf("output differs from %s (go test -run '%s' -update rewrites it):\n%s", path, t.Name(), d)
	}
}

// Diff reports how got differs from want, or "" when they are equal.
// Sections are matched by name, the k-th of a name with the k-th: each
// section only want has is listed as "- " lines, each only got has as "+ "
// lines, and each whose text changed by its name and its differing lines.
// When no section differs but the texts do (the same sections in another
// order, or text outside every section), it shows the first differing line.
func Diff(want, got string, split func(string) []Section) string {
	if want == got {
		return ""
	}
	if split == nil {
		split = lines
	}
	ws, gs := split(want), split(got)
	wantKeys, wantText := keyed(ws)
	gotKeys, gotText := keyed(gs)
	var b strings.Builder
	for i, w := range ws {
		if _, ok := gotText[wantKeys[i]]; !ok {
			prefixLines(&b, "- ", w.Text)
		}
	}
	for i, g := range gs {
		switch w, ok := wantText[gotKeys[i]]; {
		case !ok:
			prefixLines(&b, "+ ", g.Text)
		case w != g.Text:
			b.WriteString(g.Name + "\n")
			diffLines(&b, w, g.Text)
		}
	}
	if b.Len() == 0 {
		b.WriteString("no section differs; first difference:\n")
		diffLines(&b, want, got)
	}
	return b.String()
}

// Digest is one line for a text too long to keep verbatim: its name, its
// line count and the sha256 of its bytes.
//
//lint:ignore test-only-export reason: the root package's trace goldens and the chaos suite's golden summarize their long streams with it
func Digest(name, text string) string {
	return fmt.Sprintf("%s %d %x\n", name, strings.Count(text, "\n"), sha256.Sum256([]byte(text)))
}

// lines is the default split: every line is its own section, named by itself.
func lines(text string) []Section {
	var out []Section
	for _, l := range strings.SplitAfter(text, "\n") {
		if l != "" {
			out = append(out, Section{Name: strings.TrimSuffix(l, "\n"), Text: l})
		}
	}
	return out
}

// keyed returns each section's matching key (its name and how many earlier
// sections share that name) and each key's text.
func keyed(secs []Section) ([]string, map[string]string) {
	seen := map[string]int{}
	keys := make([]string, len(secs))
	text := make(map[string]string, len(secs))
	for i, s := range secs {
		keys[i] = fmt.Sprintf("%s\x00%d", s.Name, seen[s.Name])
		seen[s.Name]++
		text[keys[i]] = s.Text
	}
	return keys, text
}

// prefixLines writes each line of text after prefix.
func prefixLines(b *strings.Builder, prefix, text string) {
	for _, l := range strings.SplitAfter(text, "\n") {
		writeLine(b, prefix, l)
	}
}

// diffLines writes the lines of want and got that differ, position by
// position, as "- " and "+ " pairs, then the surplus lines of the longer text.
func diffLines(b *strings.Builder, want, got string) {
	wl, gl := strings.SplitAfter(want, "\n"), strings.SplitAfter(got, "\n")
	for i := range max(len(wl), len(gl)) {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			writeLine(b, "- ", w)
			writeLine(b, "+ ", g)
		}
	}
}

// writeLine writes one line of a text after prefix, marking a last line
// that has no newline; it writes nothing for the empty tail.
func writeLine(b *strings.Builder, prefix, l string) {
	switch {
	case l == "":
	case strings.HasSuffix(l, "\n"):
		b.WriteString(prefix + l)
	default:
		b.WriteString(prefix + l + " (no newline at end)\n")
	}
}
