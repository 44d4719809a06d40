// Command omcast is the project's one binary: it regenerates the paper's
// figures, writes the scale artifact, runs the chaos suite, lints the
// module, runs a live UDP node, inspects topologies and produces or digests
// traces. Each subcommand parses its own flags; `omcast <sub> -h` lists them.
//
//	omcast sim -fig fig4           # one paper figure (-fig all: every one)
//	omcast bench                   # the fig-scale sweep into BENCH_scale.json
//	omcast chaos -scenario all     # the chaos resilience suite
//	omcast lint ./...              # the repository's static analyzer
//	omcast node -source            # a live protocol node over UDP
//	omcast topo -verify            # transit-stub topology statistics
//	omcast trace -size 500         # JSONL span stream; trace analyze|convert
//
// The Go runtime's own GOMEMLIMIT and GOGC environment variables bound the
// footprint of large runs, e.g. GOMEMLIMIT=16GiB GOGC=50 omcast bench.
//
// Exit status: 0 success, 1 failure, 2 usage error.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// commands is the subcommand table, in the order usage lists it.
var commands = []struct {
	name, about string
	run         func(args []string) int
}{
	{"sim", "regenerate figures of the paper's evaluation", cmdSim},
	{"bench", "run the fig-scale sweep and write BENCH_scale.json", cmdBench},
	{"chaos", "run the chaos resilience suite: live overlays on virtual time, byte-reproducible per seed", cmdChaos},
	{"lint", "check the module's determinism and safety invariants", cmdLint},
	{"node", "run one live protocol node over UDP", cmdNode},
	{"topo", "generate a transit-stub topology and print its statistics", cmdTopo},
	{"trace", "stream one session's spans as JSONL; analyze or convert them", cmdTrace},
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	if len(args) > 0 {
		for _, c := range commands {
			if c.name == args[0] {
				return c.run(args[1:])
			}
		}
		fmt.Fprintf(os.Stderr, "omcast: unknown subcommand %q\n", args[0])
	}
	fmt.Fprintln(os.Stderr, "usage: omcast <subcommand> [flags]\n\nsubcommands:")
	for _, c := range commands {
		fmt.Fprintf(os.Stderr, "  %-6s %s\n", c.name, c.about)
	}
	return 2
}

// newFlags returns a subcommand's flag set. Parse errors come back to the
// caller instead of exiting, so every subcommand can be driven from tests.
func newFlags(name string) *flag.FlagSet {
	return flag.NewFlagSet("omcast "+name, flag.ContinueOnError)
}

// parseFlags parses args into a subcommand's flag set and refuses leftover
// arguments. The flag package stops at the first word that is not a flag, so
// a stray word would otherwise swallow every flag after it unnoticed. It
// reports whether the command may go on; on false the caller exits 2.
func parseFlags(fs *flag.FlagSet, args []string) bool {
	if fs.Parse(args) != nil {
		return false
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "%s: unexpected argument %q (flags after it would be ignored)\n", fs.Name(), fs.Arg(0))
		return false
	}
	return true
}

// fail reports a subcommand error on stderr and returns its exit status.
func fail(code int, name, format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "omcast %s: %s\n", name, fmt.Sprintf(format, args...))
	return code
}

// writeTo streams fn's output, buffered, into the file at path ("-" is
// stdout). A failed flush or Close is an error, so a truncated file never
// passes for a written one.
func writeTo(path string, fn func(io.Writer) error) error {
	f := os.Stdout
	if path != "-" {
		var err error
		if f, err = os.Create(path); err != nil {
			return err
		}
	}
	w := bufio.NewWriter(f)
	err := fn(w)
	if err == nil {
		err = w.Flush()
	}
	if path != "-" {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// parseSizes parses a comma-separated list of positive member counts.
func parseSizes(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("invalid size %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}
