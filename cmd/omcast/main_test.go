package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// captureStderr runs fn with os.Stderr redirected to a file and returns what
// fn wrote there.
func captureStderr(t *testing.T, fn func()) string {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stderr
	os.Stderr = f
	defer func() { os.Stderr = saved }()
	fn()
	data, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestUsageErrorsExitTwo: every way of calling omcast wrongly exits 2 before
// doing any work, and a missing or unknown subcommand lists all of them.
func TestUsageErrorsExitTwo(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"no subcommand", nil},
		{"unknown subcommand", []string{"simulate"}},
		{"sim unknown flag", []string{"sim", "-bogus"}},
		{"sim unknown figure", []string{"sim", "-fig", "nope"}},
		{"sim fleet figure", []string{"sim", "-fig", "fig-fleet"}},
		{"sim multitree figure", []string{"sim", "-fig", "extension-multitree"}},
		{"sim all as csv", []string{"sim", "-fig", "all", "-csv"}},
		{"sim negative size", []string{"sim", "-fig", "fig11", "-quick", "-size", "-5"}},
		{"sim negative warmup", []string{"sim", "-fig", "fig11", "-quick", "-warmup", "-1h"}},
		{"sim negative measure", []string{"sim", "-fig", "fig11", "-quick", "-measure", "-1m"}},
		{"sim negative replicas", []string{"sim", "-fig", "fig14", "-quick", "-replicas", "-1"}},
		{"sim negative workers", []string{"sim", "-fig", "fig11", "-quick", "-workers", "-2"}},
		{"bench unknown flag", []string{"bench", "-bogus"}},
		{"chaos unknown flag", []string{"chaos", "-bogus"}},
		{"chaos unknown scenario", []string{"chaos", "-scenario", "nope"}},
		{"lint unknown flag", []string{"lint", "-bogus"}},
		{"lint json format", []string{"lint", "-format", "json"}},
		{"lint enable rule", []string{"lint", "-enable", "wire-taint"}},
		{"lint sarif format", []string{"lint", "-format", "sarif"}},
		{"node unknown flag", []string{"node", "-bogus"}},
		{"topo unknown flag", []string{"topo", "-bogus"}},
		{"topo negative transit domains", []string{"topo", "-transit-domains", "-3"}},
		{"topo negative transit nodes", []string{"topo", "-transit-nodes", "-1"}},
		{"topo negative stub domains", []string{"topo", "-stub-domains", "-2"}},
		{"topo negative stub nodes", []string{"topo", "-stub-nodes", "-5"}},
		{"trace unknown flag", []string{"trace", "-bogus"}},
		{"trace fleet flag", []string{"trace", "-fleet"}},
		{"trace retired spans flag", []string{"trace", "-spans"}},
		{"trace negative size", []string{"trace", "-size", "-5"}},
		{"trace negative warmup", []string{"trace", "-warmup", "-1h"}},
		{"trace negative measure", []string{"trace", "-measure", "-1m"}},
		{"trace negative sample", []string{"trace", "-sample", "-5m"}},
		{"trace negative group", []string{"trace", "-stream", "-group", "-3"}},
		{"trace zero size", []string{"trace", "-size", "0"}},
		{"trace group without stream", []string{"trace", "-group", "5"}},
		{"trace analyze two inputs", []string{"trace", "analyze", "a", "b"}},
		{"trace convert retired format flag", []string{"trace", "convert", "-format", "perfetto", os.DevNull}},
		// A stray word must not swallow the flags after it.
		{"sim stray argument", []string{"sim", "-quick", "-fig", "fig4", "stray", "-seed", "2"}},
		{"bench stray argument", []string{"bench", "-quick", "stray"}},
		{"chaos stray argument", []string{"chaos", "-scenario", "lossy-10", "stray"}},
		{"lint list stray argument", []string{"lint", "-list", "stray"}},
		{"node stray argument", []string{"node", "-source", "stray"}},
		{"topo stray argument", []string{"topo", "stray"}},
		{"trace stray argument", []string{"trace", "stray", "-size", "10", "-measure", "1m", "-warmup", "1m"}},
		{"trace misspelt nested subcommand", []string{"trace", "analyse", "x.jsonl"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var code int
			stderr := captureStderr(t, func() { code = run(tc.args) })
			if code != 2 {
				t.Fatalf("omcast %s = %d, want 2\n%s", strings.Join(tc.args, " "), code, stderr)
			}
			if len(tc.args) > 1 {
				return
			}
			for _, c := range commands {
				if !strings.Contains(stderr, "\n  "+c.name+" ") {
					t.Errorf("usage does not list %q:\n%s", c.name, stderr)
				}
			}
		})
	}
	if len(commands) != 7 {
		t.Errorf("%d subcommands, want 7", len(commands))
	}
	// A negative number given to node fails before the socket is bound,
	// naming its flag; -bootstrap keeps "members need -bootstrap" from
	// answering for it.
	for _, neg := range []struct{ flag, value string }{
		{"bandwidth", "-2"}, {"rate", "-5"}, {"heartbeat", "-1s"},
		{"switch", "-1s"}, {"recovery-group", "-1"}, {"trace-buf", "-1"},
	} {
		args := []string{"node", "-bootstrap", "127.0.0.1:9", "-" + neg.flag, neg.value}
		t.Run("node negative "+neg.flag, func(t *testing.T) {
			var code int
			stderr := captureStderr(t, func() { code = run(args) })
			if want := "omcast node: -" + neg.flag + " "; code != 2 || !strings.Contains(stderr, want) {
				t.Fatalf("omcast %s = %d, want 2 and %q on stderr\n%s", strings.Join(args, " "), code, want, stderr)
			}
		})
	}
	// The guard and retransmit budgets are fixed, so their old flags are
	// unknown. The trailing -status 0s is itself a usage error, so a node
	// that still took the flag would not run: it would exit 2 naming -status.
	for _, retired := range [][]string{
		{"-no-guard"}, {"-guard-rate", "5"}, {"-guard-score", "3"},
		{"-retx-attempts", "2"}, {"-retx-base", "1s"}, {"-retx-inflight", "8"},
	} {
		args := append(append([]string{"node", "-source"}, retired...), "-status", "0s")
		t.Run("node retired "+retired[0][1:], func(t *testing.T) {
			var code int
			stderr := captureStderr(t, func() { code = run(args) })
			if want := "flag provided but not defined: " + retired[0]; code != 2 || !strings.Contains(stderr, want) {
				t.Fatalf("omcast %s = %d, want 2 and %q on stderr\n%s", strings.Join(args, " "), code, want, stderr)
			}
		})
	}
	// An impossible -schedule run size fails before any node boots, naming
	// its flag. The schedule file is valid, so no parse error can answer
	// for the flag.
	sched := filepath.Join(t.TempDir(), "faults.json")
	if err := os.WriteFile(sched, []byte(`{"seed": 1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []struct{ flag, value string }{
		{"nodes", "0"}, {"nodes", "-3"}, {"duration", "0s"}, {"duration", "-2s"}, {"warmup", "-2s"},
	} {
		args := []string{"chaos", "-schedule", sched, "-" + bad.flag, bad.value}
		t.Run("chaos schedule "+bad.flag+" "+bad.value, func(t *testing.T) {
			var code int
			stderr := captureStderr(t, func() { code = run(args) })
			if want := "omcast chaos: -" + bad.flag + " "; code != 2 || !strings.Contains(stderr, want) {
				t.Fatalf("omcast %s = %d, want 2 and %q on stderr\n%s", strings.Join(args, " "), code, want, stderr)
			}
		})
	}
}

// TestLintSubtreeIsClean: a package pattern chooses which findings are
// printed, not what is analysed. The benchmark's two handler-purity
// suppressions cover code reached only from churn's handlers, outside the
// subtree; analysing the subtree alone reports both as stale.
func TestLintSubtreeIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping whole-module load in -short mode")
	}
	var code int
	stderr := captureStderr(t, func() { code = cmdLint([]string{"../../benchmark/..."}) })
	if code != 0 {
		t.Fatalf("omcast lint ../../benchmark/... = %d, want 0\n%s", code, stderr)
	}
}

// TestProfilesWritten drives sim's -cpuprofile and -memprofile end to end:
// both files must hold gzip-framed pprof data, and a heap profile that cannot
// be created must fail the run.
func TestProfilesWritten(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	if code := cmdSim([]string{"-fig", "fig11", "-quick", "-cpuprofile", cpu, "-memprofile", mem}); code != 0 {
		t.Fatalf("sim with profiles = %d, want 0", code)
	}
	for _, path := range []string{cpu, mem} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, []byte{0x1f, 0x8b}) {
			t.Errorf("%s: %d bytes, not gzip-framed", filepath.Base(path), len(data))
		}
	}
	missing := filepath.Join(dir, "no-such-dir", "mem.pprof")
	if code := cmdSim([]string{"-fig", "fig11", "-quick", "-memprofile", missing}); code == 0 {
		t.Fatal("sim with an uncreatable -memprofile exited 0")
	}
}
