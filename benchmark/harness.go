package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// repOutput is what one repetition of a workload body hands back.
type repOutput struct {
	// ops is the work the repetition completed, in the workload's own unit
	// (events, episodes, simulation runs, datagrams).
	ops int64
	// attempted and failed count operations whose outcome was checked.
	attempted, failed int
	// digest pins the seed-determined part of the result.
	digest string
	// problems lists every failed check, for stderr.
	problems []string
	// layer carries per-layer values measured inside the repetition.
	layer map[string]float64
	// finish, if set, runs once the repetition's clock has stopped: span
	// analysis belongs to the benchmark, not to the program it measures.
	finish func(r *repOutput)
}

func (r *repOutput) fail(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// workload is one set of inputs the benchmark runs. Every repetition gets a
// sub-seed of its own (see subSeed), so a run's medians average over inputs
// instead of riding on one tree shape.
type workload struct {
	name string
	why  string
	// opsUnit names what ops_per_s counts on this workload.
	opsUnit string
	// nominal is the wall time of one repetition on the 2-core reference box;
	// it converts --seconds into a repetition count, so the inputs depend on
	// the arguments only, never on how fast the machine is.
	nominal float64
	// setup performs the work a run does before its timed region, once.
	setup func(seed int64) error
	// prepare builds one repetition and returns its timed body. A nil tracer
	// asks for the plain pass through the public entry points; a non-nil one
	// for the decorated pass that records spans.
	prepare func(seed int64, tr *tracer) (func() (repOutput, error), error)
	// once, if set, measures per-layer values that need a run of their own
	// (traced invocations only); values holds the medians known so far.
	once func(seed int64, values map[string]float64) (map[string]float64, error)
}

// reps converts a measuring time into a repetition count.
func (w *workload) reps(seconds float64) int {
	n := int(math.Round(seconds / w.nominal))
	if n < 3 {
		n = 3
	}
	return n
}

// subSeed derives the seed of repetition i from the run's seed.
func subSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

// hostSample is what the process spent on one timed body.
type hostSample struct {
	wall       float64 // seconds
	cpu        float64 // seconds, user + system
	allocBytes uint64
	gcCycles   uint32
	gcPauseNs  uint64
}

// repSample pairs a repetition's output with its host cost.
type repSample struct {
	out  repOutput
	host hostSample
}

// phase names what the process is doing, for the deadline's last words.
var phase atomic.Value

func setPhase(format string, args ...any) {
	p := fmt.Sprintf(format, args...)
	phase.Store(p)
	fmt.Fprintf(os.Stderr, "benchmark: %s\n", p)
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// timed runs body from a collected heap and reports what it cost the host.
func timed(body func() (repOutput, error)) (repSample, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	cpu := cpuSeconds()
	start := time.Now()
	out, err := body()
	wall := time.Since(start)
	cpu = cpuSeconds() - cpu
	runtime.ReadMemStats(&after)
	if out.finish != nil {
		out.finish(&out)
		out.finish = nil
	}
	return repSample{out: out, host: hostSample{
		wall:       wall.Seconds(),
		cpu:        cpu,
		allocBytes: after.TotalAlloc - before.TotalAlloc,
		gcCycles:   after.NumGC - before.NumGC,
		gcPauseNs:  after.PauseTotalNs - before.PauseTotalNs,
	}}, err
}

// setupSamples is how many times a run repeats its set-up; setup_s is their
// median.
const setupSamples = 15

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result of one invocation: the contract's four keys, plus
// fields only the -all document carries.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	workload string
	traced   bool
	digest   string
	// samples holds the per-repetition values behind each end-to-end metric.
	samples map[string][]float64
}

type runOptions struct {
	seed    int64
	seconds float64
	traced  bool
	spans   string
}

// runWorkload performs one invocation: set-up samples, then the repetitions,
// then the checks.
func runWorkload(w *workload, opt runOptions) (report, error) {
	rep := report{Metrics: map[string]metric{}, workload: w.name, traced: opt.traced, samples: map[string][]float64{}}
	n := w.reps(opt.seconds)

	setPhase("%s: set-up x%d", w.name, setupSamples)
	var setups []float64
	for i := 0; i < setupSamples; i++ {
		runtime.GC()
		start := time.Now()
		if err := w.setup(subSeed(opt.seed, i)); err != nil {
			return rep, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	var tr *tracer
	if opt.traced {
		tr = newTracer()
		// Every traced repetition is paired with a plain one on the same
		// sub-seed, so a traced invocation covers half as many inputs.
		n = (n + 1) / 2
		if n < 2 {
			n = 2
		}
	}
	var plain, traced []repSample
	digests := newDigester()
	for i := 0; i < n; i++ {
		seed := subSeed(opt.seed, i)
		p, err := rep.repetition(w, seed, nil)
		if err != nil {
			return rep, err
		}
		plain = append(plain, p)
		digests.text(p.out.digest)
		if !opt.traced {
			continue
		}
		tr.startRep(i)
		t, err := rep.repetition(w, seed, tr)
		if err != nil {
			return rep, err
		}
		if t.out.digest != p.out.digest {
			// The ledger must measure the same program the user runs.
			rep.Failed++
			fmt.Fprintf(os.Stderr, "benchmark: %s: seed %d: traced digest %s differs from plain %s\n", w.name, seed, t.out.digest, p.out.digest)
		}
		traced = append(traced, t)
	}
	rep.digest = digests.sum()
	rep.Correct = rep.Failed == 0 && rep.Attempted > 0

	if !opt.traced {
		rep.samples["setup_s"] = setups
		for _, p := range plain {
			rep.samples["run_s"] = append(rep.samples["run_s"], p.host.wall)
			rep.samples["ops_per_s"] = append(rep.samples["ops_per_s"], float64(p.out.ops)/p.host.wall)
			rep.samples["alloc_mb"] = append(rep.samples["alloc_mb"], float64(p.host.allocBytes)/(1<<20))
		}
		for _, d := range endToEnd {
			rep.Metrics[d.name] = metric{Value: median(rep.samples[d.name]), Unit: d.unit}
		}
		return rep, nil
	}

	setPhase("%s: layer probes", w.name)
	values, err := layerValues(w, opt.seed, plain, traced)
	if err != nil {
		return rep, err
	}
	values["trace.spans"] = float64(len(tr.spans))
	for _, d := range perLayer {
		rep.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	if opt.spans != "" {
		if err := tr.writeSpans(opt.spans); err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// repetition prepares and times one repetition on seed -- the plain pass for
// a nil tracer, the decorated one otherwise -- and books its checks.
func (rep *report) repetition(w *workload, seed int64, tr *tracer) (repSample, error) {
	pass := "plain"
	if tr != nil {
		pass = "traced"
	}
	setPhase("%s: %s repetition on seed %d", w.name, pass, seed)
	body, err := w.prepare(seed, tr)
	if err != nil {
		return repSample{}, fmt.Errorf("%s: preparing %s seed %d: %w", w.name, pass, seed, err)
	}
	s, err := timed(body)
	if err != nil {
		return repSample{}, fmt.Errorf("%s: %s seed %d: %w", w.name, pass, seed, err)
	}
	fmt.Fprintf(os.Stderr, "benchmark: %s: %s seed %d took %.3f s (cpu %.3f s) for %d %s\n", w.name, pass, seed, s.host.wall, s.host.cpu, s.out.ops, w.opsUnit)
	rep.Attempted += s.out.attempted
	rep.Failed += s.out.failed
	for _, problem := range s.out.problems {
		fmt.Fprintf(os.Stderr, "benchmark: %s: seed %d: CHECK FAILED: %s\n", w.name, seed, problem)
	}
	return s, nil
}

// layerValues folds the paired repetitions of a traced invocation into one
// value per per-layer metric: the median over repetitions, then the values
// that need a run of their own (the workload's once hook, the probes).
func layerValues(w *workload, seed int64, plain, traced []repSample) (map[string]float64, error) {
	layer := map[string][]float64{}
	add := func(name string, v float64) { layer[name] = append(layer[name], v) }
	for i, t := range traced {
		p := plain[i]
		// What both passes measure is reported from the plain one.
		for _, d := range perLayer {
			if v, ok := p.out.layer[d.name]; ok {
				add(d.name, v)
			} else if v, ok := t.out.layer[d.name]; ok {
				add(d.name, v)
			}
		}
		if events := t.out.layer["eventsim.events"]; events > 0 {
			add("eventsim.ns_per_event", p.host.wall*1e9/events)
		}
		add("host.cpu_s", t.host.cpu)
		add("host.alloc_mb", float64(t.host.allocBytes)/(1<<20))
		add("host.gc_cycles", float64(t.host.gcCycles))
		add("host.gc_pause_ms", float64(t.host.gcPauseNs)/1e6)
		add("trace.overhead_pct", 100*(t.host.wall-p.host.wall)/p.host.wall)
	}
	values := map[string]float64{}
	for _, d := range perLayer {
		values[d.name] = median(layer[d.name])
	}
	values["host.peak_rss_mb"] = peakRSSMB()
	values["trace.reps"] = float64(len(traced))
	// merge goes through the metric table, not the map: results must not
	// depend on map order anywhere in this module.
	merge := func(src map[string]float64) {
		for _, d := range perLayer {
			if v, ok := src[d.name]; ok {
				values[d.name] = v
			}
		}
	}
	if w.once != nil {
		extra, err := w.once(seed, values)
		if err != nil {
			return nil, fmt.Errorf("%s: layer runs: %w", w.name, err)
		}
		merge(extra)
	}
	probes, err := runProbes()
	if err != nil {
		return nil, fmt.Errorf("%s: probes: %w", w.name, err)
	}
	merge(probes)
	return values, nil
}
