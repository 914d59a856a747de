// Command perfbench is the repository benchmark: it drives one named
// workload through the public entry points of the serving layer, the CDG
// engine, graphio, topology, core/partstrat and the simulator, checks
// every verdict against an answer known by construction, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer metrics folded
// from span self-times) as one JSON object on the last line of stdout.
//
//	go run . -workload verify-cold -seed 1 -seconds 15 -trace 0
//
// See README.md for the workloads, the metrics and how they interact.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// processStart approximates process start: package variables initialise
// before main runs, and the first set-up is timed from here.
var processStart = time.Now()

// Each workload sets up setupReps times per run and setup_s is the
// median, so one slow set-up on a shared host does not move it.
const setupReps = 3

// config is one benchmark run's parameters.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

// measure is the measuring period of a run.
func (c config) measure() time.Duration { return time.Duration(c.seconds) * time.Second }

// report is what a workload hands back: op counts, the end-to-end values
// of an untraced run or the per-layer values of a traced one, and
// human-readable lines printed before the JSON result.
type report struct {
	attempted int
	failed    int
	// failures holds the first few failure descriptions for stderr.
	failures []string
	metrics  map[string]float64
	lines    []string
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

// fail counts one failed op and keeps its description (the first few).
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// linef appends one human-readable report line.
func (r *report) linef(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config) (*report, error){
	"serve-mix":   runServeMix,
	"verify-cold": runVerifyCold,
	"graph-modes": runGraphModes,
	"sim-sweep":   runSimSweep,
}

// endToEnd lists the untraced run's metrics with their units; every
// workload reports all of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"verdict_p50_ms", "ms"},
	{"verdicts_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

type metricDef struct{ name, unit string }

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var traced int
	fs.StringVar(&cfg.workload, "workload", "", "workload name: serve-mix, verify-cold, graph-modes or sim-sweep")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	fs.IntVar(&cfg.seconds, "seconds", 15, "measuring period in seconds (serve-mix runs a fixed request count)")
	fs.IntVar(&traced, "trace", 0, "1 runs traced and prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runW, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 1 || (traced != 0 && traced != 1) {
		fmt.Fprintf(stderr, "perfbench: want -workload one of %s, -seconds >= 1, -trace 0 or 1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	cfg.trace = traced == 1
	fmt.Fprintln(stdout, envLine(cfg))
	rep, err := runW(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	for _, l := range rep.lines {
		fmt.Fprintln(stdout, l)
	}
	fmt.Fprintf(stdout, "%s: failed_frac %.6f (%d failed of %d attempted)\n",
		cfg.workload, ratio(float64(rep.failed), float64(rep.attempted)), rep.failed, rep.attempted)
	for _, f := range rep.failures {
		fmt.Fprintln(stderr, "perfbench: failed op:", f)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		// A layer this workload never reaches measured nothing.
		for _, d := range defs {
			if _, ok := rep.metrics[d.name]; !ok {
				rep.metrics[d.name] = 0
			}
		}
	}
	out, err := resultJSON(rep, defs)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	if rep.failed > 0 {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// resultJSON renders the final line: exactly the metrics in defs, each
// with its unit. A metric the workload did not set is a harness bug.
func resultJSON(rep *report, defs []metricDef) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		metrics[d.name] = value{v, d.unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.failed == 0 && rep.attempted > 0, rep.attempted, rep.failed, metrics})
}

// setupMedian runs set-up setupReps times, closing every result but the
// last, and returns that result with the median set-up time in seconds.
// The first set-up is timed from process start. A collection after each
// set-up keeps its garbage out of the next one and out of the measured
// run; it is not timed.
func setupMedian[T any](build func() (T, error), closeFn func(T)) (T, float64, error) {
	var last T
	var secs []float64
	start := processStart
	defer runtime.GC()
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			closeFn(last)
			runtime.GC()
			start = now()
		}
		v, err := build()
		if err != nil {
			return last, 0, err
		}
		last = v
		secs = append(secs, since(start).Seconds())
	}
	return last, median(secs), nil
}

// peakRSSMB returns the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// envLine renders the environment block that heads every output.
func envLine(cfg config) string {
	return fmt.Sprintf("env go=%s nproc=%d gomaxprocs=%d cpu=%q commit=%s workload=%s seed=%d seconds=%d trace=%t",
		runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), commit(),
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
}

// cpuModel reads the first model name from /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the checked-out commit when the benchmark runs from the
// root of a git work tree, and "none" in an exported tree.
func commit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	id, err := os.ReadFile(".git/" + ref)
	if errors.Is(err, os.ErrNotExist) {
		return ref
	} else if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(id))
}

// now and since read the wall clock for the benchmark's timers; every
// timed region in the program goes through them.
func now() time.Time {
	return time.Now() //ebda:allow detlint the benchmark measures wall-clock time by design
}

func since(t time.Time) time.Duration {
	return time.Since(t) //ebda:allow detlint the benchmark measures wall-clock time by design
}
