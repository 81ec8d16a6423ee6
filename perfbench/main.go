// Command perfbench is the repository's benchmark: it drives three
// workloads through the simulator's public packages, checks their outputs,
// and prints end-to-end metrics (or, with -trace 1, per-layer metrics from a
// separately traced pass) as one JSON object on the last line of standard
// output, after a line recording the host, Go version, commit and seed.
//
//	bash perfbench/run.sh -workload cell-cameo-mcf -seed 7 -seconds 30 -trace 0
//
// run.sh builds the program from the checkout and runs it from the
// repository root; scratch files go under .bench_build/ and are removed on
// exit.
//
// Workloads, each measured for -seconds after its set-up:
//
//   - cell-cameo-mcf repeats one system.TryRun: CAMEO on 32 copies of mcf
//     with the FR-FCFS controller, caches starting empty.
//   - sweep-fig13 repeats the Figure 13 experiment (6 organizations x 5
//     benchmarks) through experiments.RunExperiment into a fresh disk cache,
//     with one runner job per CPU.
//   - serve-cached runs one client per CPU in a closed loop against an
//     in-process cameod server whose disk cache already holds every cell of
//     the 20-cell sweep each client sends.
//
// Correctness: at the suite seed every workload's output must equal
// pins.json; at any other seed a cell must equal the run's first cell, a
// sweep must render the same table and grid as the first sweep, and every
// response must equal the one the fill produced. A mismatch counts as a
// failed op.
//
// End-to-end metrics, measured untraced. A pass is one cell run, one whole
// sweep or one request; an op is one cell run, one grid cell or one
// request. Rates divide by the median pass, except serve-cached's, which
// are the median completions per second of the closed loop.
//
//   - setup_s: median of several set-ups. For the cell and the sweep it is
//     building the machines of one pass from the public constructors (the
//     state the first simulated event starts from), repeated before every
//     pass; for serve-cached it is starting a server over a fresh cache and
//     filling it, repeated before the loop.
//   - wall_s: median pass.
//   - sim_minstr_per_s: simulated instructions per host second (for
//     serve-cached, of the cached cells it delivered).
//   - cells_per_s, req_per_s: grid cells and ops per second.
//   - req_p50_ms, req_p75_ms: op latency (for the sweep, each cell's wall
//     time as the runner measured it). The 75th percentile is the highest
//     that repeats on every workload: a 30-second run holds only some 25
//     cell runs, whose 90th percentile, set by the two or three slowest,
//     moved by up to a third from run to run under bursts of host load.
//   - peak_rss_mb, alloc_kb_per_op: resident high-water mark and bytes
//     allocated per op.
//
// Per-layer metrics come from a traced pass that rebuilds each cell from
// the public constructors with timing decorators on workload.Source, the
// organization and the DRAM devices, and times vm translation, the cache
// tier and the HTTP handler from this program. Every call is counted; one
// memory request in sampleEvery (with every call nested in it) and one
// stream draw in sampleEvery are timed, and the calibrated cost of the
// clock reads is subtracted. A traced cell must reproduce system.TryRun's
// Result exactly, or it counts as failed and its trace is dropped.
// trace.overhead_s is traced minus untraced wall time per pass and
// trace.self_sum_gap is how far the corrected self times add up from the
// untraced wall time.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// defaultSeed is the suite seed; outputs at this seed are pinned.
const defaultSeed = 0xCA3E0

// runTimeout bounds one invocation, so a hung workload fails instead of
// outliving the harness's limits.
const runTimeout = 170 * time.Second

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them with -trace 0. An "op" is one cell run
// (cell-cameo-mcf), one grid cell (sweep-fig13) or one request
// (serve-cached); a "pass" is one cell run, one whole sweep or one request.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"sim_minstr_per_s", "Minstr/s"},
	{"cells_per_s", "1/s"},
	{"req_per_s", "1/s"},
	{"req_p50_ms", "ms"},
	{"req_p75_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"alloc_kb_per_op", "KB"},
}

// perLayer are the traced pass's metrics, named after the package that owns
// the layer; every workload reports all of them with -trace 1, as 0 for a
// layer it does not exercise.
var perLayer = []metricDef{
	{"workload.next_calls", "count"},
	{"workload.self_ns_per_call", "ns"},
	{"sim.events", "count"},
	{"sim.self_ns_per_event", "ns"},
	{"vm.translate_calls", "count"},
	{"vm.self_ns_per_call", "ns"},
	{"vm.major_faults", "count"},
	{"vm.minor_faults", "count"},
	{"cameo.access_calls", "count"},
	{"cameo.self_ns_per_access", "ns"},
	{"cameo.swaps", "count"},
	{"cameo.stacked_service_rate", "ratio"},
	{"cameo.llp_accuracy", "ratio"},
	{"org.baseline.self_ns_per_access", "ns"},
	{"org.cache.self_ns_per_access", "ns"},
	{"org.tlm-static.self_ns_per_access", "ns"},
	{"org.tlm-dynamic.self_ns_per_access", "ns"},
	{"org.cameo.self_ns_per_access", "ns"},
	{"org.doubleuse.self_ns_per_access", "ns"},
	{"tlm.migration_swaps", "count"},
	{"alloy.hit_rate", "ratio"},
	{"memctrl.access_calls", "count"},
	{"memctrl.self_ns_per_call", "ns"},
	{"memctrl.max_queue_depth", "count"},
	{"dram.access_calls", "count"},
	{"dram.self_ns_per_call", "ns"},
	{"dram.row_hit_rate", "ratio"},
	{"runner.cell_wall_p50_s", "s"},
	{"runner.cell_wall_max_s", "s"},
	{"runner.pool_efficiency", "ratio"},
	{"experiments.render_s", "s"},
	{"runner.cache.store_ns_per_call", "ns"},
	{"runner.cache.load_ns_per_call", "ns"},
	{"sweepapi.build_grid_ns", "ns"},
	{"server.handler_p50_ms", "ms"},
	{"http.transport_p50_ms", "ms"},
	{"gc.cycles", "count/op"},
	{"gc.pause_ms", "ms/op"},
	{"trace.overhead_s", "s"},
	{"trace.self_sum_gap", "ratio"},
	{"trace.clock_ns", "ns"},
}

// runEnv is what every workload receives.
type runEnv struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	dir     string   // scratch directory inside the checkout
	pins    *pinFile // nil: check invariants only
}

// outcome is one workload run's verdict and measurements.
type outcome struct {
	attempted, failed int
	passes            int
	metrics           map[string]float64
	notes             []string
	pin               any // the record a pin file holds for this workload
}

func (o *outcome) fail(n int, format string, args ...any) {
	o.failed += n
	if len(o.notes) < 20 {
		o.notes = append(o.notes, fmt.Sprintf(format, args...))
	}
}

type workloadDef struct {
	name, why string
	run       func(ctx context.Context, env runEnv) (*outcome, error)
}

var workloads = []workloadDef{
	{"cell-cameo-mcf", "The deepest per-access path: 32 copies of mcf overflow memory, so one CAMEO cell runs vm major faults and CLOCK eviction, LLT swaps, LLP prediction and the FR-FCFS controller.",
		func(ctx context.Context, env runEnv) (*outcome, error) { return runCell(ctx, env, defaultCellPlan) }},
	{"sweep-fig13", "The artifact paperbench users wait on: Figure 13's 30 cells exercise every baseline org's Access, TLM-Dynamic migration, Alloy, the analytic DRAM model, runner fan-out and cache Store.",
		func(ctx context.Context, env runEnv) (*outcome, error) { return runSweep(ctx, env, defaultSweepPlan) }},
	{"serve-cached", "The cameod path for repeated sweeps, with zero simulation: admission, BuildGrid, cache Load and decode, JSON; a simulator-only change must not move it.",
		func(ctx context.Context, env runEnv) (*outcome, error) { return runServe(ctx, env, defaultServePlan) }},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", defaultSeed, "input seed")
	seconds := fs.Float64("seconds", 10, "measurement time in seconds")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced pass instead of end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (one of %s), -seconds > 0 and -trace 0|1\n", workloadNames())
		return 2
	}

	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	env := runEnv{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1, dir: dir}
	if pins, err := loadPins(); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	} else if pins.Seed == *seed {
		env.pins = pins
	}

	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	out, err := w.run(ctx, env)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if err := writeResult(stdout, w.name, env, out); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// metricValue is one entry of the result's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// writeResult prints the run's context line, then the result line. The context
// line carries the host and build the numbers were measured on.
func writeResult(w io.Writer, name string, env runEnv, out *outcome) error {
	defs := endToEnd
	if env.trace {
		defs = perLayer
	}
	res := result{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok {
			return fmt.Errorf("%s: workload produced no %s", name, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: %s is %v", name, d.name, v)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	info := map[string]any{
		"workload":   name,
		"seed":       env.seed,
		"trace":      env.trace,
		"seconds":    env.seconds.Seconds(),
		"passes":     out.passes,
		"error_rate": ratio(float64(out.failed), float64(out.attempted)),
		"pinned":     env.pins != nil,
		"host":       hostInfo(),
	}
	if len(out.notes) > 0 {
		info["failures"] = out.notes
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"context": info}); err != nil {
		return err
	}
	return enc.Encode(res)
}

// hostInfo records where and from what the numbers were measured.
func hostInfo() map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"commit":     commit,
	}
}

// startPass collects the garbage of the previous pass and set-ups and
// returns its memory to the OS, as a fresh process would start without it,
// then starts a new resident-set high-water mark (Linux's clear_refs) so
// that peakRSSMB covers this pass alone. Where the reset is unavailable the
// mark covers the whole process so far.
func startPass() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the resident-set high-water mark since startPass.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// memSnapshot is the allocation and GC state at one instant.
type memSnapshot struct {
	alloc   uint64
	gcs     uint32
	pauseNS uint64
}

func readMem() memSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnapshot{alloc: ms.TotalAlloc, gcs: ms.NumGC, pauseNS: ms.PauseTotalNs}
}

// gcSince adds the GC cycles and pause time since s to the totals.
func (s memSnapshot) gcSince(cycles, pauseMS *float64) {
	now := readMem()
	*cycles += float64(now.gcs - s.gcs)
	*pauseMS += float64(now.pauseNS-s.pauseNS) / 1e6
}

// setupClock times repetitions of a workload's set-up. The cell and the
// sweep repeat theirs before every pass, so that a burst of host load at
// start-up alone does not decide the median.
type setupClock struct {
	fn    func() error
	times []float64 // seconds
}

func (s *setupClock) run(reps int) error {
	for range reps {
		start := time.Now()
		if err := s.fn(); err != nil {
			return err
		}
		s.times = append(s.times, time.Since(start).Seconds())
	}
	return nil
}

// fillLayerMetrics sets every per-layer metric the workload did not
// exercise to 0.
func fillLayerMetrics(m map[string]float64) {
	for _, d := range perLayer {
		if _, ok := m[d.name]; !ok {
			m[d.name] = 0
		}
	}
}
