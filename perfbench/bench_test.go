package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite pins.json from the default plans at the suite seed")

var (
	tinyCell  = cellPlan{bench: "sphinx3", cores: 2, instr: 20_000, setupReps: 1}
	tinySweep = sweepPlan{benchmarks: []string{"sphinx3"}, cores: 2, instr: 20_000, setupReps: 1}
	tinyServe = servePlan{benchmarks: []string{"sphinx3", "milc"}, seeds: 2, cores: 2, instr: 10_000, clients: 2, setupReps: 1}
)

func tinyRun(t *testing.T, trace bool, pins *pinFile, fn func(context.Context, runEnv) (*outcome, error)) *outcome {
	t.Helper()
	env := runEnv{seed: 7, seconds: 300 * time.Millisecond, trace: trace, dir: t.TempDir(), pins: pins}
	out, err := fn(context.Background(), env)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

var tinyWorkloads = map[string]func(context.Context, runEnv) (*outcome, error){
	"cell-cameo-mcf": func(ctx context.Context, env runEnv) (*outcome, error) { return runCell(ctx, env, tinyCell) },
	"sweep-fig13":    func(ctx context.Context, env runEnv) (*outcome, error) { return runSweep(ctx, env, tinySweep) },
	"serve-cached":   func(ctx context.Context, env runEnv) (*outcome, error) { return runServe(ctx, env, tinyServe) },
}

// TestTinyWorkloads runs every workload at a tiny size, untraced and
// traced, and checks that it passes its own correctness checks and reports
// every metric the benchmark declares.
func TestTinyWorkloads(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(w.name+map[bool]string{false: "/untraced", true: "/traced"}[trace], func(t *testing.T) {
				out := tinyRun(t, trace, nil, tinyWorkloads[w.name])
				if out.attempted == 0 || out.failed != 0 {
					t.Fatalf("attempted %d, failed %d: %v", out.attempted, out.failed, out.notes)
				}
				var buf bytes.Buffer
				env := runEnv{seed: 7, trace: trace}
				if err := writeResult(&buf, w.name, env, out); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if !res.Correct || len(res.Metrics) != len(defs) {
					t.Fatalf("correct %v with %d metrics, want %d", res.Correct, len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					if res.Metrics[d.name].Unit != d.unit {
						t.Errorf("%s: unit %q, want %q", d.name, res.Metrics[d.name].Unit, d.unit)
					}
					if !trace && res.Metrics[d.name].Value <= 0 {
						t.Errorf("%s = %v, want > 0", d.name, res.Metrics[d.name].Value)
					}
				}
			})
		}
	}
}

// TestTracedLayersSeeTheirWork checks that the traced cell attributes work
// to the layers it ran through.
func TestTracedLayersSeeTheirWork(t *testing.T) {
	out := tinyRun(t, true, nil, tinyWorkloads["cell-cameo-mcf"])
	for _, name := range []string{"workload.next_calls", "sim.events", "vm.translate_calls", "cameo.access_calls", "memctrl.access_calls", "trace.clock_ns"} {
		if out.metrics[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, out.metrics[name])
		}
	}
	// Self times are estimates from a few hundred samples at this size and
	// may come out either side of zero; they must exist.
	for _, name := range []string{"workload.self_ns_per_call", "sim.self_ns_per_event", "vm.self_ns_per_call", "org.cameo.self_ns_per_access", "memctrl.self_ns_per_call"} {
		if out.metrics[name] == 0 {
			t.Errorf("%s was not measured", name)
		}
	}
	if out.metrics["dram.access_calls"] != 0 {
		t.Errorf("dram.access_calls = %v on an FR-FCFS cell, want 0", out.metrics["dram.access_calls"])
	}
}

// TestPerturbedPinFails checks that each workload's correctness check
// rejects outputs that differ from its pin.
func TestPerturbedPinFails(t *testing.T) {
	cell := tinyRun(t, false, nil, tinyWorkloads["cell-cameo-mcf"]).pin.(*cellPin)
	cell.Cycles++
	sweep := tinyRun(t, false, nil, tinyWorkloads["sweep-fig13"]).pin.(*sweepPin)
	sweep.CSV = digest([]byte("perturbed"))
	serve := tinyRun(t, false, nil, tinyWorkloads["serve-cached"]).pin.(*servePin)
	serve.Response = digest([]byte("perturbed"))
	pins := &pinFile{Seed: 7, Cell: cell, Sweep: sweep, Serve: serve}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			if out := tinyRun(t, false, pins, tinyWorkloads[w.name]); out.failed == 0 {
				t.Fatalf("a perturbed pin passed: attempted %d, failed 0", out.attempted)
			}
		})
	}
}

// TestPins checks the default plans at the suite seed against pins.json,
// or rewrites it with -update.
func TestPins(t *testing.T) {
	if testing.Short() && !*update {
		t.Skip("runs the full-size workloads")
	}
	pins, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		pins = &pinFile{Seed: defaultSeed}
	}
	got := &pinFile{Seed: defaultSeed}
	for _, w := range workloads {
		env := runEnv{seed: defaultSeed, seconds: time.Millisecond, dir: t.TempDir()}
		if !*update {
			env.pins = pins
		}
		out, err := w.run(context.Background(), env)
		if err != nil {
			t.Fatal(err)
		}
		if out.failed != 0 {
			t.Errorf("%s: %v", w.name, out.notes)
		}
		switch p := out.pin.(type) {
		case *cellPin:
			got.Cell = p
		case *sweepPin:
			got.Sweep = p
		case *servePin:
			got.Serve = p
		}
	}
	if !*update {
		if !reflect.DeepEqual(got, pins) {
			t.Errorf("pins.json is incomplete: have %+v, runs produced %+v", pins, got)
		}
		return
	}
	b, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("pins.json", append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// benchmarkFile is the layout of the repository's BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesHarness checks that BENCHMARK.json declares
// exactly the workloads and metrics this program runs and prints.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b benchmarkFile
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d run", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: declared %q (%q), runs %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d printed", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end %d: declared %s (%s), printed %s (%s)", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: better %q, bound %v", m.Name, m.Better, m.Bound)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, %d printed", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per_layer %d: declared %s (%s, %s), printed %s (%s)", i, m.Name, m.Unit, m.Better, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// TestRunRejectsBadArguments checks that a bad invocation prints no result.
func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{{"-workload", "nope"}, {"-workload", "serve-cached", "-trace", "2"}, {"-bogus"}} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}
