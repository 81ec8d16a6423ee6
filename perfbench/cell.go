package main

import (
	"context"
	"fmt"
	"reflect"
	"time"

	"cameo/internal/cameo"
	"cameo/internal/system"
	"cameo/internal/workload"
)

// cellPlan sizes the cell-cameo-mcf workload.
type cellPlan struct {
	bench     string
	cores     int
	instr     uint64
	setupReps int // set-ups before each pass
}

// defaultCellPlan is the paper's rate mode: 32 copies of mcf, whose
// footprint overflows memory at 1/1024 scale.
var defaultCellPlan = cellPlan{bench: "mcf", cores: 32, instr: 1_000_000, setupReps: 3}

// config is the cell: CAMEO with the Co-Located LLT and the LLP, the
// FR-FCFS controller, caches starting empty.
func (p cellPlan) config(seed uint64) system.Config {
	return system.Config{
		Org: system.CAMEO, LLT: cameo.CoLocatedLLT, Pred: cameo.LLP,
		ScaleDiv: 1024, Cores: p.cores, InstrPerCore: p.instr, Seed: seed, FRFCFS: true,
	}
}

func runCell(ctx context.Context, env runEnv, p cellPlan) (*outcome, error) {
	spec, ok := workload.SpecByName(p.bench)
	if !ok {
		return nil, fmt.Errorf("unknown benchmark %q", p.bench)
	}
	cfg := p.config(env.seed)
	var pin *cellPin
	if env.pins != nil {
		pin = env.pins.Cell
	}
	if env.trace {
		return traceCell(ctx, env, spec, cfg, pin)
	}

	// Set-up is building the cell's machine from the public constructors:
	// the state the first simulated event starts from.
	setup := &setupClock{fn: func() error {
		_, err := buildMachine(spec, cfg, nil)
		return err
	}}
	out := &outcome{}
	var walls, rss []float64
	var first *system.Result
	var allocated uint64
	deadline := time.Now().Add(env.seconds)
	for out.attempted == 0 || time.Now().Before(deadline) {
		if ctx.Err() != nil {
			break
		}
		if err := setup.run(p.setupReps); err != nil {
			return nil, err
		}
		startPass()
		mem := readMem()
		start := time.Now()
		res, err := system.TryRun(ctx, spec, cfg)
		wall := time.Since(start).Seconds()
		allocated += readMem().alloc - mem.alloc
		rss = append(rss, peakRSSMB())
		out.attempted++
		if err != nil {
			out.fail(1, "cell run %d: %v", out.attempted, err)
			continue
		}
		walls = append(walls, wall)
		if first == nil {
			first = &res
			out.pin = cellPinOf(res)
		}
		if msg := checkCell(res, *first, pin, cfg); msg != "" {
			out.fail(1, "cell run %d: %s", out.attempted, msg)
		}
	}
	out.passes = out.attempted
	if first == nil {
		return out, fmt.Errorf("no cell run succeeded: %v", out.notes)
	}
	w := median(walls)
	out.metrics = map[string]float64{
		"setup_s":          median(setup.times),
		"wall_s":           w,
		"sim_minstr_per_s": float64(first.Instructions) / w / 1e6,
		"cells_per_s":      1 / w,
		"req_per_s":        1 / w,
		"req_p50_ms":       w * 1e3,
		"req_p75_ms":       quantile(walls, 0.75) * 1e3,
		"peak_rss_mb":      median(rss),
		"alloc_kb_per_op":  float64(allocated) / 1024 / float64(out.attempted),
	}
	return out, nil
}

// checkCell returns "" when res is correct: identical to the run's first
// result, equal to the pin when there is one, and otherwise consistent
// with invariants every cell satisfies.
func checkCell(res, first system.Result, pin *cellPin, cfg system.Config) string {
	if !reflect.DeepEqual(res, first) {
		return "result differs from the first run of the same cell"
	}
	if pin != nil {
		if got := cellPinOf(res); *got != *pin {
			return fmt.Sprintf("result %+v differs from the pinned %+v", *got, *pin)
		}
		return ""
	}
	switch {
	case res.Instructions < cfg.InstrPerCore*uint64(cfg.Cores):
		return fmt.Sprintf("retired %d instructions, below the %d budgeted", res.Instructions, cfg.InstrPerCore*uint64(cfg.Cores))
	case res.Cycles == 0 || res.Demands == 0:
		return "no cycles or no demands simulated"
	case res.Cameo == nil || res.Cameo.StackedHits+res.Cameo.OffChipHits != res.Demands:
		return "CAMEO's serviced demands do not add up to the cores' demands"
	}
	return ""
}

// traceCell alternates the untraced cell with the traced replica until
// the time is up. A traced run whose Result differs from system.TryRun's is
// a failure and its trace is not published.
func traceCell(ctx context.Context, env runEnv, spec workload.Spec, cfg system.Config, pin *cellPin) (*outcome, error) {
	out := &outcome{}
	clockNS := calibrateClock()
	totals := newLayerTotals()
	var overheads []float64
	var untracedNS, gcCycles, gcPause float64
	deadline := time.Now().Add(env.seconds)
	for out.passes == 0 || time.Now().Before(deadline) {
		if ctx.Err() != nil {
			break
		}
		out.passes++
		out.attempted++
		mem := readMem()
		start := time.Now()
		want, err := system.TryRun(ctx, spec, cfg)
		untraced := time.Since(start)
		mem.gcSince(&gcCycles, &gcPause)
		if err != nil {
			out.fail(1, "cell run: %v", err)
			continue
		}
		got, tr, err := runTraced(ctx, spec, cfg, clockNS)
		switch {
		case err != nil:
			out.fail(1, "traced cell: %v", err)
			continue
		case !reflect.DeepEqual(got, want):
			out.fail(1, "traced cell result differs from system.TryRun")
			continue
		}
		if msg := checkCell(want, want, pin, cfg); msg != "" {
			out.fail(1, "cell run: %s", msg)
			continue
		}
		totals.add(tr)
		overheads = append(overheads, float64(tr.totalNS)/1e9-untraced.Seconds())
		untracedNS += float64(untraced.Nanoseconds())
	}
	m := map[string]float64{}
	ok := out.passes - out.failed
	totals.metrics(ok, m)
	m["gc.cycles"] = gcCycles / float64(out.passes)
	m["gc.pause_ms"] = gcPause / float64(out.passes)
	m["trace.overhead_s"] = median(overheads)
	m["trace.self_sum_gap"] = ratio(totals.correctedNS-untracedNS, untracedNS)
	m["trace.clock_ns"] = clockNS
	fillLayerMetrics(m)
	out.metrics = m
	return out, nil
}
