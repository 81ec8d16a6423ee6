package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"sync"
	"time"

	"cameo/internal/experiments"
	"cameo/internal/report"
	"cameo/internal/runner"
	"cameo/internal/system"
)

// sweepPlan sizes the sweep-fig13 workload. Zero cores and instr take the
// suite's default operating point.
type sweepPlan struct {
	benchmarks []string
	cores      int
	instr      uint64
	setupReps  int // set-ups before each pass
}

// defaultSweepPlan is Figure 13 over two capacity-limited and three
// latency-limited benchmarks at the suite's default operating point.
var defaultSweepPlan = sweepPlan{benchmarks: []string{"mcf", "lbm", "milc", "gcc", "sphinx3"}, setupReps: 2}

// fig13Orgs are the organizations of the paper's Figure 13 grid.
var fig13Orgs = []string{"baseline", "cache", "tlm-static", "tlm-dynamic", "cameo", "doubleuse"}

func (p sweepPlan) suite(seed uint64, cache runner.Cache) (*experiments.Suite, error) {
	return experiments.NewSuite(experiments.Options{
		Benchmarks: p.benchmarks, Cores: p.cores, InstrPerCore: p.instr, Seed: seed,
		Jobs: runtime.NumCPU(), Cache: cache,
	})
}

func (p sweepPlan) cells() int { return len(p.benchmarks) * len(fig13Orgs) }

// sweepPass is one whole Figure 13 sweep into a fresh disk cache.
type sweepPass struct {
	wall      float64   // seconds, plan to rendered table (to prewarmed grid when traced)
	render    float64   // seconds rendering after the prewarm, when traced
	alloc     uint64    // bytes allocated by the timed sweep
	cellWalls []float64 // seconds, as the runner timed each cell
	instr     uint64    // simulated instructions over the grid
	table     []byte
	csv       []byte
	results   []system.Result
	failures  *runner.FailureReport
}

// runSweepPass sweeps Figure 13 once. A non-nil stores marks the untraced
// half of a traced run: the disk cache is timed through it, and the prewarm
// and the render are timed apart instead of running as one RunExperiment.
func runSweepPass(ctx context.Context, env runEnv, p sweepPlan, stores *timedCache) (*sweepPass, error) {
	dir, err := os.MkdirTemp(env.dir, "sweep-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	disk, err := runner.OpenDiskCache(dir)
	if err != nil {
		return nil, err
	}
	defer disk.Close()
	var cache runner.Cache = disk
	if stores != nil {
		stores.Cache = disk
		cache = stores
	}
	suite, err := p.suite(env.seed, cache)
	if err != nil {
		return nil, err
	}
	e, _ := experiments.ByID("fig13")
	var table bytes.Buffer
	pass := &sweepPass{}
	mem := readMem()
	start := time.Now()
	if stores == nil {
		err = experiments.RunExperiment(ctx, suite, e, &table)
		pass.wall = time.Since(start).Seconds()
	} else {
		err = suite.Prewarm(ctx, e.Plan(suite))
		pass.wall = time.Since(start).Seconds()
		if err == nil {
			e.Run(suite, &table)
		}
		pass.render = time.Since(start).Seconds() - pass.wall
	}
	pass.alloc = readMem().alloc - mem.alloc
	if err != nil {
		return nil, err
	}
	pass.table, pass.failures = table.Bytes(), suite.FailureReport()
	pass.results = suite.Results()
	var csv bytes.Buffer
	if err := report.WriteCSV(&csv, pass.results); err != nil {
		return nil, err
	}
	pass.csv = csv.Bytes()
	for _, r := range pass.results {
		pass.instr += r.Instructions
	}
	for _, c := range suite.Telemetry(true).Cells {
		pass.cellWalls = append(pass.cellWalls, float64(c.WallNS)/1e9)
	}
	return pass, nil
}

// check returns "" when the pass is correct: every cell present, digests
// equal to the pin when there is one, and otherwise equal to the first
// pass's.
func (s *sweepPass) check(p sweepPlan, first *sweepPass, pin *sweepPin) string {
	if len(s.results) != p.cells() || s.failures != nil {
		return fmt.Sprintf("%d of %d grid cells completed", len(s.results), p.cells())
	}
	got := sweepPin{Table: digest(s.table), CSV: digest(s.csv)}
	if pin != nil && got != *pin {
		return fmt.Sprintf("digests %+v differ from the pinned %+v", got, *pin)
	}
	if !bytes.Equal(s.table, first.table) || !bytes.Equal(s.csv, first.csv) {
		return "table or grid differs from the first sweep"
	}
	return ""
}

func runSweep(ctx context.Context, env runEnv, p sweepPlan) (*outcome, error) {
	var pin *sweepPin
	if env.pins != nil {
		pin = env.pins.Sweep
	}
	if env.trace {
		return traceSweep(ctx, env, p, pin)
	}

	// Set-up is building every grid cell's machine from the public
	// constructors: the state each cell's first simulated event starts from.
	plan, err := p.suite(env.seed, nil)
	if err != nil {
		return nil, err
	}
	jobs := experiments.PlanFig13(plan)
	setup := &setupClock{fn: func() error {
		for _, j := range jobs {
			if _, err := buildMachine(j.Specs[0], j.Cfg, nil); err != nil {
				return err
			}
		}
		return nil
	}}
	out := &outcome{}
	var walls, cellWalls, rss []float64
	var first *sweepPass
	var allocated uint64
	deadline := time.Now().Add(env.seconds)
	for out.passes == 0 || time.Now().Before(deadline) {
		if ctx.Err() != nil {
			break
		}
		if err := setup.run(p.setupReps); err != nil {
			return nil, err
		}
		out.passes++
		out.attempted += p.cells()
		startPass()
		pass, err := runSweepPass(ctx, env, p, nil)
		rss = append(rss, peakRSSMB())
		if err != nil {
			out.fail(p.cells(), "sweep %d: %v", out.passes, err)
			continue
		}
		if first == nil {
			first = pass
			out.pin = &sweepPin{Table: digest(pass.table), CSV: digest(pass.csv)}
		}
		if msg := pass.check(p, first, pin); msg != "" {
			out.fail(p.cells(), "sweep %d: %s", out.passes, msg)
			continue
		}
		walls = append(walls, pass.wall)
		cellWalls = append(cellWalls, pass.cellWalls...)
		allocated += pass.alloc
	}
	if first == nil {
		return out, fmt.Errorf("no sweep succeeded: %v", out.notes)
	}
	w := median(walls)
	cells := float64(p.cells())
	out.metrics = map[string]float64{
		"setup_s":          median(setup.times),
		"wall_s":           w,
		"sim_minstr_per_s": float64(first.instr) / w / 1e6,
		"cells_per_s":      cells / w,
		"req_per_s":        cells / w,
		"req_p50_ms":       median(cellWalls) * 1e3,
		"req_p75_ms":       quantile(cellWalls, 0.75) * 1e3,
		"peak_rss_mb":      median(rss),
		"alloc_kb_per_op":  float64(allocated) / 1024 / float64(len(walls)*p.cells()),
	}
	return out, nil
}

// timedCache times the runner's calls into its persistent cache.
type timedCache struct {
	runner.Cache
	mu            sync.Mutex
	loads, stores int
	loadNS        int64
	storeNS       int64
}

func (c *timedCache) Load(hash string) (system.Result, bool) {
	start := clock()
	res, ok := c.Cache.Load(hash)
	d := clock() - start
	c.mu.Lock()
	c.loads++
	c.loadNS += d
	c.mu.Unlock()
	return res, ok
}

func (c *timedCache) Store(hash string, res system.Result) {
	start := clock()
	c.Cache.Store(hash, res)
	d := clock() - start
	c.mu.Lock()
	c.stores++
	c.storeNS += d
	c.mu.Unlock()
}

// traceSweep alternates an untraced sweep (split into prewarm and render,
// with the disk cache timed) with the same grid run through the runner's
// Execute hook on traced machines, until the time is up. Every traced cell
// must reproduce its untraced Result exactly.
func traceSweep(ctx context.Context, env runEnv, p sweepPlan, pin *sweepPin) (*outcome, error) {
	out := &outcome{}
	clockNS := calibrateClock()
	totals := newLayerTotals()
	workers := runtime.NumCPU()
	var overheads, renders, cellWalls, efficiencies []float64
	var untracedNS, gcCycles, gcPause float64
	var okPasses int
	stores := &timedCache{}
	plan, err := p.suite(env.seed, nil)
	if err != nil {
		return nil, err
	}
	jobs := experiments.PlanFig13(plan)
	deadline := time.Now().Add(env.seconds)
	for out.passes == 0 || time.Now().Before(deadline) {
		if ctx.Err() != nil {
			break
		}
		out.passes++
		out.attempted += p.cells()
		mem := readMem()
		want, err := runSweepPass(ctx, env, p, stores)
		mem.gcSince(&gcCycles, &gcPause)
		if err != nil {
			out.fail(p.cells(), "sweep: %v", err)
			continue
		}
		if pin != nil && digest(want.csv) != pin.CSV {
			out.fail(p.cells(), "grid differs from the pinned digest")
			continue
		}

		var mu sync.Mutex
		traces := map[string]*cellTrace{}
		var traceErr error
		run := runner.New(runner.Options{Jobs: workers, Execute: func(ctx context.Context, j runner.Job) system.Result {
			res, tr, err := runTraced(ctx, j.Specs[0], j.Cfg, clockNS)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				traceErr = err
				return system.Result{}
			}
			traces[j.Key()] = tr
			return res
		}})
		start := time.Now()
		err = run.RunAll(ctx, jobs)
		traced := time.Since(start).Seconds()
		got := run.Results()
		if err != nil || len(got) != len(want.results) {
			out.fail(p.cells(), "traced sweep: %d of %d cells, %v", len(got), len(want.results), err)
			continue
		}
		keys := run.Telemetry(false).Cells
		var passTraces []*cellTrace
		for i, res := range got {
			if tr := traces[keys[i].Key]; tr != nil && reflect.DeepEqual(res, want.results[i]) {
				passTraces = append(passTraces, tr)
			}
		}
		if bad := len(got) - len(passTraces); bad > 0 {
			out.fail(bad, "%d traced cells differ from system.TryRun (%v)", bad, traceErr)
			continue
		}
		okPasses++
		for _, tr := range passTraces {
			totals.add(tr)
		}
		overheads = append(overheads, traced-want.wall)
		renders = append(renders, want.render)
		var sum float64
		for _, w := range want.cellWalls {
			sum += w
		}
		untracedNS += sum * 1e9
		efficiencies = append(efficiencies, sum/(want.wall*float64(workers)))
		cellWalls = append(cellWalls, want.cellWalls...)
	}
	m := map[string]float64{}
	totals.metrics(okPasses, m)
	m["runner.cell_wall_p50_s"] = median(cellWalls)
	m["runner.cell_wall_max_s"] = quantile(cellWalls, 1)
	m["runner.pool_efficiency"] = median(efficiencies)
	m["experiments.render_s"] = median(renders)
	m["runner.cache.store_ns_per_call"] = ratio(float64(stores.storeNS), float64(stores.stores))
	m["gc.cycles"] = gcCycles / float64(out.attempted)
	m["gc.pause_ms"] = gcPause / float64(out.attempted)
	m["trace.overhead_s"] = median(overheads)
	m["trace.self_sum_gap"] = ratio(totals.correctedNS-untracedNS, untracedNS)
	m["trace.clock_ns"] = clockNS
	fillLayerMetrics(m)
	out.metrics = m
	return out, nil
}
