package experiments

import (
	"io"

	"cameo/internal/cameo"
	"cameo/internal/runner"
	"cameo/internal/stats"
	"cameo/internal/system"
	"cameo/internal/workload"
)

// The ext-* experiments go beyond the paper's figures: they implement the
// extension Section VI-D sketches and the sensitivity studies the paper's
// motivation implies but does not evaluate.

func extHybridCols(s *Suite) []column {
	plain := s.cameoCfg(cameo.CoLocatedLLT, cameo.LLP)
	filt2 := plain
	filt2.HotSwapThreshold = 2
	filt4 := plain
	filt4.HotSwapThreshold = 4
	return []column{
		{"CAMEO", plain},
		{"CAMEO-hot2", filt2},
		{"CAMEO-hot4", filt4},
	}
}

// PlanExtHybrid declares ExtHybrid's grid.
func PlanExtHybrid(s *Suite) []runner.Job { return s.planSpeedup(extHybridCols(s)) }

// ExtHybrid evaluates the Section VI-D extension: CAMEO with a
// page-frequency filter in front of the swap machinery, so cold
// (streamed-once) pages no longer displace hot stacked residents.
func ExtHybrid(s *Suite, w io.Writer) {
	s.speedupTable("Extension: CAMEO with frequency-filtered swaps (Section VI-D)",
		extHybridCols(s), w)
}

func extThresholdCols(s *Suite) []column {
	mk := func(n int) system.Config {
		cfg := s.sysConfig(system.TLMDynamic)
		cfg.MigrationThreshold = n
		return cfg
	}
	return []column{
		{"touch-1", mk(1)},
		{"touch-4", mk(4)},
		{"touch-16", mk(16)},
	}
}

// PlanExtThreshold declares ExtThreshold's grid.
func PlanExtThreshold(s *Suite) []runner.Job { return s.planSpeedup(extThresholdCols(s)) }

// ExtThreshold sweeps TLM-Dynamic's migration trigger: the paper migrates
// on the first touch; deferring until N touches trades locality for
// migration bandwidth — the knob that would have rescued milc.
func ExtThreshold(s *Suite, w io.Writer) {
	s.speedupTable("Extension: TLM-Dynamic migration-threshold sweep", extThresholdCols(s), w)
}

// extRatioCells is the (organization, stacked-divisor) grid of ExtRatio.
func extRatioCells(s *Suite) []system.Config {
	mk := func(org system.OrgKind, div int) system.Config {
		cfg := s.sysConfig(org)
		cfg.StackedDivisor = div
		return cfg
	}
	return []system.Config{
		mk(system.Cache, 4), mk(system.Cache, 2),
		mk(system.TLMStatic, 4), mk(system.TLMStatic, 2),
		mk(system.CAMEO, 4), mk(system.CAMEO, 2),
	}
}

// PlanExtRatio declares ExtRatio's grid (cells plus the shared baseline).
func PlanExtRatio(s *Suite) []runner.Job {
	cfgs := append([]system.Config{s.sysConfig(system.Baseline)}, extRatioCells(s)...)
	return s.planConfigs(cfgs)
}

// ExtRatio holds total capacity at 16 GB and moves the stacked share from
// the paper's quarter to the half the introduction says technology is
// heading toward, for the three main design families.
func ExtRatio(s *Suite, w io.Writer) {
	tab := stats.NewTable("Extension: stacked share of a fixed 16 GB total",
		"Workload", "Class", "Cache 1/4", "Cache 1/2", "TLM-S 1/4", "TLM-S 1/2", "CAMEO 1/4", "CAMEO 1/2")
	cells := extRatioCells(s)
	agg := make([][]float64, len(cells))
	for _, spec := range s.benchmarks() {
		row := []any{spec.Name, spec.Class.String()}
		for i, cfg := range cells {
			// Each divisor has its own baseline-free comparison: the
			// baseline (no stacked DRAM, 12 GB) is independent of the
			// divisor, so the Table I baseline is reused.
			sp := s.speedup(spec, cfg)
			row = append(row, sp)
			agg[i] = append(agg[i], sp)
		}
		tab.AddRowF(row...)
	}
	row := []any{"Gmean", "ALL"}
	for i := range cells {
		row = append(row, stats.Gmean(agg[i]))
	}
	tab.AddRowF(row...)
	tab.Render(w)
}

// ExtScale re-runs the headline comparison at a finer scale to show the
// orderings are not an artifact of the default 1/1024 operating point. It
// has no top-level Plan: the grid lives at a different scale, so it builds
// a child suite (sharing the worker pool, memo map, and persistent cache)
// and prewarms through that.
func ExtScale(s *Suite, w io.Writer) {
	half, err := s.child(Options{
		ScaleDiv:     s.opts.ScaleDiv / 2,
		Cores:        s.opts.Cores,
		InstrPerCore: s.opts.InstrPerCore,
		Seed:         s.opts.Seed,
		Benchmarks:   pickScaleSubset(s),
	})
	if err != nil {
		panic(runError{err})
	}
	cols := []column{
		{"Cache", half.sysConfig(system.Cache)},
		{"TLM-Static", half.sysConfig(system.TLMStatic)},
		{"CAMEO", half.cameoCfg(cameo.CoLocatedLLT, cameo.LLP)},
		{"DoubleUse", half.sysConfig(system.DoubleUse)},
	}
	if err := half.Prewarm(half.ctx, half.planSpeedup(cols)); err != nil {
		panic(runError{err})
	}
	half.speedupTable("Extension: headline orderings at double capacity scale", cols, w)
}

// extControllerCfgs returns ExtController's full grid for one benchmark:
// the three controller-matched baselines plus the six compared cells.
func extControllerCfgs(s *Suite) []system.Config {
	mk := func(org system.OrgKind, buffered bool) system.Config {
		cfg := s.sysConfig(org)
		cfg.WriteBuffered = buffered
		return cfg
	}
	mkF := func(org system.OrgKind) system.Config {
		cfg := s.sysConfig(org)
		cfg.FRFCFS = true
		return cfg
	}
	cam := s.cameoCfg(cameo.CoLocatedLLT, cameo.LLP)
	camWQ := cam
	camWQ.WriteBuffered = true
	camF := cam
	camF.FRFCFS = true
	return []system.Config{
		mk(system.Baseline, false), mk(system.Baseline, true), mkF(system.Baseline),
		mk(system.Cache, false), mk(system.Cache, true), mkF(system.Cache),
		cam, camWQ, camF,
	}
}

// PlanExtController declares ExtController's grid.
func PlanExtController(s *Suite) []runner.Job {
	return s.planConfigs(extControllerCfgs(s))
}

// ExtController measures the DRAM-controller write-queue model (reads
// prioritized over posted writes, idle-time drains) against the paper-style
// in-order service. Each variant is normalized against a baseline using the
// same controller, so the columns compare organization orderings, not raw
// controller throughput.
func ExtController(s *Suite, w io.Writer) {
	cfgs := extControllerCfgs(s)
	basePlainCfg, baseWQCfg, baseFCfg := cfgs[0], cfgs[1], cfgs[2]

	tab := stats.NewTable("Extension: memory-controller models (per-controller baselines)",
		"Workload", "Class", "Cache", "Cache+WQ", "Cache+FRFCFS", "CAMEO", "CAMEO+WQ", "CAMEO+FRFCFS")
	agg := make([][]float64, 6)
	for _, spec := range s.benchmarks() {
		basePlain := s.result(spec, basePlainCfg)
		baseWQ := s.result(spec, baseWQCfg)
		baseF := s.result(spec, baseFCfg)
		cells := []struct {
			cfg  system.Config
			base system.Result
		}{
			{cfgs[3], basePlain},
			{cfgs[4], baseWQ},
			{cfgs[5], baseF},
			{cfgs[6], basePlain},
			{cfgs[7], baseWQ},
			{cfgs[8], baseF},
		}
		row := []any{spec.Name, spec.Class.String()}
		for i, c := range cells {
			sp := stats.Speedup(c.base.Cycles, s.result(spec, c.cfg).Cycles)
			row = append(row, sp)
			agg[i] = append(agg[i], sp)
		}
		tab.AddRowF(row...)
	}
	row := []any{"Gmean", "ALL"}
	for i := range agg {
		row = append(row, stats.Gmean(agg[i]))
	}
	tab.AddRowF(row...)
	tab.Render(w)
}

func extDRAMCacheCols(s *Suite) []column {
	return []column{
		{"LH-Cache", s.sysConfig(system.LHCache)},
		{"LH+MissMap", s.sysConfig(system.LHCacheMM)},
		{"Alloy", s.sysConfig(system.Cache)},
		{"CAMEO", s.cameoCfg(cameo.CoLocatedLLT, cameo.LLP)},
	}
}

// PlanExtDRAMCache declares ExtDRAMCache's grid.
func PlanExtDRAMCache(s *Suite) []runner.Job { return s.planSpeedup(extDRAMCacheCols(s)) }

// ExtDRAMCache pits the two hardware-cache designs from the literature
// against each other and against CAMEO: the set-associative Loh-Hill cache
// (tag serialization, optional idealized MissMap) and the direct-mapped
// Alloy cache the paper builds on — reproducing the Alloy paper's claim
// (latency beats associativity in DRAM caches) inside this simulator.
func ExtDRAMCache(s *Suite, w io.Writer) {
	s.speedupTable("Extension: DRAM-cache designs vs CAMEO", extDRAMCacheCols(s), w)
}

func extLLTCacheCfgs(s *Suite) []system.Config {
	mk := func(entries int) system.Config {
		cfg := s.cameoCfg(cameo.EmbeddedLLT, cameo.SAM)
		cfg.LLTCacheEntries = entries
		return cfg
	}
	return []system.Config{mk(0), mk(4096), mk(65536), s.cameoCfg(cameo.CoLocatedLLT, cameo.SAM)}
}

// PlanExtLLTCache declares ExtLLTCache's grid (cells plus baseline).
func PlanExtLLTCache(s *Suite) []runner.Job {
	cfgs := append([]system.Config{s.sysConfig(system.Baseline)}, extLLTCacheCfgs(s)...)
	return s.planConfigs(cfgs)
}

// ExtLLTCache gives the Embedded-LLT design the SRAM entry cache follow-on
// work reached for, asking how much of Co-Located's advantage is layout and
// how much is just avoiding the second DRAM trip.
func ExtLLTCache(s *Suite, w io.Writer) {
	tab := stats.NewTable("Extension: SRAM entry cache for Embedded-LLT",
		"Workload", "Class", "Embedded", "Emb+4K", "Emb+64K", "CoLocated")
	cols := extLLTCacheCfgs(s)
	agg := make([][]float64, len(cols))
	for _, spec := range s.benchmarks() {
		row := []any{spec.Name, spec.Class.String()}
		for i, cfg := range cols {
			sp := s.speedup(spec, cfg)
			row = append(row, sp)
			agg[i] = append(agg[i], sp)
		}
		tab.AddRowF(row...)
	}
	row := []any{"Gmean", "ALL"}
	for i := range cols {
		row = append(row, stats.Gmean(agg[i]))
	}
	tab.AddRowF(row...)
	tab.Render(w)
}

// extKnobs is the knob list of ExtKnobs, in column order.
type knob struct {
	label string
	apply func(*system.Config)
}

func extKnobList() []knob {
	return []knob{
		{"plain", func(*system.Config) {}},
		{"+refresh", func(c *system.Config) { c.Refresh = true }},
		{"+tlb", func(c *system.Config) { c.UseTLB = true }},
		{"+l3", func(c *system.Config) { c.UseL3 = true }},
	}
}

// PlanExtKnobs declares ExtKnobs' grid: every knob applied to both the
// baseline and CAMEO. (The canonical cell key covers every Config field,
// so knob variants memoize safely.)
func PlanExtKnobs(s *Suite) []runner.Job {
	var cfgs []system.Config
	for _, k := range extKnobList() {
		bcfg := s.sysConfig(system.Baseline)
		k.apply(&bcfg)
		ccfg := s.cameoCfg(cameo.CoLocatedLLT, cameo.LLP)
		k.apply(&ccfg)
		cfgs = append(cfgs, bcfg, ccfg)
	}
	return s.planConfigs(cfgs)
}

// ExtKnobs measures the opt-in model-fidelity knobs (DRAM refresh, per-core
// TLBs, an explicit L3) one at a time on CAMEO, each normalized against a
// baseline with the same knob, so the deltas isolate how much each modeling
// simplification matters to the headline result.
func ExtKnobs(s *Suite, w io.Writer) {
	knobs := extKnobList()
	tab := stats.NewTable("Extension: model-fidelity knobs (CAMEO speedup, knob-matched baselines)",
		append([]string{"Workload", "Class"}, func() []string {
			var ls []string
			for _, k := range knobs {
				ls = append(ls, k.label)
			}
			return ls
		}()...)...)
	agg := make([][]float64, len(knobs))
	for _, spec := range s.benchmarks() {
		row := []any{spec.Name, spec.Class.String()}
		for i, k := range knobs {
			bcfg := s.sysConfig(system.Baseline)
			k.apply(&bcfg)
			ccfg := s.cameoCfg(cameo.CoLocatedLLT, cameo.LLP)
			k.apply(&ccfg)
			base := s.result(spec, bcfg)
			cam := s.result(spec, ccfg)
			sp := stats.Speedup(base.Cycles, cam.Cycles)
			row = append(row, sp)
			agg[i] = append(agg[i], sp)
		}
		tab.AddRowF(row...)
	}
	row := []any{"Gmean", "ALL"}
	for i := range knobs {
		row = append(row, stats.Gmean(agg[i]))
	}
	tab.AddRowF(row...)
	tab.Render(w)
}

func extNewOrgCols(s *Suite) []column {
	return []column{
		{"Alloy", s.sysConfig(system.Cache)},
		{"MemCache", s.sysConfig(system.MemCache)},
		{"Gemini", s.sysConfig(system.Gemini)},
		{"CAMEO", s.cameoCfg(cameo.CoLocatedLLT, cameo.LLP)},
	}
}

// PlanExtNewOrgs declares ExtNewOrgs' grid.
func PlanExtNewOrgs(s *Suite) []runner.Job { return s.planSpeedup(extNewOrgCols(s)) }

// ExtNewOrgs compares the two organizations added from the related papers —
// MemCache's static part-memory/part-cache split and Gemini's hybrid
// direct/set-associative mapping — against the Alloy cache they build on
// and against CAMEO, all at their registry defaults.
func ExtNewOrgs(s *Suite, w io.Writer) {
	s.speedupTable("Extension: related-paper organizations (MemCache, Gemini) vs Alloy and CAMEO",
		extNewOrgCols(s), w)
}

// pickScaleSubset keeps ExtScale affordable: the configured subset if one
// was given, else one benchmark per class.
func pickScaleSubset(s *Suite) []string {
	if len(s.opts.Benchmarks) > 0 {
		return s.opts.Benchmarks
	}
	var out []string
	seen := map[workload.Class]bool{}
	for _, spec := range workload.Specs() {
		if !seen[spec.Class] {
			seen[spec.Class] = true
			out = append(out, spec.Name)
		}
	}
	return out
}
