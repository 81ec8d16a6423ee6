package main

import (
	"context"
	"fmt"

	"cameo/internal/alloy"
	"cameo/internal/cameo"
	"cameo/internal/cpu"
	"cameo/internal/dram"
	"cameo/internal/lohhill"
	"cameo/internal/memctrl"
	"cameo/internal/memorg"
	"cameo/internal/memsys"
	"cameo/internal/metrics"
	"cameo/internal/sim"
	"cameo/internal/stats"
	"cameo/internal/system"
	"cameo/internal/tlm"
	"cameo/internal/vm"
	"cameo/internal/workload"
)

// machine is one rate-mode cell wired from the simulator's public
// constructors: the composition system.TryRun performs internally, rebuilt
// here so that a cellTrace can decorate every layer boundary. With a nil
// trace the wiring is undecorated.
//
// The replica covers the configurations the benchmark runs. Knobs it does
// not mirror (L3, TLBs, warm-up, refresh, write buffering, sharded mode,
// oracle placement) are refused rather than silently simulated differently.
type machine struct {
	cfg  system.Config
	spec workload.Spec
	eng  *sim.Engine
	vmm  *vm.Memory
	// org is the organization itself; access is what the cores call, the
	// timing decorator around org when tracing.
	org     memsys.Organization
	access  memsys.Organization
	devices []dram.Device // undecorated, in construction order
	cores   []*cpu.Core
	lat     stats.Hist
	dropped uint64
	tr      *cellTrace
}

// buildMachine constructs the machine for spec under cfg. tr may be nil.
func buildMachine(spec workload.Spec, cfg system.Config, tr *cellTrace) (*machine, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if cfg.UseL3 || cfg.UseTLB || cfg.WarmupInstr > 0 || cfg.Refresh || cfg.WriteBuffered || cfg.Shards > 0 {
		return nil, fmt.Errorf("perfbench: the traced machine does not mirror L3, TLB, warm-up, refresh, write-buffering or sharded configurations")
	}
	desc, ok := memorg.ByKind(int(cfg.Org))
	if !ok {
		return nil, fmt.Errorf("perfbench: unknown organization %v", cfg.Org)
	}
	if desc.OracleHotPages {
		return nil, fmt.Errorf("perfbench: the traced machine does not mirror oracle page placement")
	}
	m := &machine{cfg: cfg, spec: spec, eng: sim.NewEngine(), tr: tr}

	env := memorg.Env{
		Kind:               int(cfg.Org),
		Cores:              cfg.Cores,
		Seed:               cfg.Seed,
		StackedBytes:       cfg.StackedBytes(),
		OffChipBytes:       cfg.OffChipBytes(),
		StackedDivisor:     cfg.StackedDivisor,
		LLT:                int(cfg.LLT),
		Pred:               int(cfg.Pred),
		LLTCacheEntries:    cfg.LLTCacheEntries,
		HotSwapThreshold:   cfg.HotSwapThreshold,
		MigrationThreshold: cfg.MigrationThreshold,
		EpochAccesses:      cfg.EpochAccesses,
		MemPartPct:         cfg.MemPartPct,
		HybridWays:         cfg.HybridWays,
	}
	env.VisibleLines, env.StackedLines = desc.Geometry(env)
	vmCfg := vm.DefaultConfig(env.VisibleLines/vm.LinesPerPage, env.StackedLines/vm.LinesPerPage)
	vmCfg.Seed = cfg.Seed
	m.vmm = vm.New(vmCfg, cfg.Cores)
	env.OS = m.vmm

	sources := make([]workload.Source, cfg.Cores)
	for core := range sources {
		sources[core] = workload.NewStream(spec, cfg.ScaleDiv, core, cfg.Seed)
		if tr != nil {
			sources[core] = &timedSource{src: sources[core], tr: tr}
		}
	}

	env.NewStacked = func() (dram.Device, error) { return m.newDevice(dram.StackedConfig(cfg.StackedBytes())) }
	env.NewOffChip = func(capacity uint64) (dram.Device, error) { return m.newDevice(dram.OffChipConfig(capacity)) }
	org, err := desc.Build(env)
	if err != nil {
		return nil, fmt.Errorf("perfbench: building %s: %w", cfg.Org, err)
	}
	m.org, m.access = org, org
	if tr != nil {
		tr.orgName = desc.Name
		m.access = &timedOrg{Organization: org, tr: tr}
	}

	for core := 0; core < cfg.Cores; core++ {
		m.cores = append(m.cores, cpu.New(cpu.DefaultConfig(core, spec.MLP, cfg.InstrPerCore), m.eng, sources[core], m.mem))
	}
	return m, nil
}

// newDevice builds one DRAM device with the configured engine, decorated
// when tracing.
func (m *machine) newDevice(c dram.Config) (dram.Device, error) {
	var (
		dev dram.Device
		err error
	)
	if m.cfg.FRFCFS {
		dev, err = memctrl.NewController(c)
	} else {
		dev, err = dram.New(c)
	}
	if err != nil {
		return nil, err
	}
	m.devices = append(m.devices, dev)
	if m.tr != nil {
		return &timedDevice{Device: dev, tr: m.tr}, nil
	}
	return dev, nil
}

// mem is the memory hierarchy as the cores see it, mirroring package
// system's: posted writebacks translate without faulting, demands take the
// fault stall on top of the organization's latency, which is timed at the
// issue cycle plus the L3 lookup.
func (m *machine) mem(coreID int, now uint64, req workload.Request) cpu.Outcome {
	if m.tr == nil || !m.tr.beginRequest() {
		return m.serve(coreID, now, req)
	}
	start := clock()
	out := m.serve(coreID, now, req)
	m.tr.endRequest(clock() - start)
	return out
}

func (m *machine) serve(coreID int, now uint64, req workload.Request) cpu.Outcome {
	if req.Write {
		pline, ok := m.translateNoFault(coreID, req.VLine)
		if !ok {
			m.dropped++
			return cpu.Outcome{Complete: now}
		}
		m.access.Access(now, memsys.Request{Core: coreID, PLine: pline, PC: req.PC, Write: true})
		return cpu.Outcome{Complete: now}
	}
	pline, fault := m.translate(coreID, req.VLine)
	var stall, block uint64
	if fault.Fault {
		stall = fault.StallCycles
		block = now + stall
	}
	complete := m.access.Access(now+system.L3LookupCycles, memsys.Request{Core: coreID, PLine: pline, PC: req.PC})
	m.lat.Observe(complete + stall - now)
	return cpu.Outcome{Complete: complete + stall, BlockUntil: block}
}

func (m *machine) translate(coreID int, vline uint64) (uint64, vm.FaultOutcome) {
	tr := m.tr
	if tr == nil {
		return m.vmm.Translate(coreID, vline, false)
	}
	tr.vm.calls++
	if !tr.active {
		return m.vmm.Translate(coreID, vline, false)
	}
	t0 := clock()
	pline, fault := m.vmm.Translate(coreID, vline, false)
	tr.vm.add(clock() - t0)
	return pline, fault
}

func (m *machine) translateNoFault(coreID int, vline uint64) (uint64, bool) {
	tr := m.tr
	if tr == nil {
		return m.vmm.TranslateNoFault(coreID, vline, true)
	}
	tr.vm.calls++
	if !tr.active {
		return m.vmm.TranslateNoFault(coreID, vline, true)
	}
	t0 := clock()
	pline, ok := m.vmm.TranslateNoFault(coreID, vline, true)
	tr.vm.add(clock() - t0)
	return pline, ok
}

// run simulates the cell to completion and assembles the Result exactly as
// system.TryRun does.
func (m *machine) run(ctx context.Context) (system.Result, error) {
	m.eng.SetCancel(ctx.Done())
	start := clock()
	for _, c := range m.cores {
		c.Start()
	}
	m.eng.Run()
	if m.tr != nil {
		m.tr.runNS = clock() - start
		m.tr.events = m.eng.Stats().EventsFired
	}
	if m.eng.Preempted() {
		return system.Result{}, fmt.Errorf("perfbench: %s on %s cancelled: %w", m.spec.Name, m.cfg.Org, ctx.Err())
	}

	res := system.Result{
		Org:               m.org.Name(),
		Benchmark:         m.spec.Name,
		Class:             m.spec.Class,
		Cores:             m.cfg.Cores,
		Stacked:           m.org.StackedStats(),
		OffChip:           m.org.OffChipStats(),
		VM:                m.vmm.Stats(),
		DroppedWritebacks: m.dropped,
	}
	var totalLat uint64
	for _, c := range m.cores {
		st := c.Stats()
		res.Instructions += st.Retired
		res.Demands += st.Demands
		res.Writebacks += st.Writebacks
		totalLat += st.TotalMemLatency
		res.Cycles = max(res.Cycles, st.FinishCycle)
	}
	if res.Demands > 0 {
		res.AvgMemLatency = float64(totalLat) / float64(res.Demands)
	}
	res.Latency = &m.lat
	res.LatencyP50 = m.lat.Quantile(0.50)
	res.LatencyP95 = m.lat.Quantile(0.95)
	res.LatencyP99 = m.lat.Quantile(0.99)
	switch org := m.org.(type) {
	case *cameo.System:
		st := org.Stats()
		res.Cameo = &st
	case *alloy.Cache:
		st := org.Stats()
		res.Alloy = &st
	case *lohhill.Cache:
		st := org.Stats()
		res.LohHill = &st
	case *tlm.Dynamic:
		st := org.Migrations()
		res.Migrations = &st
	case *tlm.Freq:
		st := org.Migrations()
		res.Migrations = &st
	}

	reg := metrics.NewRegistry()
	if src, ok := m.org.(memsys.MetricSource); ok {
		src.RegisterMetrics(reg)
	}
	m.vmm.RegisterMetrics(reg.Scope("vm"))
	m.eng.RegisterMetrics(reg.Scope("sim"))
	sys := reg.Scope("sys")
	sys.BucketsFunc("demand_latency", m.lat.Buckets)
	sys.CounterFunc("dropped_writebacks", func() uint64 { return m.dropped })
	res.Metrics = reg.Snapshot()
	return res, nil
}

// runTraced builds, runs and traces one cell, returning its Result and the
// filled trace.
func runTraced(ctx context.Context, spec workload.Spec, cfg system.Config, clockNS float64) (system.Result, *cellTrace, error) {
	tr := &cellTrace{clockNS: clockNS}
	start := clock()
	m, err := buildMachine(spec, cfg, tr)
	if err != nil {
		return system.Result{}, nil, err
	}
	tr.buildNS = clock() - start
	res, err := m.run(ctx)
	if err != nil {
		return system.Result{}, nil, err
	}
	tr.finish(m, res, clock()-start)
	return res, tr, nil
}
