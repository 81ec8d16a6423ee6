// Package system composes a full simulated machine — cores, paging, the L3
// boundary, and one memory organization — runs a workload on it, and
// returns the measurements every experiment consumes.
package system

import (
	"fmt"

	"cameo/internal/cameo"
	"cameo/internal/memorg"
)

// OrgKind names a registered memory organization. The integer values are
// the memorg registry kinds; runner cell keys render them as decimals, so
// they are stable forever for the seed organizations.
type OrgKind int

const (
	// Baseline: 12 GB off-chip DRAM, no stacked DRAM.
	Baseline = OrgKind(memorg.KindBaseline)
	// Cache: stacked DRAM as an Alloy cache; capacity stays 12 GB.
	Cache = OrgKind(memorg.KindCache)
	// TLMStatic: stacked DRAM in the address space, random page placement.
	TLMStatic = OrgKind(memorg.KindTLMStatic)
	// TLMDynamic: TLM with page swap on every off-chip touch.
	TLMDynamic = OrgKind(memorg.KindTLMDynamic)
	// TLMFreq: TLM with epoch-based frequency-ranked page placement.
	TLMFreq = OrgKind(memorg.KindTLMFreq)
	// TLMOracle: TLM with profiled (oracular) initial placement.
	TLMOracle = OrgKind(memorg.KindTLMOracle)
	// CAMEO: the paper's proposal; LLT/Pred sub-options select the design.
	CAMEO = OrgKind(memorg.KindCAMEO)
	// DoubleUse: idealistic Alloy cache plus 16 GB of capacity.
	DoubleUse = OrgKind(memorg.KindDoubleUse)
	// LHCache: the Loh-Hill set-associative DRAM cache (the paper's
	// citation [10]), as a second hardware-cache baseline.
	LHCache = OrgKind(memorg.KindLHCache)
	// LHCacheMM: LH-Cache with an idealized MissMap (misses skip the probe).
	LHCacheMM = OrgKind(memorg.KindLHCacheMM)
	// MemCache: stacked DRAM statically partitioned part-memory/part-cache.
	MemCache = OrgKind(memorg.KindMemCache)
	// Gemini: hybrid direct/set-associative DRAM cache mapping.
	Gemini = OrgKind(memorg.KindGemini)
)

func (k OrgKind) String() string {
	if d, ok := memorg.ByKind(int(k)); ok {
		return d.Display
	}
	return fmt.Sprintf("OrgKind(%d)", int(k))
}

// ParseOrg maps a case-insensitive organization name (the CLI/API spelling,
// e.g. "tlm-dynamic") onto its kind via the memorg registry.
func ParseOrg(name string) (OrgKind, bool) {
	d, ok := memorg.ByName(name)
	if !ok {
		return 0, false
	}
	return OrgKind(d.Kind), true
}

// OrgNames returns every registered organization name, sorted — the single
// source for cmd usage text, -org error messages, and the CI org matrix.
func OrgNames() []string { return memorg.Names() }

// OrgDescriptor returns the registry entry behind a kind, for consumers
// that need the design summary or sweep dimensions.
func OrgDescriptor(k OrgKind) (memorg.Descriptor, bool) { return memorg.ByKind(int(k)) }

// Full-scale capacities (Table I): 4 GB stacked, 12 GB off-chip.
const (
	StackedBytesFull = 4 << 30
	OffChipBytesFull = 12 << 30
	// TotalBytesFull is the combined capacity the ratio sweeps hold fixed.
	TotalBytesFull = StackedBytesFull + OffChipBytesFull
	// L3LookupCycles is charged ahead of every memory access (Table I's
	// 24-cycle shared L3 — the lookup that discovered the miss).
	L3LookupCycles = 24
)

// Config selects an organization and the simulation scale.
type Config struct {
	Org OrgKind
	// LLT/Pred configure CAMEO (ignored otherwise). Defaults: CoLocated+LLP,
	// the paper's final design.
	LLT  cameo.LLTKind
	Pred cameo.PredKind
	// ScaleDiv divides every capacity and footprint (DESIGN.md; default 1024).
	ScaleDiv uint64
	// Cores is the rate-mode copy count (paper: 32).
	Cores int
	// InstrPerCore is each core's instruction budget.
	InstrPerCore uint64
	// Seed drives workload generation and paging randomness.
	Seed uint64
	// EpochAccesses is TLM-Freq's epoch length in demand accesses.
	EpochAccesses uint64
	// UseL3 inserts a real (scaled) L3 model between the generated stream
	// and the organization. Off by default: the generators already emit the
	// post-L3 stream that Table II's MPKI describes.
	UseL3 bool
	// MigrationThreshold defers TLM-Dynamic migration until a page has been
	// touched this many times (0/1 = the paper's migrate-on-first-touch).
	MigrationThreshold int
	// LLTCacheEntries gives CAMEO's Embedded-LLT design an SRAM cache of
	// table entries (0 = the paper's design; power of two).
	LLTCacheEntries int
	// HotSwapThreshold enables CAMEO's Section VI-D extension: swap only
	// lines whose page has at least this many recent accesses (0 = paper's
	// always-swap policy).
	HotSwapThreshold uint32
	// WarmupInstr, when nonzero, is the per-core instruction count treated
	// as warm-up: once every core has retired it, all statistics reset and
	// the measured region begins (state — caches, LLT, page tables — stays
	// warm). Must be below InstrPerCore.
	WarmupInstr uint64
	// Refresh enables DRAM refresh modeling in both modules (off by
	// default, matching the paper's model).
	Refresh bool
	// WriteBuffered enables the DRAM controllers' write-queue model (reads
	// take priority; writes drain in idle time). Off by default, matching
	// the paper's simpler model; ext-controller measures the difference.
	WriteBuffered bool
	// FRFCFS replaces the analytic in-order DRAM model with the queued
	// FR-FCFS controller (package memctrl): row-hit-first scheduling with
	// read priority. Off by default; mutually exclusive with WriteBuffered
	// and Refresh (which are knobs of the analytic model).
	FRFCFS bool
	// UseTLB adds per-core TLBs whose page-walk penalty lands on demand
	// misses (off by default, matching the paper's model; identical across
	// organizations since CAMEO remaps below the physical address).
	UseTLB bool
	// StackedDivisor sets the stacked share of the fixed 16 GB total:
	// stacked = total/StackedDivisor (4 = Table I's quarter, 2 = the
	// half-capacity point the paper's introduction motivates). It is also
	// CAMEO's congruence-group associativity, so only 2..4 are encodable.
	StackedDivisor int
	// MemPartPct configures MemCache (ignored otherwise): the percent of
	// stacked capacity exposed as OS-visible memory, the rest running as a
	// direct-mapped cache. 0 means the design default of 50. Deliberately
	// NOT filled by WithDefaults: cell keys encode it only when set, so
	// every pre-existing cell key stays byte-identical.
	MemPartPct int
	// HybridWays configures Gemini (ignored otherwise): the associativity
	// of the set-associative victim region backing the direct-mapped
	// fast-path region. 0 means the design default of 4; must be a power
	// of two <= 16. Not filled by WithDefaults, like MemPartPct.
	HybridWays int
	// Shards selected the removed group-sharded execution mode, which cut
	// the core's timing feedback from memory (DESIGN.md §6). Validate
	// rejects any nonzero value. The field stays only because the perfbench
	// harness, a separate module, still reads it.
	Shards int
}

// WithDefaults fills zero fields with the paper-equivalent defaults.
func (c Config) WithDefaults() Config {
	if c.ScaleDiv == 0 {
		c.ScaleDiv = 1024
	}
	if c.Cores == 0 {
		c.Cores = 32
	}
	if c.InstrPerCore == 0 {
		c.InstrPerCore = 1_000_000
	}
	if c.Seed == 0 {
		c.Seed = 0xCA3E0
	}
	if c.EpochAccesses == 0 {
		c.EpochAccesses = 200_000
	}
	if c.StackedDivisor == 0 {
		c.StackedDivisor = 4
	}
	// LLT and Pred need no defaulting: their zero values are the paper's
	// final design (Co-Located LLT with the LLP). MemPartPct and
	// HybridWays stay zero on purpose — the organizations apply their own
	// defaults, keeping pre-existing cell keys byte-stable.
	return c
}

// Validate reports a descriptive error for an unusable configuration,
// including organization-specific checks from the registry descriptor.
func (c Config) Validate() error {
	switch {
	case c.ScaleDiv == 0 || c.ScaleDiv&(c.ScaleDiv-1) != 0:
		return fmt.Errorf("system: ScaleDiv %d must be a power of two", c.ScaleDiv)
	case c.ScaleDiv > 1<<16:
		return fmt.Errorf("system: ScaleDiv %d leaves no memory to simulate", c.ScaleDiv)
	case c.Cores <= 0:
		return fmt.Errorf("system: non-positive core count")
	case c.InstrPerCore == 0:
		return fmt.Errorf("system: zero instruction budget")
	case c.StackedDivisor < 2 || c.StackedDivisor > 4:
		return fmt.Errorf("system: StackedDivisor %d out of [2,4]", c.StackedDivisor)
	case c.WarmupInstr >= c.InstrPerCore:
		return fmt.Errorf("system: warmup %d not below budget %d", c.WarmupInstr, c.InstrPerCore)
	case c.FRFCFS && (c.WriteBuffered || c.Refresh):
		return fmt.Errorf("system: FRFCFS excludes the analytic model's WriteBuffered/Refresh knobs")
	case c.Shards != 0:
		return fmt.Errorf("system: Shards %d: sharded mode was removed", c.Shards)
	}
	d, ok := memorg.ByKind(int(c.Org))
	if !ok {
		return fmt.Errorf("system: unknown organization %v", c.Org)
	}
	if d.Validate != nil {
		if err := d.Validate(c.buildEnv()); err != nil {
			return err
		}
	}
	return nil
}

// buildEnv lifts the configuration into the organization-neutral build
// environment; device factories and OS hooks are threaded in by buildOrg.
func (c Config) buildEnv() memorg.Env {
	return memorg.Env{
		Kind:               int(c.Org),
		Cores:              c.Cores,
		Seed:               c.Seed,
		StackedBytes:       c.StackedBytes(),
		OffChipBytes:       c.OffChipBytes(),
		StackedDivisor:     c.StackedDivisor,
		LLT:                int(c.LLT),
		Pred:               int(c.Pred),
		LLTCacheEntries:    c.LLTCacheEntries,
		HotSwapThreshold:   c.HotSwapThreshold,
		MigrationThreshold: c.MigrationThreshold,
		EpochAccesses:      c.EpochAccesses,
		MemPartPct:         c.MemPartPct,
		HybridWays:         c.HybridWays,
	}
}

// StackedBytes returns the scaled stacked-DRAM capacity.
func (c Config) StackedBytes() uint64 {
	return TotalBytesFull / uint64(c.StackedDivisor) / c.ScaleDiv
}

// OffChipBytes returns the scaled off-chip capacity.
func (c Config) OffChipBytes() uint64 {
	return (TotalBytesFull - TotalBytesFull/uint64(c.StackedDivisor)) / c.ScaleDiv
}
