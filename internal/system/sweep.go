package system

import (
	"fmt"
	"strings"

	"cameo/internal/memorg"
)

// baseSweepDims are the dimensions every organization can sweep; an
// organization's descriptor may append its own (e.g. memcache's partition).
var baseSweepDims = []string{"scale", "cores", "ratio", "seed", "frfcfs"}

// SweepDims returns the sweep dimensions valid for an organization, base
// dims first and in a stable order — the single source for cameo-sweep's
// usage text, sweepapi's grid expansion, and their error messages.
func SweepDims(k OrgKind) []string {
	dims := append([]string(nil), baseSweepDims...)
	if d, ok := memorg.ByKind(int(k)); ok {
		dims = append(dims, d.SweepDims...)
	}
	return dims
}

// ApplySweep sets sweep dimension dim to value v on cfg, validating the
// dimension against cfg.Org's declared dimensions. cameo-sweep and
// sweepapi.BuildGrid both call it, so a cell's configuration — and hence
// its cache key — is derived identically everywhere.
func ApplySweep(cfg *Config, dim string, v uint64) error {
	dims := SweepDims(cfg.Org)
	known := false
	for _, d := range dims {
		if d == dim {
			known = true
			break
		}
	}
	if !known {
		return fmt.Errorf("unknown sweep dimension %q (have: %s)", dim, strings.Join(dims, ", "))
	}
	switch dim {
	case "scale":
		cfg.ScaleDiv = v
	case "cores":
		cfg.Cores = int(v)
	case "ratio":
		cfg.StackedDivisor = int(v)
	case "seed":
		cfg.Seed = v
	case "frfcfs":
		// 0/1 toggle: compares the analytic in-order DRAM model against the
		// queued FR-FCFS controller on otherwise-identical cells.
		cfg.FRFCFS = v != 0
	case "mempart":
		cfg.MemPartPct = int(v)
	case "ways":
		cfg.HybridWays = int(v)
	default:
		// A descriptor declared a dimension this dispatcher does not know —
		// a registration bug, not a user error.
		return fmt.Errorf("sweep dimension %q declared by %v but not wired", dim, cfg.Org)
	}
	return nil
}
