package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"cameo/internal/dram"
	"cameo/internal/system"
)

// pinsJSON holds each workload's expected outputs at the suite seed with
// the default plans. Regenerate it with `go test -run TestPins -update`
// after a deliberate change to simulated results.
//
//go:embed pins.json
var pinsJSON []byte

// pinFile is the layout of pins.json.
type pinFile struct {
	Seed  uint64    `json:"seed"`
	Cell  *cellPin  `json:"cell-cameo-mcf,omitempty"`
	Sweep *sweepPin `json:"sweep-fig13,omitempty"`
	Serve *servePin `json:"serve-cached,omitempty"`
}

// cellPin is the cell's simulated outcome.
type cellPin struct {
	Cycles       uint64     `json:"cycles"`
	Instructions uint64     `json:"instructions"`
	Demands      uint64     `json:"demands"`
	Stacked      dram.Stats `json:"stacked"`
	OffChip      dram.Stats `json:"offchip"`
}

func cellPinOf(r system.Result) *cellPin {
	return &cellPin{Cycles: r.Cycles, Instructions: r.Instructions, Demands: r.Demands, Stacked: r.Stacked, OffChip: r.OffChip}
}

// sweepPin digests the rendered Figure 13 table and the raw grid CSV.
type sweepPin struct {
	Table string `json:"table_sha256"`
	CSV   string `json:"csv_sha256"`
}

// servePin digests the response every cached request must reproduce.
type servePin struct {
	Response string `json:"response_sha256"`
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func loadPins() (*pinFile, error) {
	var p pinFile
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	return &p, nil
}
