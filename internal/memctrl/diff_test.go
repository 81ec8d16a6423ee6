package memctrl

import (
	"testing"

	"cameo/internal/dram"
	"cameo/internal/xrand"
)

// phase is one stretch of a differential stream: its write share, how far
// arrivals advance per call, how often and how far they jump backwards, and
// the line range (a small range keeps rows hot).
type phase struct {
	calls     int
	writeProb float64
	step      int
	backProb  float64
	backMax   int
	lines     int
}

// diffPhases crosses every scheduling regime: read-heavy traffic below the
// drain watermark, write bursts past writeDrainWatermark and past queueCap
// (forced drains), and non-monotone arrivals of the size measured in CAMEO
// cells (up to ~440 cycles backwards).
var diffPhases = []phase{
	{calls: 2000, writeProb: 0.3, step: 6, backProb: 0.5, backMax: 440, lines: 1 << 16},
	{calls: 400, writeProb: 0.95, step: 1, backProb: 0.2, backMax: 100, lines: 1 << 10},
	{calls: 1000, writeProb: 0.1, step: 20, backProb: 0.48, backMax: 440, lines: 1 << 12},
	{calls: 600, writeProb: 1, step: 0, backProb: 0, lines: 1 << 18},
	{calls: 2000, writeProb: 0.5, step: 3, backProb: 0.3, backMax: 2000, lines: 1 << 8},
}

// TestMatchesScanReference drives the write-buffer controller and the
// scan-based reference with identical seeded streams and requires identical
// results after every call.
func TestMatchesScanReference(t *testing.T) {
	cfgs := []dram.Config{dram.OffChipConfig(1 << 30), dram.StackedConfig(1 << 28)}
	for _, cfg := range cfgs {
		for seed := uint64(1); seed <= 12; seed++ {
			c, ref := New(cfg), newRefController(cfg)
			r := xrand.New(seed)
			at := uint64(1000)
			n := 0
			for _, p := range diffPhases {
				for i := 0; i < p.calls; i++ {
					at += uint64(r.Intn(p.step + 1))
					if p.backProb > 0 && r.Bool(p.backProb) {
						back := uint64(r.Intn(p.backMax + 1))
						if back > at {
							back = at
						}
						at -= back
					}
					line := uint64(r.Intn(p.lines))
					bytes := 64
					switch r.Intn(16) {
					case 0:
						bytes = 80
					case 1:
						bytes = 0
					}
					w := r.Bool(p.writeProb)
					got := c.Access(at, line, bytes, w)
					want := ref.Access(at, line, bytes, w)
					n++
					if got != want {
						t.Fatalf("%s seed %d call %d (at %d line %d write %v): done %d, reference %d",
							cfg.Name, seed, n, at, line, w, got, want)
					}
					if c.Stats() != ref.stats {
						t.Fatalf("%s seed %d call %d: stats %+v, reference %+v", cfg.Name, seed, n, c.Stats(), ref.stats)
					}
					if c.QueueDepth() != len(ref.queue) || c.QueuedWrites() != ref.writes ||
						c.MaxQueueDepth() != ref.maxQueueDepth {
						t.Fatalf("%s seed %d call %d: depth/writes/max %d/%d/%d, reference %d/%d/%d",
							cfg.Name, seed, n, c.QueueDepth(), c.QueuedWrites(), c.MaxQueueDepth(),
							len(ref.queue), ref.writes, ref.maxQueueDepth)
					}
				}
			}
			if ref.maxQueueDepth <= queueCap {
				t.Fatalf("%s seed %d: stream never overflowed queueCap (max depth %d)", cfg.Name, seed, ref.maxQueueDepth)
			}
		}
	}
}

// TestBackwardArrivalWaitsBehindIssuedWork pins how the lazy schedule
// treats an arrival earlier than work an earlier call already issued: the
// late request is not slotted in ahead, it starts when its bank frees up.
func TestBackwardArrivalWaitsBehindIssuedWork(t *testing.T) {
	cfg := dram.OffChipConfig(4 << 20)
	c := New(cfg)
	cpb := cfg.CPUPerBus()
	tCAS, tRCD := uint64(cfg.TCAS)*cpb, uint64(cfg.TRCD)*cpb
	xfer := cfg.Decoder().TransferCycles(64)
	chans := uint64(cfg.Channels)

	// Line 0 opens row 0 of bank 0 at cycle 1000.
	first := c.Access(1000, 0, 64, false)
	if want := 1000 + tRCD + tCAS + xfer; first != want {
		t.Fatalf("first read done %d, want %d", first, want)
	}
	// Line `chans` is the next line of the same bank and row, but arrives at
	// cycle 0: an online controller would have finished it long before 1000.
	// Here it is a row hit that starts once the bank frees.
	late := c.Access(0, chans, 64, false)
	if want := first + tCAS + xfer; late != want {
		t.Fatalf("backward read done %d, want %d (behind the first read)", late, want)
	}
	if got, want := c.Stats().TotalReadLatency, (first-1000)+late; got != want {
		t.Fatalf("total read latency %d, want %d", got, want)
	}
}
