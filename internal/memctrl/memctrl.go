// Package memctrl implements a queued memory controller with FR-FCFS
// scheduling — the second, higher-fidelity timing engine behind the
// dram.Device interface. Where dram.Module services requests strictly in
// arrival order per bank, this controller keeps a request queue and, each
// time a bank can issue, picks first-ready (open-row hits), then
// first-come; reads are prioritized over posted writes until a write-queue
// watermark forces a drain.
//
// The controller operates lazily inside the synchronous Device interface:
// every Access enqueues the request and then schedules queued work greedily
// until the new request's completion is known (immediately, for posted
// writes). The simulation engine fires core events in non-decreasing time
// order, but a core's memory request can carry an arrival cycle earlier
// than one an earlier call already presented (an organization issues the
// second device access of a miss, or a writeback, after the first one's
// latency), so arrivals at the controller are not monotone. The lazy
// schedule guarantees only this: each call issues its queued work in key
// order against the bank and bus state left by all earlier calls, and a
// request never starts before its own arrival. Work issued by an earlier
// call is never revisited, so a late-arriving request that an online
// controller would have slotted in ahead of it waits behind it instead.
//
// Hot-path layout (DESIGN.md §Performance): the queue is a write buffer.
// A read is queued only while its own Access runs, so reads bypass the
// queue: a read issues the queued writes whose key beats its own, then
// issues itself. Writes are kept in arrival-call order, so the first
// minimum of a scan is the oldest — the sequence tie-break is positional.
// Each queued write caches its bias-free pick key, which depends only on
// its bank's state, and the controller caches the index of the best write.
// An enqueue updates the best index with one compare; an issue re-keys the
// writes in the issued bank and rescans for the best, which a read to a
// bank with no queued writes skips entirely. The buffer is preallocated,
// and steady-state operation performs no allocation.
package memctrl

import (
	"cameo/internal/dram"
	"cameo/internal/metrics"
)

// writeBias is the scheduling handicap applied to writes so that reads of
// similar readiness win (read priority).
const writeBias = 200

// writeDrainWatermark is the queued-write count that forces writes to
// compete on equal terms until drained.
const writeDrainWatermark = 32

// queueCap bounds the write buffer; beyond it writes are issued, best
// first, without waiting for a read (a real controller's full-queue
// backpressure).
const queueCap = 128

// request is one queued (posted) write.
type request struct {
	// key is the cached bias-free pick key: max(arrival, bank busyUntil)
	// shifted left one bit, with the low bit set on a row miss. Comparing
	// keys compares (start, rowMiss) lexicographically.
	key     uint64
	arrival uint64
	row     uint64
	bytes   int32
	ch      int32 // channel, decoded at enqueue
	bank    int32 // global bank index (ch*Banks+bank), decoded at enqueue
}

type bankState struct {
	openRow   uint64
	hasOpen   bool
	busyUntil uint64
	lastAct   uint64
	writes    int32 // queued writes to this bank
}

// keyOf is the bias-free FR-FCFS key of a request to row arriving at
// arrival, against bank's current state.
func (b *bankState) keyOf(arrival, row uint64) uint64 {
	start := arrival
	if b.busyUntil > start {
		start = b.busyUntil
	}
	if b.hasOpen && b.openRow == row {
		return start << 1
	}
	return start<<1 | 1
}

// Controller schedules requests over the same geometry and timing
// parameters as dram.Module. It implements dram.Device.
type Controller struct {
	cfg dram.Config
	dec dram.Decoder

	tCAS uint64
	tRCD uint64
	tRP  uint64
	tRAS uint64

	banks []bankState
	buses []uint64

	// writes is the write buffer in arrival-call order; while it is
	// non-empty, best indexes its smallest key (the oldest among equals).
	writes []request
	best   int

	stats dram.Stats
	// maxQueueDepth is the pending-queue high-water mark — the controller's
	// engine-specific observability signal (published via RegisterExtraMetrics).
	// A read counts toward the depth while its own Access runs.
	maxQueueDepth int
}

var _ dram.Device = (*Controller)(nil)

// New builds a controller from cfg, panicking on an invalid configuration —
// the convenience path for static program data. Code handling
// runtime-supplied configurations should use NewController, whose error
// surfaces as a per-cell job failure instead of a crash.
func New(cfg dram.Config) *Controller {
	c, err := NewController(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// NewController builds a controller from cfg, reporting a descriptive error
// for an invalid configuration — the configuration boundary where bad sweep
// cells are rejected (the runner treats such errors as permanent). The
// write-buffering and refresh flags of cfg are ignored: queueing and read
// priority are inherent here, and refresh belongs to the analytic model's
// ablation.
func NewController(cfg dram.Config) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cpb := cfg.CPUPerBus()
	return &Controller{
		cfg:   cfg,
		dec:   cfg.Decoder(),
		tCAS:  uint64(cfg.TCAS) * cpb,
		tRCD:  uint64(cfg.TRCD) * cpb,
		tRP:   uint64(cfg.TRP) * cpb,
		tRAS:  uint64(cfg.TRAS) * cpb,
		banks: make([]bankState, cfg.Channels*cfg.Banks),
		buses: make([]uint64, cfg.Channels),
		// One slot of headroom: a write appends before draining back to cap.
		writes: make([]request, 0, queueCap+1),
	}, nil
}

// Config implements dram.Device.
func (c *Controller) Config() dram.Config { return c.cfg }

// Stats implements dram.Device.
func (c *Controller) Stats() dram.Stats { return c.stats }

// ResetStats implements dram.Device.
func (c *Controller) ResetStats() { c.stats = dram.Stats{} }

// QueueDepth reports the pending request count, for tests. Between calls
// only writes are pending.
func (c *Controller) QueueDepth() int { return len(c.writes) }

// QueuedWrites reports the pending write count, for invariant tests.
func (c *Controller) QueuedWrites() int { return len(c.writes) }

// MaxQueueDepth reports the pending-queue high-water mark.
func (c *Controller) MaxQueueDepth() int { return c.maxQueueDepth }

// RegisterExtraMetrics implements dram.ExtraMetrics: the controller's
// scheduling-specific signals beyond the shared Stats counters.
func (c *Controller) RegisterExtraMetrics(s *metrics.Scope) {
	s.GaugeFunc("queue_max_depth", func() float64 { return float64(c.maxQueueDepth) })
}

// Access implements dram.Device. It never panics: a non-positive size (a
// caller bug — every organization issues LineBytes/LEADBytes constants) is
// clamped to a zero-byte control access costing one beat, keeping a bad
// cell inside the per-cell failure domain instead of crashing the sweep.
func (c *Controller) Access(at uint64, line uint64, bytes int, isWrite bool) uint64 {
	if bytes < 0 {
		bytes = 0
	}
	ch, bk, row := c.dec.Locate(line)
	bank := &c.banks[bk]
	if isWrite {
		c.stats.Writes++
		c.stats.BytesWritten += uint64(bytes)
		key := bank.keyOf(at, row)
		if len(c.writes) == 0 || key < c.writes[c.best].key {
			c.best = len(c.writes)
		}
		c.writes = append(c.writes, request{
			key:     key,
			arrival: at,
			row:     row,
			bytes:   int32(bytes),
			ch:      int32(ch),
			bank:    int32(bk),
		})
		bank.writes++
		if len(c.writes) > c.maxQueueDepth {
			c.maxQueueDepth = len(c.writes)
		}
		// Posted: drain only under full-queue backpressure, where every
		// write competes on equal terms; report a nominal completion.
		for len(c.writes) > queueCap {
			c.issueBest()
		}
		return at + c.tCAS + c.dec.TransferCycles(bytes)
	}
	c.stats.Reads++
	c.stats.BytesRead += uint64(bytes)
	if d := len(c.writes) + 1; d > c.maxQueueDepth {
		c.maxQueueDepth = d
	}
	// Issue writes while the best one is at least as good as this read.
	// Bias is the same for every write, so it enters only here; below the
	// drain watermark it handicaps writes so reads of similar readiness
	// win. On a tie the write is older, and the older request wins.
	for len(c.writes) > 0 {
		wk := c.writes[c.best].key
		if len(c.writes) < writeDrainWatermark {
			wk += writeBias << 1
		}
		if wk > bank.keyOf(at, row) {
			break
		}
		c.issueBest()
	}
	done := c.issue(bank, int32(ch), at, row, bytes)
	if bank.writes > 0 {
		c.rekey(int32(bk))
	}
	c.stats.TotalReadLatency += done - at
	return done
}

// issueBest removes the best write, keeping arrival order, and issues it.
func (c *Controller) issueBest() {
	r := c.writes[c.best]
	c.writes = append(c.writes[:c.best], c.writes[c.best+1:]...)
	bank := &c.banks[r.bank]
	bank.writes--
	c.issue(bank, r.ch, r.arrival, r.row, int(r.bytes))
	c.rekey(r.bank)
}

// rekey refreshes the cached keys of the writes to bank bk after an issue
// there changed its state, and recomputes best.
func (c *Controller) rekey(bk int32) {
	bank := &c.banks[bk]
	best, key := 0, ^uint64(0)
	for i := range c.writes {
		w := &c.writes[i]
		if w.bank == bk {
			w.key = bank.keyOf(w.arrival, w.row)
		}
		if w.key < key {
			best, key = i, w.key
		}
	}
	c.best = best
}

// issue runs the bank/bus timing for one request and returns its
// completion. The caller re-keys the bank's queued writes.
func (c *Controller) issue(bank *bankState, ch int32, arrival, row uint64, bytes int) uint64 {
	start := arrival
	if bank.busyUntil > start {
		start = bank.busyUntil
	}
	var ready uint64
	switch {
	case bank.hasOpen && bank.openRow == row:
		c.stats.RowHits++
		ready = start + c.tCAS
	case !bank.hasOpen:
		c.stats.RowMisses++
		bank.lastAct = start
		ready = start + c.tRCD + c.tCAS
	default:
		c.stats.RowMisses++
		preStart := start
		if earliest := bank.lastAct + c.tRAS; earliest > preStart {
			preStart = earliest
		}
		actStart := preStart + c.tRP
		bank.lastAct = actStart
		ready = actStart + c.tRCD + c.tCAS
	}
	bank.hasOpen = true
	bank.openRow = row

	dataStart := ready
	if c.buses[ch] > dataStart {
		dataStart = c.buses[ch]
	}
	done := dataStart + c.dec.TransferCycles(bytes)
	c.buses[ch] = done
	bank.busyUntil = done
	return done
}
