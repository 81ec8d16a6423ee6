package memctrl

// The scan-based FR-FCFS controller this package shipped before the write
// buffer: every request, reads included, joins one queue, and each pick
// scans the whole queue, reading bank state per entry. It is the reference
// the differential tests hold the production controller to, so its
// scheduling code is kept verbatim apart from its names.

import "cameo/internal/dram"

type refRequest struct {
	line    uint64
	row     uint64
	arrival uint64
	seq     uint64
	bytes   int32
	ch      int32 // channel, decoded at enqueue
	bank    int32 // global bank index (ch*Banks+bank), decoded at enqueue
	write   bool
}

type refBankState struct {
	openRow   uint64
	hasOpen   bool
	busyUntil uint64
	lastAct   uint64
}

type refController struct {
	cfg dram.Config

	cpuPerBus    uint64
	tCAS         uint64
	tRCD         uint64
	tRP          uint64
	tRAS         uint64
	halfCycleCPU uint64
	bytesPerBeat int
	linesPerRow  uint64

	banks []refBankState
	buses []uint64

	queue   []refRequest
	nextSeq uint64
	writes  int // queued writes

	stats dram.Stats
	// maxQueueDepth is the pending-queue high-water mark — the controller's
	// engine-specific observability signal (published via RegisterExtraMetrics).
	maxQueueDepth int
}

// newRefController mirrors NewController for a valid cfg.
func newRefController(cfg dram.Config) *refController {
	cpb := cfg.CPUPerBus()
	return &refController{
		cfg:          cfg,
		cpuPerBus:    cpb,
		tCAS:         uint64(cfg.TCAS) * cpb,
		tRCD:         uint64(cfg.TRCD) * cpb,
		tRP:          uint64(cfg.TRP) * cpb,
		tRAS:         uint64(cfg.TRAS) * cpb,
		halfCycleCPU: (cpb + 1) / 2,
		bytesPerBeat: cfg.BytesPerHalfBusCycle(),
		linesPerRow:  uint64(cfg.RowBufferBytes / dram.LineBytes),
		banks:        make([]refBankState, cfg.Channels*cfg.Banks),
		buses:        make([]uint64, cfg.Channels),
		queue:        make([]refRequest, 0, queueCap+1),
	}
}

func (c *refController) locate(line uint64) (channel, bank int, row uint64) {
	ch := int(line % uint64(c.cfg.Channels))
	cidx := line / uint64(c.cfg.Channels)
	rowGlobal := cidx / c.linesPerRow
	b := int(rowGlobal % uint64(c.cfg.Banks))
	return ch, b, rowGlobal / uint64(c.cfg.Banks)
}

func (c *refController) transferCycles(bytes int32) uint64 {
	beats := uint64((int(bytes) + c.bytesPerBeat - 1) / c.bytesPerBeat)
	t := beats * c.halfCycleCPU
	if t == 0 {
		t = 1
	}
	return t
}

// Access implements dram.Device. It never panics: a non-positive size (a
// caller bug — every organization issues LineBytes/LEADBytes constants) is
// clamped to a zero-byte control access costing one beat, keeping a bad
// cell inside the per-cell failure domain instead of crashing the sweep.
func (c *refController) Access(at uint64, line uint64, bytes int, isWrite bool) uint64 {
	if bytes < 0 {
		bytes = 0
	}
	ch, bk, row := c.locate(line)
	req := refRequest{
		line:    line,
		row:     row,
		arrival: at,
		seq:     c.nextSeq,
		bytes:   int32(bytes),
		ch:      int32(ch),
		bank:    int32(ch*c.cfg.Banks + bk),
		write:   isWrite,
	}
	c.nextSeq++
	c.queue = append(c.queue, req)
	if len(c.queue) > c.maxQueueDepth {
		c.maxQueueDepth = len(c.queue)
	}
	if isWrite {
		c.writes++
		c.stats.Writes++
		c.stats.BytesWritten += uint64(bytes)
		// Posted: drain opportunistically; report a nominal completion.
		c.drainIfPressed()
		return at + c.tCAS + c.transferCycles(req.bytes)
	}
	c.stats.Reads++
	c.stats.BytesRead += uint64(bytes)
	done := c.scheduleUntil(req.seq)
	c.stats.TotalReadLatency += done - at
	return done
}

// drainIfPressed issues work when the queue is pressed, bounding memory use
// on write-heavy streams.
func (c *refController) drainIfPressed() {
	for len(c.queue) > queueCap {
		c.issue(c.pick())
	}
}

// scheduleUntil issues queued requests greedily until seq completes,
// returning its completion cycle.
func (c *refController) scheduleUntil(seq uint64) uint64 {
	for {
		idx := c.pick()
		done, s := c.issue(idx)
		if s == seq {
			return done
		}
	}
}

// pick selects the next request to issue: the minimum of
// (readyTime, writeHandicap, rowMissPenalty, arrival) — first-ready
// first-come with read priority, the FR-FCFS family's greedy form. The scan
// is bounded by queueCap and touches only enqueue-decoded fields; the
// sequence number makes the key a total order, so the minimum is unique and
// independent of queue storage order.
func (c *refController) pick() int {
	drain := c.writes >= writeDrainWatermark
	best := -1
	var bestStart, bestMiss, bestSeq uint64
	for i := range c.queue {
		r := &c.queue[i]
		bank := &c.banks[r.bank]
		start := r.arrival
		if bank.busyUntil > start {
			start = bank.busyUntil
		}
		if r.write && !drain {
			start += writeBias
		}
		var miss uint64 = 1 // row miss
		if bank.hasOpen && bank.openRow == r.row {
			miss = 0
		}
		if best == -1 || start < bestStart ||
			(start == bestStart && (miss < bestMiss ||
				(miss == bestMiss && r.seq < bestSeq))) {
			best, bestStart, bestMiss, bestSeq = i, start, miss, r.seq
		}
	}
	return best
}

// issue runs the bank/bus timing for queue[idx], removes it, and returns
// its completion and sequence number. Removal is O(1) swap-with-last:
// pick's key is totally ordered, so scheduling never depends on storage
// order.
func (c *refController) issue(idx int) (done, seq uint64) {
	r := c.queue[idx]
	last := len(c.queue) - 1
	c.queue[idx] = c.queue[last]
	c.queue = c.queue[:last]
	if r.write {
		c.writes--
	}

	bank := &c.banks[r.bank]
	start := r.arrival
	if bank.busyUntil > start {
		start = bank.busyUntil
	}
	var ready uint64
	switch {
	case bank.hasOpen && bank.openRow == r.row:
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
	bank.openRow = r.row

	dataStart := ready
	if c.buses[r.ch] > dataStart {
		dataStart = c.buses[r.ch]
	}
	done = dataStart + c.transferCycles(r.bytes)
	c.buses[r.ch] = done
	bank.busyUntil = done
	return done, r.seq
}
