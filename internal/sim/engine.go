// Package sim provides the discrete-event backbone of the simulator: a
// cycle-granular clock and an event queue with deterministic ordering.
//
// The DRAM model does not need events (it is timed analytically with
// busy-until state); the engine exists to interleave the cores — each core
// schedules its next issue/retire point and the engine processes them in
// global time order so that contention in the shared memory system is
// observed consistently.
//
// The queue is a monomorphic 4-ary min-heap over value-type entries keyed
// by (cycle, insertion sequence), with callbacks parked in a slot arena
// recycled through a free list. Scheduling and firing are allocation-free
// in steady state: no interface boxing, no per-event heap object (see
// DESIGN.md §Performance). Cancellation is lazy — a cancelled entry stays
// in the heap until it surfaces and is discarded by a generation check —
// which keeps the sift paths free of index back-patching. Step fires the
// root in place: the first event the callback schedules overwrites the
// root and sifts down once, instead of a pop followed by a push — the
// common case, since every core event reschedules itself exactly once.
// Only a callback that schedules nothing pays the pop.
package sim

import "sync/atomic"

// Cycle is a point in simulated time, in CPU cycles (3.2 GHz in the paper's
// configuration). A uint64 cycle counter at 3.2 GHz lasts ~180 years of
// simulated time, so overflow is not a practical concern.
type Cycle = uint64

// Event is a handle to a scheduled callback, valid for Cancel until the
// event fires. The zero Event is invalid and Cancel ignores it.
type Event struct {
	slot int32  // arena index + 1; 0 marks the zero (invalid) handle
	gen  uint32 // arena generation at scheduling time
}

// slot parks one scheduled callback. gen increments every time the slot is
// released (fire or cancel), invalidating outstanding handles and any stale
// heap entry still pointing here.
type slot struct {
	fn  func(now Cycle)
	gen uint32
}

// entry is one heap element: the ordering key plus the slot reference. Keys
// live inline so sift comparisons never chase the arena.
type entry struct {
	at   Cycle
	seq  uint64 // insertion order; breaks ties deterministically
	slot int32
	gen  uint32
}

func (a entry) before(b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Stats counts engine activity over the run.
type Stats struct {
	EventsFired uint64 // events dispatched by Step
	MaxPending  uint64 // high-water mark of pending (live) events
}

// preemptStride is how many events Run/RunUntil fire between polls of the
// cancellation channel. One poll per event would put a channel operation on
// the hottest loop in the simulator; one poll per stride keeps the check
// amortized to a fraction of a nanosecond per event while bounding the
// preemption latency to a few hundred microseconds of wall time.
const preemptStride = 4096

// Engine owns the clock and the pending-event queue.
type Engine struct {
	now     Cycle
	nextSeq uint64
	heap    []entry
	slots   []slot
	free    []int32 // recycled arena indices
	pending int     // live (non-cancelled) scheduled events
	// rootFree is set when the heap root is the entry Step last fired,
	// already released: the next At overwrites it instead of pushing, and
	// any pop (which removes the root) clears the flag.
	rootFree bool

	// stopped is written by Stop, possibly from another goroutine (a
	// watchdog or signal handler), and polled by the run loops.
	stopped atomic.Bool

	// Cooperative cancellation: done is polled every preemptStride events;
	// countdown and preempted are owned by the run-loop goroutine.
	done      <-chan struct{}
	countdown int
	preempted bool

	stats Stats
}

// NewEngine returns an engine at cycle 0 with no pending events.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulated cycle.
func (e *Engine) Now() Cycle { return e.now }

// Pending reports the number of scheduled events.
func (e *Engine) Pending() int { return e.pending }

// At schedules fn to run at cycle at. Scheduling in the past is a
// programming error and panics: time in a discrete-event simulation must be
// monotone or results are not reproducible.
func (e *Engine) At(at Cycle, fn func(now Cycle)) Event {
	if at < e.now {
		panic("sim: event scheduled in the past")
	}
	var idx int32
	if n := len(e.free); n > 0 {
		idx = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.slots = append(e.slots, slot{})
		idx = int32(len(e.slots) - 1)
	}
	s := &e.slots[idx]
	s.fn = fn
	v := entry{at: at, seq: e.nextSeq, slot: idx, gen: s.gen}
	if e.rootFree {
		e.rootFree = false
		e.siftDown(v)
	} else {
		e.push(v)
	}
	e.nextSeq++
	e.pending++
	if n := uint64(e.pending); n > e.stats.MaxPending {
		e.stats.MaxPending = n
	}
	return Event{slot: idx + 1, gen: s.gen}
}

// Stats returns a snapshot of the engine's activity counters.
func (e *Engine) Stats() Stats { return e.stats }

// After schedules fn to run delay cycles from now.
func (e *Engine) After(delay Cycle, fn func(now Cycle)) Event {
	return e.At(e.now+delay, fn)
}

// Cancel removes a scheduled event. Cancelling the zero Event, or one that
// already fired or was already cancelled, is a no-op. The heap entry is
// discarded lazily when it reaches the front.
func (e *Engine) Cancel(ev Event) {
	if ev.slot == 0 {
		return
	}
	idx := ev.slot - 1
	s := &e.slots[idx]
	if s.gen != ev.gen || s.fn == nil {
		return
	}
	e.release(idx)
	e.pending--
}

// release invalidates slot idx and returns it to the free list.
func (e *Engine) release(idx int32) {
	s := &e.slots[idx]
	s.fn = nil
	s.gen++
	e.free = append(e.free, idx)
}

// Stop makes Run return after the current event completes. It is safe to
// call from another goroutine; the run loops observe it at the next event
// boundary.
func (e *Engine) Stop() { e.stopped.Store(true) }

// SetCancel binds a cancellation channel (normally ctx.Done()) to the run
// loops: Run and RunUntil poll it every preemptStride events and return
// early once it is closed. A nil channel (the default) disables polling
// entirely, so engines that never need preemption pay nothing. The first
// poll happens before the first event, so a run bound to an
// already-cancelled context fires no events at all.
func (e *Engine) SetCancel(done <-chan struct{}) {
	e.done = done
	e.countdown = 1
}

// Preempted reports whether the last Run/RunUntil returned because the
// cancellation channel closed (as opposed to draining the queue, reaching
// the limit, or Stop).
func (e *Engine) Preempted() bool { return e.preempted }

// cancelled is the run loops' per-iteration preemption check: a countdown
// decrement on the fast path, a non-blocking channel poll every
// preemptStride events.
func (e *Engine) cancelled() bool {
	if e.done == nil {
		return false
	}
	if e.countdown--; e.countdown > 0 {
		return false
	}
	e.countdown = preemptStride
	select {
	case <-e.done:
		e.preempted = true
		return true
	default:
		return false
	}
}

// peekAt reports the cycle of the earliest live event. Stale (cancelled)
// heads are pruned on the way.
func (e *Engine) peekAt() (Cycle, bool) {
	for len(e.heap) > 0 {
		head := e.heap[0]
		if e.slots[head.slot].gen == head.gen {
			return head.at, true
		}
		e.pop()
	}
	return 0, false
}

// Step fires the earliest pending event and returns true, or returns false
// if the queue is empty.
func (e *Engine) Step() bool {
	if _, ok := e.peekAt(); !ok {
		return false
	}
	head := e.heap[0]
	fn := e.slots[head.slot].fn
	e.release(head.slot)
	e.pending--
	e.now = head.at
	e.stats.EventsFired++
	// Fire in place: the root stays until the callback's first At
	// overwrites it; if the callback schedules nothing, pop it now.
	e.rootFree = true
	fn(e.now)
	if e.rootFree {
		e.pop()
	}
	return true
}

// Run processes events in time order until the queue drains, Stop is
// called, or the cancellation channel bound with SetCancel closes. It
// returns the final cycle; Preempted distinguishes cancellation from a
// drained queue.
func (e *Engine) Run() Cycle {
	e.stopped.Store(false)
	e.preempted = false
	for !e.stopped.Load() && !e.cancelled() && e.Step() {
	}
	return e.now
}

// RunUntil processes events with At <= limit. Events beyond the limit remain
// queued. Returns the clock, which is min(limit, last fired event) when the
// queue still has later events. Like Run, it honours Stop and the
// SetCancel channel.
func (e *Engine) RunUntil(limit Cycle) Cycle {
	e.stopped.Store(false)
	e.preempted = false
	for !e.stopped.Load() && !e.cancelled() {
		at, ok := e.peekAt()
		if !ok || at > limit {
			break
		}
		e.Step()
	}
	return e.now
}

// push appends v and sifts it up the 4-ary heap.
func (e *Engine) push(v entry) {
	h := append(e.heap, v)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !v.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = v
	e.heap = h
}

// pop removes the minimum (root) entry, restoring heap order by sifting the
// displaced tail element down.
func (e *Engine) pop() {
	e.rootFree = false
	n := len(e.heap) - 1
	v := e.heap[n]
	e.heap = e.heap[:n]
	if n > 0 {
		e.siftDown(v)
	}
}

// siftDown places v at the root of the non-empty heap, overwriting the
// current root, and sifts it down. Four children per node halve the tree
// depth of a binary heap, which is what the fire-dominated simulation loop
// pays for.
func (e *Engine) siftDown(v entry) {
	h := e.heap
	n := len(h)
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		// Select the smallest of up to four children.
		min := c
		for k := c + 1; k < c+4 && k < n; k++ {
			if h[k].before(h[min]) {
				min = k
			}
		}
		if !h[min].before(v) {
			break
		}
		h[i] = h[min]
		i = min
	}
	h[i] = v
}
