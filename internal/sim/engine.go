// Package sim provides the discrete-event backbone of the simulator: a
// cycle-granular clock and an event queue with deterministic ordering.
//
// The DRAM model does not need events (it is timed analytically with
// busy-until state); the engine exists to interleave the cores — each core
// schedules its next issue/retire point and the engine processes them in
// global time order so that contention in the shared memory system is
// observed consistently.
//
// The queue is a winner (tournament) tree over a slot arena. Each scheduled
// callback parks in an arena slot, which is one leaf; each inner node holds
// its subtree's earliest entry inline, as a 16-byte key: the cycle, plus the
// insertion sequence and slot index packed into one word. The root is the
// next event. Step fires it, and the callback's first At reuses the fired
// slot and replays that one leaf-to-root path: one branch-free min against
// the sibling per level, log2(leaves) of them (5 at 32 cores), with no
// data-dependent child selection. A callback that schedules nothing replays
// the path with the idle key. The tree is sized to the arena lazily: when
// the arena outgrows it, the next Step rebuilds the inner nodes bottom-up
// once. Scheduling and firing are allocation-free in steady state (see
// DESIGN.md §Performance).
package sim

import (
	"math"
	"math/bits"
)

// Cycle is a point in simulated time, in CPU cycles (3.2 GHz in the paper's
// configuration). A uint64 cycle counter at 3.2 GHz lasts ~180 years of
// simulated time, so overflow is not a practical concern.
type Cycle = uint64

// The packed ordering word is seq<<slotBits | slot. Twenty slot bits allow
// about a million simultaneously pending events (the simulator keeps about
// one per core); the remaining 44 bits number 1.7e13 events per engine.
const (
	slotBits = 20
	maxSlots = 1 << slotBits
	// maxSeq is the last usable sequence number. It stops one short of the
	// field's top so that no real key's ord reaches the idle key's.
	maxSeq = 1<<(64-slotBits) - 2
)

// key orders events by (cycle, insertion sequence); the slot index in the
// low bits of ord never decides, since sequence numbers are unique.
type key struct {
	at  Cycle
	ord uint64 // seq<<slotBits | slot
}

// idle fills empty leaves and the subtrees with nothing scheduled.
var idle = key{at: math.MaxUint64, ord: math.MaxUint64}

// minKey returns the lesser of a and b without a data-dependent branch,
// which random event times would mispredict half the time: the keys compare
// as one 128-bit number and the borrow selects.
func minKey(a, b key) key {
	_, borrow := bits.Sub64(b.ord, a.ord, 0)
	_, borrow = bits.Sub64(b.at, a.at, borrow)
	m := -borrow
	return key{at: a.at ^ (a.at^b.at)&m, ord: a.ord ^ (a.ord^b.ord)&m}
}

// slot parks one scheduled callback with its key: the slot is a tree leaf.
type slot struct {
	key key
	fn  func(now Cycle)
}

// Stats counts engine activity over the run.
type Stats struct {
	EventsFired uint64 // events dispatched by Step
	MaxPending  uint64 // high-water mark of pending events
}

// preemptStride is how many events Run fires between polls of the
// cancellation channel. One poll per event would put a channel operation on
// the hottest loop in the simulator; one poll per stride keeps the check
// amortized to a fraction of a nanosecond per event while bounding the
// preemption latency to a few hundred microseconds of wall time.
const preemptStride = 4096

// Engine owns the clock and the pending-event queue.
type Engine struct {
	now     Cycle
	nextSeq uint64
	slots   []slot
	// tree holds the inner nodes: tree[1] is the root and node i's
	// children are 2i and 2i+1; with n = len(tree) leaves, node i >= n/2
	// has the arena slots 2i-n and 2i+1-n as children. Slots beyond the
	// arena count as idle. The tree is stale while the arena is longer
	// than len(tree); Step then rebuilds it.
	tree    []key
	free    []int32 // recycled arena indices
	pending int     // scheduled events not yet fired
	// reuse is the slot Step is firing, plus one, until the callback's
	// first At takes it; 0 when there is none.
	reuse int32

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

// Stats returns a snapshot of the engine's activity counters.
func (e *Engine) Stats() Stats { return e.stats }

// At schedules fn to run at cycle at. Scheduling in the past is a
// programming error and panics: time in a discrete-event simulation must be
// monotone or results are not reproducible. So does running out of the
// packed key's slot or sequence field.
func (e *Engine) At(at Cycle, fn func(now Cycle)) {
	if at < e.now {
		panic("sim: event scheduled in the past")
	}
	if e.nextSeq > maxSeq {
		panic("sim: event sequence number overflows its key field")
	}
	var idx int32
	switch n := len(e.free); {
	case e.reuse != 0:
		idx = e.reuse - 1
		e.reuse = 0
	case n > 0:
		idx = e.free[n-1]
		e.free = e.free[:n-1]
	default:
		if len(e.slots) == maxSlots {
			panic("sim: pending events overflow the key's slot field")
		}
		idx = int32(len(e.slots))
		e.slots = append(e.slots, slot{})
	}
	e.slots[idx].fn = fn
	e.replay(idx, key{at: at, ord: e.nextSeq<<slotBits | uint64(idx)})
	e.nextSeq++
	e.pending++
	if n := uint64(e.pending); n > e.stats.MaxPending {
		e.stats.MaxPending = n
	}
}

// replay stores k in leaf idx and recomputes the path from it to the root.
// A stale tree is left for Step to rebuild.
func (e *Engine) replay(idx int32, k key) {
	e.slots[idx].key = k
	t := e.tree
	if len(e.slots) > len(t) {
		return
	}
	if sib := int(idx ^ 1); sib < len(e.slots) {
		k = minKey(k, e.slots[sib].key)
	}
	i := (len(t) + int(idx)) >> 1
	t[i] = k
	for i > 1 {
		k = minKey(k, t[i^1])
		i >>= 1
		t[i] = k
	}
}

// rebuild sizes the tree to the arena and recomputes every inner node.
func (e *Engine) rebuild() {
	n := 2
	for n < len(e.slots) {
		n <<= 1
	}
	e.tree = make([]key, n)
	leaf := func(i int) key {
		if i < len(e.slots) {
			return e.slots[i].key
		}
		return idle
	}
	for i := n - 1; i >= 1; i-- {
		if i >= n/2 {
			e.tree[i] = minKey(leaf(2*i-n), leaf(2*i+1-n))
		} else {
			e.tree[i] = minKey(e.tree[2*i], e.tree[2*i+1])
		}
	}
	// The free list never outgrows the arena: size it once per rebuild
	// rather than growing it on the fire path.
	if cap(e.free) < n {
		e.free = append(make([]int32, 0, n), e.free...)
	}
}

// SetCancel binds a cancellation channel (normally ctx.Done()) to Run: it
// polls the channel every preemptStride events and returns early once it
// is closed. A nil channel (the default) disables polling entirely, so
// engines that never need preemption pay nothing. The first poll happens
// before the first event, so a run bound to an already-cancelled context
// fires no events at all.
func (e *Engine) SetCancel(done <-chan struct{}) {
	e.done = done
	e.countdown = 1
}

// Preempted reports whether the last Run returned because the cancellation
// channel closed (as opposed to draining the queue).
func (e *Engine) Preempted() bool { return e.preempted }

// cancelled is Run's per-iteration preemption check: a countdown decrement
// on the fast path, a non-blocking channel poll every preemptStride events.
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

// Step fires the earliest pending event and returns true, or returns false
// if the queue is empty.
func (e *Engine) Step() bool {
	if e.pending == 0 {
		return false
	}
	if len(e.slots) > len(e.tree) {
		e.rebuild()
	}
	top := e.tree[1]
	idx := int32(top.ord & (maxSlots - 1))
	s := &e.slots[idx]
	fn := s.fn
	s.fn = nil
	e.pending--
	e.now = top.at
	e.stats.EventsFired++
	// The fired key stays in its leaf until the callback's first At
	// overwrites it; if the callback schedules nothing, clear it now.
	e.reuse = idx + 1
	fn(e.now)
	if e.reuse != 0 {
		e.reuse = 0
		e.replay(idx, idle)
		e.free = append(e.free, idx)
	}
	return true
}

// Run processes events in time order until the queue drains or the
// cancellation channel bound with SetCancel closes. It returns the final
// cycle; Preempted distinguishes cancellation from a drained queue.
func (e *Engine) Run() Cycle {
	e.preempted = false
	for !e.cancelled() && e.Step() {
	}
	return e.now
}
