package vm

// The map-based paging layer this package shipped before dense page tables
// (per-process maps plus a last-translation memo). It is the reference the
// differential test holds Memory to, so it is kept verbatim apart from its
// names.

import "cameo/internal/xrand"

type refFrameInfo struct {
	owner int    // owning process, -1 when free
	vpage uint64 // owner's virtual page number
	valid bool
	ref   bool // CLOCK reference bit
	dirty bool
}

// refMemory is the paging layer. Not safe for concurrent use.
type refMemory struct {
	cfg    Config
	frames []refFrameInfo
	// free lists per region, holding frame numbers
	freeStacked []uint64
	freeOffchip []uint64
	tables      []map[uint64]uint64 // per-process vpage -> frame
	onStorage   []map[uint64]bool   // per-process pages whose contents live on storage
	// tcache memoizes each process's last successful translation — a
	// software micro-TLB in front of the page-table map. Page-local access
	// runs (64 lines per page) make it hit often enough that the map
	// lookup leaves the per-access hot path; every operation that remaps
	// or unmaps a page invalidates the affected entry, so it is pure
	// memoization and cannot change any simulation result.
	tcache    []refTransCache
	clockHand uint64
	rng       *xrand.Rand
	stats     Stats

	// PreferStacked, when non-nil, asks for frames in the stacked region for
	// pages it returns true for (used by TLM-Oracle placement). Fallback is
	// the other region when the preferred one is exhausted.
	PreferStacked func(proc int, vpage uint64) bool
}

// newRefMemory builds a refMemory for nprocs processes. Panics on invalid configuration.
func newRefMemory(cfg Config, nprocs int) *refMemory {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	m := &refMemory{
		cfg:    cfg,
		frames: make([]refFrameInfo, cfg.Frames),
		rng:    xrand.New(cfg.Seed),
	}
	for i := range m.frames {
		m.frames[i].owner = -1
	}
	for f := uint64(0); f < cfg.StackedFrames; f++ {
		m.freeStacked = append(m.freeStacked, f)
	}
	for f := cfg.StackedFrames; f < cfg.Frames; f++ {
		m.freeOffchip = append(m.freeOffchip, f)
	}
	m.tables = make([]map[uint64]uint64, nprocs)
	m.onStorage = make([]map[uint64]bool, nprocs)
	m.tcache = make([]refTransCache, nprocs)
	for i := range m.tables {
		m.tables[i] = make(map[uint64]uint64)
		m.onStorage[i] = make(map[uint64]bool)
	}
	return m
}

// refTransCache is one process's last-translation memo (see refMemory.tcache).
type refTransCache struct {
	vpage uint64
	frame uint64
	valid bool
}

// invalidate drops proc's memoized translation if it covers vpage. Callers
// are the remap/unmap sites: evictFrame, SwapFrames, MoveFrame.
func (m *refMemory) invalidate(proc int, vpage uint64) {
	if proc >= 0 && proc < len(m.tcache) && m.tcache[proc].vpage == vpage {
		m.tcache[proc].valid = false
	}
}

// Config returns the configuration.
func (m *refMemory) Config() Config { return m.cfg }

// Stats returns a snapshot of the paging counters.
func (m *refMemory) Stats() Stats { return m.stats }

// ResetStats clears counters without unmapping pages.
func (m *refMemory) ResetStats() { m.stats = Stats{} }

// ResidentPages returns the number of mapped frames.
func (m *refMemory) ResidentPages() uint64 {
	return m.cfg.Frames - uint64(len(m.freeStacked)+len(m.freeOffchip))
}

// Translate maps a virtual line address of proc to a physical line address,
// faulting the page in if needed. The returned FaultOutcome carries the
// stall the core must absorb; storage traffic is accumulated in Stats.
func (m *refMemory) Translate(proc int, vline uint64, isWrite bool) (pline uint64, out FaultOutcome) {
	vpage := vline / LinesPerPage
	offset := vline % LinesPerPage
	tc := &m.tcache[proc]
	if tc.valid && tc.vpage == vpage {
		fr := &m.frames[tc.frame]
		fr.ref = true
		if isWrite {
			fr.dirty = true
		}
		return tc.frame*LinesPerPage + offset, FaultOutcome{}
	}
	table := m.tables[proc]
	if f, ok := table[vpage]; ok {
		fr := &m.frames[f]
		fr.ref = true
		if isWrite {
			fr.dirty = true
		}
		*tc = refTransCache{vpage: vpage, frame: f, valid: true}
		return f*LinesPerPage + offset, FaultOutcome{}
	}

	// Page fault.
	major := m.onStorage[proc][vpage]
	f := m.allocate(proc, vpage)
	fr := &m.frames[f]
	*fr = refFrameInfo{owner: proc, vpage: vpage, valid: true, ref: true, dirty: isWrite}
	table[vpage] = f
	*tc = refTransCache{vpage: vpage, frame: f, valid: true}

	out.Fault = true
	if major {
		out.Major = true
		out.StallCycles = m.cfg.MajorFaultCycles
		m.stats.MajorFaults++
		m.stats.BytesFromStorage += PageBytes
		delete(m.onStorage[proc], vpage)
	} else {
		out.StallCycles = m.cfg.MinorFaultCycles
		m.stats.MinorFaults++
	}
	m.stats.StallCycles += out.StallCycles
	return f*LinesPerPage + offset, out
}

// allocate returns a frame for (proc, vpage), evicting if necessary.
func (m *refMemory) allocate(proc int, vpage uint64) uint64 {
	prefer := m.PreferStacked != nil && m.PreferStacked(proc, vpage)
	if f, ok := m.takeFree(prefer); ok {
		return f
	}
	return m.evict()
}

// takeFree pops a pseudo-random free frame. With no preference the pick is
// uniform over all free frames (the paper's TLM-Static "randomly maps the
// pages across the memory address space"); with a stacked preference the
// stacked pool is tried first.
func (m *refMemory) takeFree(preferStacked bool) (uint64, bool) {
	pop := func(pool *[]uint64) (uint64, bool) {
		n := len(*pool)
		if n == 0 {
			return 0, false
		}
		i := m.rng.Intn(n)
		f := (*pool)[i]
		(*pool)[i] = (*pool)[n-1]
		*pool = (*pool)[:n-1]
		return f, true
	}
	if preferStacked {
		if f, ok := pop(&m.freeStacked); ok {
			return f, true
		}
		return pop(&m.freeOffchip)
	}
	ns, no := len(m.freeStacked), len(m.freeOffchip)
	if ns+no == 0 {
		return 0, false
	}
	if m.rng.Intn(ns+no) < ns {
		return pop(&m.freeStacked)
	}
	return pop(&m.freeOffchip)
}

// evict frees a victim frame using the paper's policy: probe ClockProbes
// random frames for an invalid one, then fall back to the CLOCK hand.
func (m *refMemory) evict() uint64 {
	for i := 0; i < m.cfg.ClockProbes; i++ {
		f := m.rng.Uint64n(m.cfg.Frames)
		if !m.frames[f].valid {
			return f
		}
	}
	// CLOCK: sweep, clearing reference bits, until an unreferenced valid
	// frame is found.
	for {
		f := m.clockHand
		m.clockHand = (m.clockHand + 1) % m.cfg.Frames
		fr := &m.frames[f]
		if !fr.valid {
			return f
		}
		if fr.ref {
			fr.ref = false
			continue
		}
		m.evictFrame(f)
		return f
	}
}

// evictFrame unmaps the page in frame f, charging storage traffic.
func (m *refMemory) evictFrame(f uint64) {
	fr := &m.frames[f]
	m.invalidate(fr.owner, fr.vpage)
	delete(m.tables[fr.owner], fr.vpage)
	m.onStorage[fr.owner][fr.vpage] = true
	m.stats.Evictions++
	if fr.dirty {
		m.stats.DirtyEvicted++
		m.stats.BytesToStorage += PageBytes
	}
	*fr = refFrameInfo{owner: -1}
}

// TranslateNoFault resolves a virtual line only if its page is resident —
// the path for posted writebacks, which can never fault (a page leaves
// memory together with its dirty lines, so a writeback to a non-resident
// page has already been absorbed by the page-out).
func (m *refMemory) TranslateNoFault(proc int, vline uint64, isWrite bool) (pline uint64, ok bool) {
	vpage := vline / LinesPerPage
	tc := &m.tcache[proc]
	if tc.valid && tc.vpage == vpage {
		fr := &m.frames[tc.frame]
		fr.ref = true
		if isWrite {
			fr.dirty = true
		}
		return tc.frame*LinesPerPage + vline%LinesPerPage, true
	}
	f, found := m.tables[proc][vpage]
	if !found {
		return 0, false
	}
	fr := &m.frames[f]
	fr.ref = true
	if isWrite {
		fr.dirty = true
	}
	*tc = refTransCache{vpage: vpage, frame: f, valid: true}
	return f*LinesPerPage + vline%LinesPerPage, true
}

// FrameOf reports the frame currently holding (proc, vpage), for tests and
// the TLM migration machinery.
func (m *refMemory) FrameOf(proc int, vpage uint64) (uint64, bool) {
	f, ok := m.tables[proc][vpage]
	return f, ok
}

// SwapFrames exchanges the contents (ownership, dirty/ref state) of two
// resident frames and patches both page tables. It is the primitive under
// TLM page migration. Panics if either frame is unmapped — migrating a free
// frame is a bookkeeping bug, not a runtime condition.
func (m *refMemory) SwapFrames(a, b uint64) {
	if a == b {
		return
	}
	fa, fb := &m.frames[a], &m.frames[b]
	if !fa.valid || !fb.valid {
		panic("vm: SwapFrames on unmapped frame")
	}
	m.invalidate(fa.owner, fa.vpage)
	m.invalidate(fb.owner, fb.vpage)
	m.tables[fa.owner][fa.vpage] = b
	m.tables[fb.owner][fb.vpage] = a
	*fa, *fb = *fb, *fa
}

// MoveFrame relocates the page in frame src to the free frame dst (used by
// TLM-Freq when promoting a page into an empty stacked frame). Panics if
// src is unmapped or dst is occupied.
func (m *refMemory) MoveFrame(src, dst uint64) {
	fs, fd := &m.frames[src], &m.frames[dst]
	if !fs.valid {
		panic("vm: MoveFrame from unmapped frame")
	}
	if fd.valid {
		panic("vm: MoveFrame onto occupied frame")
	}
	m.removeFromFree(dst)
	m.invalidate(fs.owner, fs.vpage)
	m.tables[fs.owner][fs.vpage] = dst
	*fd = *fs
	*fs = refFrameInfo{owner: -1}
	m.addToFree(src)
}

func (m *refMemory) removeFromFree(f uint64) {
	pool := &m.freeOffchip
	if f < m.cfg.StackedFrames {
		pool = &m.freeStacked
	}
	for i, v := range *pool {
		if v == f {
			(*pool)[i] = (*pool)[len(*pool)-1]
			*pool = (*pool)[:len(*pool)-1]
			return
		}
	}
	panic("vm: frame not in free list")
}

func (m *refMemory) addToFree(f uint64) {
	if f < m.cfg.StackedFrames {
		m.freeStacked = append(m.freeStacked, f)
	} else {
		m.freeOffchip = append(m.freeOffchip, f)
	}
}

// FreeFrames returns the count of free frames in (stacked, off-chip) pools.
func (m *refMemory) FreeFrames() (stacked, offchip int) {
	return len(m.freeStacked), len(m.freeOffchip)
}

// IsStackedFrame reports whether frame f lies in the stacked region.
func (m *refMemory) IsStackedFrame(f uint64) bool { return f < m.cfg.StackedFrames }

// FrameOwner returns (proc, vpage, ok) for a mapped frame.
func (m *refMemory) FrameOwner(f uint64) (proc int, vpage uint64, ok bool) {
	fr := &m.frames[f]
	if !fr.valid {
		return 0, 0, false
	}
	return fr.owner, fr.vpage, true
}
