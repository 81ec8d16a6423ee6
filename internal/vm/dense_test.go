package vm

import (
	"testing"

	"cameo/internal/xrand"
)

// TestDenseTablesMatchMapReference drives Memory and the map-based
// reference with identical random sequences of Translate, TranslateNoFault,
// SwapFrames and MoveFrame over more pages than frames (so CLOCK eviction
// and major faults run), and requires identical results and state after
// every operation.
func TestDenseTablesMatchMapReference(t *testing.T) {
	const procs, pages = 3, 48
	for seed := uint64(1); seed <= 20; seed++ {
		cfg := DefaultConfig(32, 8)
		cfg.Seed = seed
		cfg.ClockProbes = int(seed % 6)
		m, ref := New(cfg, procs), newRefMemory(cfg, procs)
		if seed%2 == 0 {
			prefer := func(proc int, vpage uint64) bool { return (vpage+uint64(proc))%3 == 0 }
			m.PreferStacked, ref.PreferStacked = prefer, prefer
		}
		r := xrand.New(seed)
		// frame picks a frame whose residency matches want, if any.
		frame := func(want bool) (uint64, bool) {
			for try := 0; try < 64; try++ {
				f := r.Uint64n(cfg.Frames)
				if _, _, ok := ref.FrameOwner(f); ok == want {
					return f, true
				}
			}
			return 0, false
		}
		for op := 0; op < 3000; op++ {
			proc := r.Intn(procs)
			vline := uint64(r.Intn(pages * LinesPerPage))
			write := r.Bool(0.3)
			switch k := r.Intn(10); {
			case k < 6:
				pl, out := m.Translate(proc, vline, write)
				rpl, rout := ref.Translate(proc, vline, write)
				if pl != rpl || out != rout {
					t.Fatalf("seed %d op %d Translate(%d, %d): (%d, %+v), reference (%d, %+v)",
						seed, op, proc, vline, pl, out, rpl, rout)
				}
			case k < 8:
				pl, ok := m.TranslateNoFault(proc, vline, write)
				rpl, rok := ref.TranslateNoFault(proc, vline, write)
				if pl != rpl || ok != rok {
					t.Fatalf("seed %d op %d TranslateNoFault(%d, %d): (%d, %v), reference (%d, %v)",
						seed, op, proc, vline, pl, ok, rpl, rok)
				}
			case k < 9:
				a, okA := frame(true)
				b, okB := frame(true)
				if okA && okB {
					m.SwapFrames(a, b)
					ref.SwapFrames(a, b)
				}
			default:
				src, okS := frame(true)
				dst, okD := frame(false)
				if okS && okD {
					m.MoveFrame(src, dst)
					ref.MoveFrame(src, dst)
				}
			}
			if m.Stats() != ref.Stats() {
				t.Fatalf("seed %d op %d: stats %+v, reference %+v", seed, op, m.Stats(), ref.Stats())
			}
			s, o := m.FreeFrames()
			rs, ro := ref.FreeFrames()
			if s != rs || o != ro {
				t.Fatalf("seed %d op %d: free frames %d/%d, reference %d/%d", seed, op, s, o, rs, ro)
			}
			for p := 0; p < procs; p++ {
				for v := uint64(0); v < pages; v++ {
					f, ok := m.FrameOf(p, v)
					rf, rok := ref.FrameOf(p, v)
					if f != rf || ok != rok {
						t.Fatalf("seed %d op %d: FrameOf(%d, %d) = (%d, %v), reference (%d, %v)",
							seed, op, p, v, f, ok, rf, rok)
					}
				}
			}
		}
		if ref.Stats().MajorFaults == 0 || ref.Stats().Evictions == 0 {
			t.Fatalf("seed %d: stream never evicted or major-faulted: %+v", seed, ref.Stats())
		}
	}
}
