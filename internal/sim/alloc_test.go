package sim

import "testing"

// TestStepSteadyStateAllocFree pins the engine's central claim (DESIGN.md
// §Performance): once the tree, slot arena, and free list have grown to the
// working set, scheduling and firing events allocates nothing. A regression
// here (interface boxing, per-event heap objects, closure creation on the
// fire path) multiplies across the ~10^8 events of a paperbench run.
func TestStepSteadyStateAllocFree(t *testing.T) {
	e := NewEngine()
	const chains = 8
	var fired uint64
	reschedule := make([]func(now Cycle), chains)
	for i := 0; i < chains; i++ {
		i := i
		reschedule[i] = func(now Cycle) {
			fired++
			e.At(now+Cycle(1+i), reschedule[i])
		}
	}
	for i := 0; i < chains; i++ {
		e.At(Cycle(i), reschedule[i])
	}
	// Warm up: grow the tree, slots and free list to steady-state capacity.
	for i := 0; i < 1024; i++ {
		e.Step()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if !e.Step() {
			t.Fatal("queue drained under self-rescheduling chains")
		}
	})
	if allocs != 0 {
		t.Fatalf("Step steady state allocates %.1f objects per event", allocs)
	}
	if fired == 0 {
		t.Fatal("no events fired")
	}
}
