package sim

import (
	"testing"
	"testing/quick"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []Cycle
	for _, at := range []Cycle{30, 10, 20, 5, 25} {
		at := at
		e.At(at, func(now Cycle) {
			if now != at {
				t.Errorf("event scheduled at %d fired at %d", at, now)
			}
			order = append(order, now)
		})
	}
	end := e.Run()
	if end != 30 {
		t.Fatalf("final cycle = %d, want 30", end)
	}
	want := []Cycle{5, 10, 20, 25, 30}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestTieBreakIsInsertionOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(100, func(Cycle) { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("ties fired out of insertion order: %v", order)
		}
	}
}

func TestEventsCanScheduleEvents(t *testing.T) {
	e := NewEngine()
	count := 0
	var step func(now Cycle)
	step = func(now Cycle) {
		count++
		if count < 5 {
			e.At(now+10, step)
		}
	}
	e.At(0, step)
	end := e.Run()
	if count != 5 || end != 40 {
		t.Fatalf("count=%d end=%d, want 5 and 40", count, end)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, func(Cycle) {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.At(50, func(Cycle) {})
}

// TestTreeGrowsDuringRun: callbacks that schedule two events grow the arena
// past several powers of two in the middle of Run. Each growth leaves the
// tree stale until the next Step rebuilds it; the firing order must not
// notice. Every event is scheduled at or after the one firing, with a later
// sequence number, so (cycle, sequence) order is a strictly increasing
// firing sequence that fires everything.
func TestTreeGrowsDuringRun(t *testing.T) {
	e := NewEngine()
	type fired struct {
		at Cycle
		id int
	}
	var order []fired
	sizes := map[int]bool{}
	next := 0
	var schedule func(at Cycle)
	schedule = func(at Cycle) {
		id := next
		next++
		e.At(at, func(now Cycle) {
			sizes[len(e.tree)] = true
			order = append(order, fired{now, id})
			if next < 300 {
				schedule(now + Cycle(id%3))
				schedule(now + Cycle(id%5))
			}
		})
	}
	schedule(0)
	e.Run()
	if len(order) != next || e.pending != 0 {
		t.Fatalf("fired %d of %d events, %d pending", len(order), next, e.pending)
	}
	for i := 1; i < len(order); i++ {
		a, b := order[i-1], order[i]
		if b.at < a.at || b.at == a.at && b.id < a.id {
			t.Fatalf("event %d (cycle %d) fired after %d (cycle %d)", b.id, b.at, a.id, a.at)
		}
	}
	if len(sizes) < 4 {
		t.Fatalf("tree took sizes %v during Run, want growth across at least three powers of two", sizes)
	}
	if got := e.Stats().EventsFired; got != uint64(next) {
		t.Fatalf("EventsFired = %d, want %d", got, next)
	}
}

// TestPackedKeyOverflowPanics: the sequence number and the slot index share
// one word of the key, so At refuses, like a past cycle, any event whose
// sequence number or slot would not fit its field.
func TestPackedKeyOverflowPanics(t *testing.T) {
	mustPanic := func(t *testing.T, e *Engine) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatal("At did not panic")
			}
		}()
		e.At(e.Now(), func(Cycle) {})
	}
	t.Run("sequence", func(t *testing.T) {
		e := NewEngine()
		e.nextSeq = maxSeq
		var fired bool
		e.At(7, func(Cycle) { fired = true }) // the last sequence number fits
		mustPanic(t, e)
		e.Run()
		if !fired {
			t.Fatal("event with the last sequence number did not fire")
		}
	})
	t.Run("slot", func(t *testing.T) {
		e := NewEngine()
		e.slots = make([]slot, maxSlots-1)
		e.At(0, func(Cycle) {}) // the last slot index fits
		if got := e.slots[maxSlots-1].key.ord & (maxSlots - 1); got != maxSlots-1 {
			t.Fatalf("last slot packed as %d", got)
		}
		mustPanic(t, e)
	})
}

func TestStepOnEmptyQueue(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

func TestClockNeverGoesBackward(t *testing.T) {
	check := func(delays []uint16) bool {
		e := NewEngine()
		last := Cycle(0)
		ok := true
		for _, d := range delays {
			e.At(Cycle(d), func(now Cycle) {
				if now < last {
					ok = false
				}
				last = now
			})
		}
		e.Run()
		return ok
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < 100; j++ {
			e.At(Cycle(j%17), func(Cycle) {})
		}
		e.Run()
	}
}

// BenchmarkScheduleAndRunSelfReschedule is the simulator's own pattern: 32
// chains (one per core) that each reschedule themselves on every firing,
// at pseudo-random gaps. One op is one fired event.
func BenchmarkScheduleAndRunSelfReschedule(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	rng := uint64(1)
	chains := make([]func(Cycle), 32)
	for i := range chains {
		i := i
		chains[i] = func(now Cycle) {
			rng = rng*6364136223846793005 + 1442695040888963407
			e.At(now+1+Cycle(rng>>58), chains[i])
		}
		e.At(Cycle(i), chains[i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}
