package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestFiringOrderMatchesSortedKeys holds the engine, fired-slot reuse and
// lazy tree growth included, to its specification: events fire in (cycle,
// scheduling order) order. A reference model keeps the live events as a
// plain list and expects each firing to be its minimum. Callbacks schedule
// 0, 1 or 2 events (same-cycle ones included); the test loop mixes Run and
// Step and schedules events from outside callbacks too. The arena must
// never outgrow the pending high-water mark: a fired slot is either reused
// by its callback's first At or recycled.
func TestFiringOrderMatchesSortedKeys(t *testing.T) {
	type live struct {
		at  Cycle
		seq uint64
		id  int
	}
	check := func(seed int64, initial uint8) bool {
		r := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var ref []live // the model's live events
		var seq uint64
		ok := true
		var schedule func(at Cycle)
		fire := func(id int) func(Cycle) {
			return func(now Cycle) {
				// The model's minimum must be the event firing now.
				min := -1
				for i, l := range ref {
					if min < 0 || l.at < ref[min].at || (l.at == ref[min].at && l.seq < ref[min].seq) {
						min = i
					}
				}
				if min < 0 || ref[min].id != id || ref[min].at != now {
					ok = false
					return
				}
				ref = append(ref[:min], ref[min+1:]...)
				if e.pending != len(ref) {
					ok = false
				}
				if seq < 400 {
					for k := [4]int{0, 1, 2, 2}[r.Intn(4)]; k > 0; k-- {
						schedule(now + Cycle(r.Intn(3)))
					}
				}
			}
		}
		schedule = func(at Cycle) {
			id := int(seq)
			e.At(at, fire(id))
			ref = append(ref, live{at: at, seq: seq, id: id})
			seq++
		}
		for i := 0; i < int(initial%16)+1; i++ {
			schedule(Cycle(r.Intn(20)))
		}
		for ok && e.pending > 0 {
			if r.Intn(3) == 0 {
				e.Run()
			} else {
				e.Step()
			}
			if r.Intn(4) == 0 {
				schedule(e.Now() + Cycle(r.Intn(3)))
			}
			if len(ref) != e.pending || len(e.slots) > int(e.Stats().MaxPending) {
				ok = false
			}
		}
		return ok && len(ref) == 0 && !e.Step()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
