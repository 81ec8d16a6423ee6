package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestFiringOrderMatchesSortedKeys holds the engine, in-place root firing
// included, to its specification: events fire in (cycle, scheduling order)
// order. A reference model keeps the live events as a plain list and
// expects each firing to be its minimum. Callbacks schedule 0, 1 or 2
// events (same-cycle ones included), cancel live, fired and their own
// events, and call Stop; the driver mixes Run, RunUntil and Step and
// schedules events from outside callbacks too.
func TestFiringOrderMatchesSortedKeys(t *testing.T) {
	type live struct {
		at  Cycle
		seq uint64
		id  int
		ev  Event
	}
	check := func(seed int64, initial uint8) bool {
		r := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var ref []live // the model's live events
		var fired []Event
		var seq uint64
		ok := true
		var schedule func(at Cycle)
		cancelLive := func() {
			if len(ref) == 0 {
				return
			}
			i := r.Intn(len(ref))
			e.Cancel(ref[i].ev)
			ref = append(ref[:i], ref[i+1:]...)
		}
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
				fired = append(fired, ref[min].ev)
				ref = append(ref[:min], ref[min+1:]...)
				if e.Pending() != len(ref) {
					ok = false
				}
				if r.Intn(10) == 0 {
					cancelLive()
				}
				if r.Intn(8) == 0 {
					e.Cancel(fired[r.Intn(len(fired))]) // fired or own: a no-op
				}
				if seq < 400 {
					for k := [4]int{0, 1, 2, 2}[r.Intn(4)]; k > 0; k-- {
						schedule(now + Cycle(r.Intn(3)))
					}
				}
				if r.Intn(10) == 0 {
					cancelLive()
				}
				if r.Intn(10) == 0 {
					e.Stop()
				}
			}
		}
		schedule = func(at Cycle) {
			id := int(seq)
			ev := e.At(at, fire(id))
			ref = append(ref, live{at: at, seq: seq, id: id, ev: ev})
			seq++
		}
		for i := 0; i < int(initial%16)+1; i++ {
			schedule(Cycle(r.Intn(20)))
		}
		for ok && e.Pending() > 0 {
			switch r.Intn(3) {
			case 0:
				e.Run()
			case 1:
				e.RunUntil(e.Now() + Cycle(r.Intn(5)))
			default:
				e.Step()
			}
			if r.Intn(4) == 0 {
				schedule(e.Now() + Cycle(r.Intn(3)))
			}
			if len(ref) != e.Pending() {
				ok = false
			}
		}
		return ok && len(ref) == 0 && !e.Step()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
