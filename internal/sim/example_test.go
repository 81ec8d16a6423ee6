package sim_test

import (
	"fmt"

	"cameo/internal/sim"
)

// Example runs three events in time order, one rescheduling another.
func Example() {
	eng := sim.NewEngine()
	eng.At(20, func(now sim.Cycle) { fmt.Println("second at", now) })
	eng.At(10, func(now sim.Cycle) {
		fmt.Println("first at", now)
		eng.At(now+25, func(now sim.Cycle) { fmt.Println("third at", now) })
	})
	end := eng.Run()
	fmt.Println("clock:", end)
	// Output:
	// first at 10
	// second at 20
	// third at 35
	// clock: 35
}
