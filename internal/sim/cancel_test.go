package sim

import (
	"context"
	"testing"
	"time"
)

// chain installs n self-rescheduling events so the queue never drains — the
// shape of a simulation that will not terminate on its own.
func chain(e *Engine, n int) *uint64 {
	var fired uint64
	for i := 0; i < n; i++ {
		step := Cycle(i + 1)
		var f func(now Cycle)
		f = func(now Cycle) {
			fired++
			e.At(now+step, f)
		}
		e.At(Cycle(i), f)
	}
	return &fired
}

// TestRunPreemptedByContext: a cancelled context must stop Run within one
// preemption stride and mark the engine preempted.
func TestRunPreemptedByContext(t *testing.T) {
	e := NewEngine()
	fired := chain(e, 2)
	ctx, cancel := context.WithCancel(context.Background())
	e.SetCancel(ctx.Done())
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	done := make(chan struct{})
	go func() {
		e.Run()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not observe context cancellation")
	}
	if !e.Preempted() {
		t.Fatal("Preempted() = false after a cancelled run")
	}
	if *fired == 0 {
		t.Fatal("no events fired before cancellation")
	}
}

// TestPreCancelledContextFiresNothing: binding an already-cancelled context
// must return before the first event fires.
func TestPreCancelledContextFiresNothing(t *testing.T) {
	e := NewEngine()
	fired := chain(e, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e.SetCancel(ctx.Done())
	e.Run()
	if !e.Preempted() {
		t.Fatal("Preempted() = false for a pre-cancelled context")
	}
	if *fired != 0 {
		t.Fatalf("fired %d events under a pre-cancelled context", *fired)
	}
}

// TestPreemptionLatencyBounded: cancellation must surface within one stride
// of events, not at the end of the run.
func TestPreemptionLatencyBounded(t *testing.T) {
	e := NewEngine()
	fired := chain(e, 1)
	ctx, cancel := context.WithCancel(context.Background())
	e.SetCancel(ctx.Done())
	// Let exactly one stride pass, then cancel: the run must fire at most
	// one further stride before returning.
	var f func(now Cycle)
	f = func(now Cycle) {
		if *fired == preemptStride/2 {
			cancel()
		}
		e.At(now+1, f)
	}
	e.At(0, f)
	e.Run()
	if !e.Preempted() {
		t.Fatal("not preempted")
	}
	if *fired > 3*preemptStride {
		t.Fatalf("fired %d events after cancellation; preemption latency unbounded", *fired)
	}
}

// TestSetCancelNilIsRunToCompletion: without SetCancel the engine drains
// normally and reports no preemption.
func TestSetCancelNilIsRunToCompletion(t *testing.T) {
	e := NewEngine()
	var fired int
	e.At(0, func(now Cycle) { fired++ })
	e.Run()
	if e.Preempted() || fired != 1 {
		t.Fatalf("Preempted=%v fired=%d, want false/1", e.Preempted(), fired)
	}
}
