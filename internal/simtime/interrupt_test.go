package simtime

import (
	"errors"
	"testing"
)

// TestInterruptAbortsRun: an installed interrupt hook stops the run
// with its error once it trips, leaving the queue intact.
func TestInterruptAbortsRun(t *testing.T) {
	e := NewEngine()
	// An endless event chain: only the interrupt can end this run.
	var reschedule func()
	fired := 0
	reschedule = func() {
		fired++
		e.After(Duration(1), reschedule)
	}
	e.After(Duration(1), reschedule)

	abort := errors.New("abort requested")
	polls := 0
	e.SetInterrupt(func() error {
		polls++
		if fired >= 1000 {
			return abort
		}
		return nil
	}, 10)
	executed, err := e.Run(Infinity)
	if !errors.Is(err, abort) {
		t.Fatalf("Run err = %v, want the interrupt's error", err)
	}
	if executed < 1000 || executed > 1010 {
		t.Fatalf("executed %d events, want ~1000 (poll cadence 10)", executed)
	}
	if polls == 0 || polls > executed {
		t.Fatalf("interrupt polled %d times over %d events", polls, executed)
	}
}

// TestInterruptPollCadence: the hook is amortized — polled once per
// `every` events, not per event.
func TestInterruptPollCadence(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 100; i++ {
		e.After(Duration(i), func() {})
	}
	polls := 0
	e.SetInterrupt(func() error { polls++; return nil }, 25)
	if _, err := e.Run(Infinity); err != nil {
		t.Fatal(err)
	}
	if polls != 4 {
		t.Fatalf("polled %d times over 100 events at cadence 25, want 4", polls)
	}
	// Removing the hook stops polling entirely.
	e2 := NewEngine()
	e2.After(0, func() {})
	e2.SetInterrupt(func() error { t.Error("removed hook polled"); return nil }, 1)
	e2.SetInterrupt(nil, 0)
	if _, err := e2.Run(Infinity); err != nil {
		t.Fatal(err)
	}
}
