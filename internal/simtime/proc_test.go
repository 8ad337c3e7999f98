package simtime

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"
)

// waitGoroutines polls until the goroutine count is back to base; a
// retiring coroutine may take a moment to leave the scheduler's count.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutine(s) left behind", runtime.NumGoroutine()-base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestProcLifecycle drives one process body to each way it can end and
// checks that the process retires, the engine reports the outcome, and
// no goroutine outlives the case.
func TestProcLifecycle(t *testing.T) {
	cases := []struct {
		name string
		// drive spawns processes on e, runs it and checks the outcome.
		// Every process must be done when it returns.
		drive func(t *testing.T, e *Engine)
	}{
		{"returns", func(t *testing.T, e *Engine) {
			ran := false
			e.Spawn("worker", func(p *Proc) {
				p.Sleep(Microsecond)
				ran = true
			})
			if _, err := e.Run(Infinity); err != nil || !ran {
				t.Fatalf("Run err = %v, body finished = %v", err, ran)
			}
		}},
		{"panics", func(t *testing.T, e *Engine) {
			c := NewCond(e)
			e.Spawn("bomber", func(p *Proc) {
				p.Sleep(Microsecond)
				panic("boom")
			})
			bystander := e.Spawn("bystander", func(p *Proc) { c.Wait(p, "never signaled") })
			e.After(2*Microsecond, func() { t.Error("engine ran past the panic instant") })
			_, err := e.Run(Infinity)
			var pp *ProcPanicError
			if !errors.As(err, &pp) || pp.Proc != "bomber" || pp.Value != "boom" {
				t.Fatalf("Run err = %v, want bomber's ProcPanicError", err)
			}
			if !e.stopped || e.Now() != Time(Microsecond) {
				t.Fatalf("engine not stopped at the panic instant (now %v)", e.Now())
			}
			if bystander.Done() {
				t.Fatal("bystander retired before KillLive")
			}
			e.KillLive()
		}},
		{"kill while parked", func(t *testing.T, e *Engine) {
			c := NewCond(e)
			reached := false
			victim := e.Spawn("victim", func(p *Proc) {
				c.Wait(p, "never signaled")
				reached = true
			})
			e.After(Microsecond, victim.Kill)
			if _, err := e.Run(Infinity); err != nil {
				t.Fatalf("Run err = %v, want a clean run after the kill", err)
			}
			if reached || victim.blockedOn != "killed" {
				t.Fatalf("victim continued past its park point (reached %v, blockedOn %q)", reached, victim.blockedOn)
			}
		}},
		{"killed before first run", func(t *testing.T, e *Engine) {
			ran := false
			p := e.Spawn("unstarted", func(*Proc) { ran = true })
			p.Kill()
			if _, err := e.Run(Infinity); err != nil {
				t.Fatal(err)
			}
			if ran || p.resume != nil {
				t.Fatalf("killed process started (body ran %v, coroutine created %v)", ran, p.resume != nil)
			}
		}},
		{"KillLive before first run", func(t *testing.T, e *Engine) {
			ran := false
			p := e.Spawn("unstarted", func(*Proc) { ran = true })
			e.KillLive()
			if ran || p.resume != nil {
				t.Fatalf("KillLive started the process (body ran %v, coroutine created %v)", ran, p.resume != nil)
			}
		}},
		{"KillLive after interrupted run", func(t *testing.T, e *Engine) {
			c := NewCond(e)
			cleanups := 0
			for i := 0; i < 3; i++ {
				e.Spawn("parked", func(p *Proc) {
					defer func() { cleanups++ }()
					c.Wait(p, "never signaled")
				})
			}
			abort := errors.New("abort")
			e.SetInterrupt(func() error {
				if e.Now() > 0 {
					return abort
				}
				return nil
			}, 1)
			// Two events, so the poll after the first sees now > 0.
			e.After(Microsecond, func() {})
			e.After(2*Microsecond, func() {})
			if _, err := e.Run(Infinity); !errors.Is(err, abort) {
				t.Fatalf("Run err = %v, want abort", err)
			}
			e.KillLive()
			if cleanups != 3 {
				t.Fatalf("%d deferred cleanups ran, want 3", cleanups)
			}
		}},
		{"parks while unwinding", func(t *testing.T, e *Engine) {
			c := NewCond(e)
			restored := false
			e.Spawn("restorer", func(p *Proc) {
				defer func() {
					p.Sleep(Microsecond) // a deferred power restore that waits
					restored = true
				}()
				c.Wait(p, "never signaled")
			})
			var dl *DeadlockError
			if _, err := e.Run(Infinity); !errors.As(err, &dl) {
				t.Fatalf("Run err = %v, want a deadlock", err)
			}
			e.KillLive()
			if restored {
				t.Fatal("the deferred wait returned instead of unwinding")
			}
		}},
		{"Goexit", func(t *testing.T, e *Engine) {
			e.Spawn("quitter", func(p *Proc) {
				p.Sleep(Microsecond)
				runtime.Goexit()
			})
			e.Spawn("sleeper", func(p *Proc) { p.Sleep(Second) })
			returned := make(chan bool)
			go func() {
				finished := false
				defer func() { returned <- finished }()
				e.Run(Infinity)
				finished = true
			}()
			// The coroutine hands the Goexit on to the goroutine that
			// resumed it: Run's caller exits without Run returning.
			if <-returned {
				t.Fatal("Run returned; want Goexit to unwind its caller")
			}
			if e.running || e.Now() != Time(Microsecond) {
				t.Fatalf("engine left running = %v at %v", e.running, e.Now())
			}
			e.KillLive()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			e := NewEngine()
			tc.drive(t, e)
			for _, p := range e.procs {
				if !p.done {
					t.Fatalf("process %s still live", p.describe())
				}
			}
			waitGoroutines(t, base)
		})
	}
}

// TestFutureRelease checks that Release wakes one parked process at the
// current instant without completing the future, whether the process
// parked first or behind another, and that the remaining waiters still
// wake on completion.
func TestFutureRelease(t *testing.T) {
	e := NewEngine()
	f := NewFuture(e)
	woke := map[string]Time{}
	procs := map[string]*Proc{}
	for _, name := range []string{"a", "b", "c"} {
		procs[name] = e.Spawn(name, func(p *Proc) {
			f.Await(p, "op")
			woke[p.Name()] = p.Now()
		})
	}
	e.At(10, func() {
		if !f.Release(procs["a"]) || !f.Release(procs["c"]) {
			t.Error("Release missed a parked process")
		}
		if f.Release(procs["a"]) {
			t.Error("Release of a process no longer parked reported true")
		}
	})
	e.At(20, func() {
		if f.IsDone() {
			t.Error("Release completed the future")
		}
		f.Complete()
	})
	if _, err := e.Run(Infinity); err != nil {
		t.Fatal(err)
	}
	if woke["a"] != 10 || woke["c"] != 10 || woke["b"] != 20 {
		t.Fatalf("wake instants %v, want a and c at 10, b at 20", woke)
	}
}

// stepper is a continuation that re-parks its process once per delay,
// logging each step it runs, and ends the call after the last.
type stepper struct {
	log    *[]string
	delays []Duration
	i      int
}

func (s *stepper) Continue(p *Proc) bool {
	*s.log = append(*s.log, fmt.Sprintf("%s@%d", p.Name(), p.Now()))
	if s.i == len(s.delays) {
		return true
	}
	p.WakeAfter(s.delays[s.i])
	s.i++
	return false
}

// TestContinuationKeepsQueueSlot runs the same schedule twice, once with
// each process sleeping through its delays and once with it parked
// behind a continuation that takes them in event context. Every step
// must land in the queue slot of the wakeup it replaces — the same
// order against the other processes and against plain events at the
// same instants — while the continuation's process is switched into
// only at its first run and when its call ends.
func TestContinuationKeepsQueueSlot(t *testing.T) {
	delays := []Duration{2, 0, 3, 1}
	run := func(parked bool) ([]string, uint64) {
		e := NewEngine()
		var log []string
		note := func(p *Proc) { log = append(log, fmt.Sprintf("%s@%d", p.Name(), p.Now())) }
		for _, name := range []string{"a", "b", "c"} {
			e.Spawn(name, func(p *Proc) {
				if parked {
					p.Park(&stepper{log: &log, delays: delays})
				} else {
					for _, d := range delays {
						note(p)
						p.Sleep(d)
					}
					note(p)
				}
				p.Sleep(1)
				note(p)
			})
		}
		for _, at := range []Time{0, 2, 5, 6} {
			e.At(at, func() { log = append(log, fmt.Sprintf("event@%d", at)) })
		}
		if _, err := e.Run(Infinity); err != nil {
			t.Fatal(err)
		}
		return log, e.Switches()
	}
	slept, sleepSwitches := run(false)
	parked, parkSwitches := run(true)
	if !slices.Equal(slept, parked) {
		t.Fatalf("continuation order differs from sleeping:\n sleep %v\n  park %v", slept, parked)
	}
	// Each process: first run, the call's end, the last sleep's end.
	if want := uint64(3 * 3); parkSwitches != want {
		t.Errorf("parked run switched %d times, want %d", parkSwitches, want)
	}
	if want := uint64(3 * (len(delays) + 2)); sleepSwitches != want {
		t.Errorf("sleeping run switched %d times, want %d", sleepSwitches, want)
	}
}

// TestContinuationEndsAtOnce checks that a call whose first step ends it
// returns from Park in the same slot, without an event of its own.
func TestContinuationEndsAtOnce(t *testing.T) {
	e := NewEngine()
	var log []string
	e.Spawn("a", func(p *Proc) {
		p.Park(&stepper{log: &log})
		log = append(log, "returned")
	})
	n, err := e.Run(Infinity)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || !slices.Equal(log, []string{"a@0", "returned"}) || e.Switches() != 2 {
		t.Fatalf("events %d, log %v, switches %d; want 1 event, [a@0 returned], 2 switches", n, log, e.Switches())
	}
}

// futureStep parks its process on a future until the future completes,
// counting the steps it runs.
type futureStep struct {
	f     *Future
	steps int
}

func (s *futureStep) Continue(p *Proc) bool {
	s.steps++
	return !s.f.Enlist(p, "op")
}

// TestContinuationKilled checks that Kill and KillLive unwind a process
// parked behind a continuation from its Park, running its deferred calls
// and never the continuation again.
func TestContinuationKilled(t *testing.T) {
	for _, how := range []string{"Kill", "KillLive"} {
		t.Run(how, func(t *testing.T) {
			base := runtime.NumGoroutine()
			e := NewEngine()
			s := &futureStep{f: NewFuture(e)}
			unwound, returned := false, false
			p := e.Spawn("victim", func(p *Proc) {
				defer func() { unwound = true }()
				p.Park(s)
				returned = true
			})
			if how == "Kill" {
				e.At(5, p.Kill)
				if _, err := e.Run(Infinity); err != nil {
					t.Fatal(err)
				}
			} else {
				var dl *DeadlockError
				if _, err := e.Run(Infinity); !errors.As(err, &dl) {
					t.Fatalf("Run err = %v, want a deadlock", err)
				}
				if dl.Blocked[0] != "victim (op)" {
					t.Fatalf("deadlock report %v, want victim (op)", dl.Blocked)
				}
				e.KillLive()
			}
			if !p.Done() || !unwound || returned || s.steps != 1 {
				t.Fatalf("done %v, unwound %v, returned %v, steps %d; want an unwind after one step",
					p.Done(), unwound, returned, s.steps)
			}
			waitGoroutines(t, base)
		})
	}
}

// TestContinuationReleased checks that Future.Release wakes a process
// parked on the future by a continuation: its next step runs at the
// release instant, with the future still incomplete.
func TestContinuationReleased(t *testing.T) {
	e := NewEngine()
	f := NewFuture(e)
	var at Time
	var released bool
	p := e.Spawn("waiter", func(p *Proc) {
		p.Park(&releaseStep{f: f, released: &released})
		at = p.Now()
	})
	e.At(7, func() {
		if !f.Release(p) {
			t.Error("Release missed the parked process")
		}
	})
	if _, err := e.Run(Infinity); err != nil {
		t.Fatal(err)
	}
	if !released || at != 7 || f.IsDone() {
		t.Fatalf("released %v at %v (future done %v), want a release at 7", released, at, f.IsDone())
	}
}

// releaseStep enlists its process on f in its first step and ends the
// call at the next wakeup, noting whether f was still incomplete.
type releaseStep struct {
	f        *Future
	released *bool
	enlisted bool
}

func (s *releaseStep) Continue(p *Proc) bool {
	if !s.enlisted {
		s.enlisted = true
		return !s.f.Enlist(p, "op")
	}
	*s.released = !s.f.IsDone()
	return true
}
