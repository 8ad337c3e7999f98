package simtime

import (
	"errors"
	"runtime"
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
