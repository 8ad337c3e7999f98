package simtime

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestDurationOf(t *testing.T) {
	cases := []struct {
		secs float64
		want Duration
	}{
		{0, 0},
		{-1, 0},
		{1e-9, 1},
		{1, Second},
		{0.5, 500 * Millisecond},
		{1e-6, Microsecond},
	}
	for _, c := range cases {
		if got := DurationOf(c.secs); got != c.want {
			t.Errorf("DurationOf(%v) = %v, want %v", c.secs, got, c.want)
		}
	}
}

func TestTimeArithmetic(t *testing.T) {
	t0 := Time(1000)
	t1 := t0.Add(500)
	if t1 != 1500 {
		t.Fatalf("Add: got %d", t1)
	}
	if d := t1.Sub(t0); d != 500 {
		t.Fatalf("Sub: got %d", d)
	}
	if s := Time(2_500_000_000).Seconds(); s != 2.5 {
		t.Fatalf("Seconds: got %v", s)
	}
	if us := Duration(1500).Micros(); us != 1.5 {
		t.Fatalf("Micros: got %v", us)
	}
}

func TestMicrosRoundTrip(t *testing.T) {
	f := func(us uint16) bool {
		d := Micros(float64(us))
		return d == Duration(us)*Microsecond
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEventOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	// Same-time events must run in scheduling order.
	e.At(20, func() { order = append(order, 4) })
	n, err := e.Run(Infinity)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("executed %d events, want 4", n)
	}
	want := []int{1, 2, 4, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %v, want 30", e.Now())
	}
}

func TestRunLimit(t *testing.T) {
	e := NewEngine()
	ran := false
	e.At(1000, func() { ran = true })
	if _, err := e.Run(500); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("event past limit ran")
	}
	if e.Now() != 500 {
		t.Fatalf("clock = %v, want 500", e.Now())
	}
	// Continuing past the limit runs the event.
	if _, err := e.Run(Infinity); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("event did not run on continued Run")
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		e.At(50, func() {})
	})
	if _, err := e.Run(Infinity); err != nil {
		t.Fatal(err)
	}
}

func TestProcSleep(t *testing.T) {
	e := NewEngine()
	var wakeups []Time
	e.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(10 * Microsecond)
			wakeups = append(wakeups, p.Now())
		}
	})
	if _, err := e.Run(Infinity); err != nil {
		t.Fatal(err)
	}
	want := []Time{Time(10 * Microsecond), Time(20 * Microsecond), Time(30 * Microsecond)}
	if len(wakeups) != 3 {
		t.Fatalf("wakeups = %v", wakeups)
	}
	for i := range want {
		if wakeups[i] != want[i] {
			t.Fatalf("wakeups = %v, want %v", wakeups, want)
		}
	}
}

func TestProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var log []string
		for i := 0; i < 3; i++ {
			name := fmt.Sprintf("p%d", i)
			d := Duration(i+1) * Microsecond
			e.Spawn(name, func(p *Proc) {
				for j := 0; j < 3; j++ {
					p.Sleep(d)
					log = append(log, fmt.Sprintf("%s@%d", name, p.Now()))
				}
			})
		}
		if _, err := e.Run(Infinity); err != nil {
			t.Fatal(err)
		}
		return log
	}
	a, b := run(), run()
	if len(a) != 9 {
		t.Fatalf("log length %d, want 9", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic run: %v vs %v", a, b)
		}
	}
}

func TestCondBroadcast(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	var woke []string
	for _, name := range []string{"a", "b", "c"} {
		n := name
		e.Spawn(n, func(p *Proc) {
			c.Wait(p, "test cond")
			woke = append(woke, n)
		})
	}
	e.Spawn("waker", func(p *Proc) {
		p.Sleep(5 * Microsecond)
		if c.Waiters() != 3 {
			t.Errorf("waiters = %d, want 3", c.Waiters())
		}
		c.Broadcast()
	})
	if _, err := e.Run(Infinity); err != nil {
		t.Fatal(err)
	}
	if len(woke) != 3 || woke[0] != "a" || woke[1] != "b" || woke[2] != "c" {
		t.Fatalf("woke = %v", woke)
	}
}

func TestCondSignalWakesOne(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	woke := 0
	e.Spawn("w1", func(p *Proc) { c.Wait(p, "x"); woke++ })
	e.Spawn("w2", func(p *Proc) { c.Wait(p, "x"); woke++ })
	e.Spawn("sig", func(p *Proc) {
		p.Sleep(Microsecond)
		c.Signal()
	})
	_, err := e.Run(Infinity)
	if err == nil {
		t.Fatal("expected deadlock error for the unsignaled waiter")
	}
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("error %v is not DeadlockError", err)
	}
	if woke != 1 {
		t.Fatalf("woke = %d, want 1", woke)
	}
	if len(dl.Blocked) != 1 {
		t.Fatalf("blocked = %v, want exactly one", dl.Blocked)
	}
}

func TestFuture(t *testing.T) {
	e := NewEngine()
	f := NewFuture(e)
	var sawDone []Time
	for i := 0; i < 2; i++ {
		e.Spawn(fmt.Sprintf("waiter%d", i), func(p *Proc) {
			f.Await(p, "future")
			sawDone = append(sawDone, p.Now())
		})
	}
	e.Spawn("completer", func(p *Proc) {
		p.Sleep(7 * Microsecond)
		f.Complete()
	})
	// A late waiter must pass straight through.
	e.Spawn("late", func(p *Proc) {
		p.Sleep(20 * Microsecond)
		f.Await(p, "late")
		sawDone = append(sawDone, p.Now())
	})
	if _, err := e.Run(Infinity); err != nil {
		t.Fatal(err)
	}
	if !f.IsDone() || f.CompletedAt() != Time(7*Microsecond) {
		t.Fatalf("future state: done=%v at=%v", f.IsDone(), f.CompletedAt())
	}
	if len(sawDone) != 3 {
		t.Fatalf("sawDone = %v", sawDone)
	}
	if sawDone[0] != Time(7*Microsecond) || sawDone[1] != Time(7*Microsecond) {
		t.Fatalf("early waiters woke at %v", sawDone[:2])
	}
	if sawDone[2] != Time(20*Microsecond) {
		t.Fatalf("late waiter woke at %v", sawDone[2])
	}
}

// TestFutureWakeAndCallbackOrder: Complete wakes waiters in arrival
// order and then runs callbacks in chaining order, the first of each
// (held inline) before the queued rest.
func TestFutureWakeAndCallbackOrder(t *testing.T) {
	e := NewEngine()
	f := NewFuture(e)
	var order []string
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("w%d", i)
		e.Spawn(name, func(p *Proc) {
			f.Await(p, "future")
			order = append(order, name)
		})
	}
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("cb%d", i)
		f.Then(func() { order = append(order, name) })
	}
	e.At(5, f.Complete)
	if _, err := e.Run(Infinity); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(order, " "), "w0 w1 w2 cb0 cb1 cb2"; got != want {
		t.Fatalf("order %q, want %q", got, want)
	}
}

// TestFutureResetLivePanics: resetting a future that still has a parked
// waiter or a pending callback would strand them, so it panics.
func TestFutureResetLivePanics(t *testing.T) {
	e := NewEngine()
	f := NewFuture(e)
	f.Then(func() {})
	defer func() {
		if recover() == nil {
			t.Error("expected panic on Reset of a future with a pending callback")
		}
	}()
	f.Reset()
}

// TestFireAfterOrder: a handler event keeps its scheduling slot among
// plain callbacks at the same instant.
func TestFireAfterOrder(t *testing.T) {
	e := NewEngine()
	var order []string
	e.After(3, func() { order = append(order, "a") })
	e.FireAfter(3, recordHandler{&order})
	e.After(3, func() { order = append(order, "b") })
	if _, err := e.Run(Infinity); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, " "); got != "a h b" {
		t.Fatalf("order %q, want %q", got, "a h b")
	}
}

type recordHandler struct{ order *[]string }

func (h recordHandler) Fire() { *h.order = append(*h.order, "h") }

func TestFutureDoubleCompletePanics(t *testing.T) {
	e := NewEngine()
	f := NewFuture(e)
	f.Complete()
	defer func() {
		if recover() == nil {
			t.Error("expected panic on double Complete")
		}
	}()
	f.Complete()
}

func TestDeadlockReportNamesProcs(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	e.Spawn("stuck-proc", func(p *Proc) { c.Wait(p, "never signaled") })
	_, err := e.Run(Infinity)
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("got %v, want deadlock", err)
	}
	if len(dl.Blocked) != 1 || dl.Blocked[0] != "stuck-proc (never signaled)" {
		t.Fatalf("blocked = %q", dl.Blocked)
	}
}

func TestStop(t *testing.T) {
	e := NewEngine()
	count := 0
	e.At(10, func() { count++; e.Stop() })
	e.At(20, func() { count++ })
	if _, err := e.Run(Infinity); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("count = %d, want 1 (stopped)", count)
	}
	if _, err := e.Run(Infinity); err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Fatalf("count = %d after resume, want 2", count)
	}
}

func TestSpawnDuringRun(t *testing.T) {
	e := NewEngine()
	var childRan bool
	e.Spawn("parent", func(p *Proc) {
		p.Sleep(Microsecond)
		e.Spawn("child", func(q *Proc) {
			q.Sleep(Microsecond)
			childRan = true
		})
		p.Sleep(5 * Microsecond)
	})
	if _, err := e.Run(Infinity); err != nil {
		t.Fatal(err)
	}
	if !childRan {
		t.Fatal("child spawned mid-run did not execute")
	}
}

// Property: any mix of sleeps always finishes with the clock at the max
// completion time and never errors.
func TestSleepMatrixProperty(t *testing.T) {
	f := func(seed uint8) bool {
		e := NewEngine()
		var maxEnd Duration
		for i := 0; i < 5; i++ {
			total := Duration((int(seed)+i*37)%97+1) * Microsecond
			if total > maxEnd {
				maxEnd = total
			}
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				remaining := total
				step := Duration(int(seed)%5+1) * Microsecond
				for remaining > 0 {
					s := step
					if s > remaining {
						s = remaining
					}
					p.Sleep(s)
					remaining -= s
				}
			})
		}
		if _, err := e.Run(Infinity); err != nil {
			return false
		}
		return e.Now() == Time(maxEnd)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestProcPanicSurfacesAsError: a panicking process must not hang the
// engine; Run returns a ProcPanicError naming it.
func TestProcPanicSurfacesAsError(t *testing.T) {
	e := NewEngine()
	e.Spawn("bomber", func(p *Proc) {
		p.Sleep(Microsecond)
		panic("boom")
	})
	survived := false
	e.Spawn("bystander", func(p *Proc) {
		p.Sleep(10 * Microsecond)
		survived = true
	})
	_, err := e.Run(Infinity)
	var pp *ProcPanicError
	if !errors.As(err, &pp) {
		t.Fatalf("want ProcPanicError, got %v", err)
	}
	if pp.Proc != "bomber" || pp.Value != "boom" {
		t.Fatalf("wrong panic report: %+v", pp)
	}
	// The engine stops at the panic instant; the bystander never runs
	// to completion.
	if survived {
		t.Fatal("engine kept running after a process panic")
	}
}

// TestRecvMismatchPanicPropagates: at the mpi level a size-mismatched
// receive panics; via the engine it must surface, not hang (covered here
// at the simtime level with a nested panic inside an event resume).
func TestPanicDuringResume(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	e.Spawn("waiter", func(p *Proc) {
		c.Wait(p, "x")
		panic(42)
	})
	e.Spawn("signaler", func(p *Proc) {
		p.Sleep(Microsecond)
		c.Broadcast()
	})
	_, err := e.Run(Infinity)
	var pp *ProcPanicError
	if !errors.As(err, &pp) {
		t.Fatalf("want ProcPanicError, got %v", err)
	}
	if pp.Value != 42 {
		t.Fatalf("panic value %v", pp.Value)
	}
}

// TestInstantsMatchesMap drives the instant index through random puts and
// deletes on clustered instants, so probe chains collide and wrap, and
// checks every lookup against a Go map.
func TestInstantsMatchesMap(t *testing.T) {
	x := instants{slots: make([]*bucket, 16)}
	ref := map[Time]*bucket{}
	var live []Time
	rng := uint64(1)
	next := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int(rng>>33) % n
	}
	for step := 0; step < 20000; step++ {
		if len(live) > 0 && next(3) == 0 {
			i := next(len(live))
			at := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			x.del(at)
			delete(ref, at)
		} else if at := Time(next(200)); ref[at] == nil {
			b := &bucket{at: at}
			x.put(b)
			ref[at] = b
			live = append(live, at)
		}
		for at := Time(0); at < 200; at++ {
			if got, want := x.get(at), ref[at]; got != want {
				t.Fatalf("step %d: get(%d) = %v, want %v", step, at, got, want)
			}
		}
	}
	if x.n != len(ref) {
		t.Fatalf("index holds %d instants, want %d", x.n, len(ref))
	}
}
