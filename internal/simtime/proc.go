//go:build go1.23

package simtime

import (
	"fmt"
	"iter"
	"slices"
)

// Proc is a cooperative simulated process: a runtime coroutine (the one
// behind iter.Pull) that runs only when the engine hands it control and
// yields back whenever it blocks on a primitive. All Proc methods must be
// called from the process's own body (inside the func passed to Spawn),
// except WakeAfter and Future.Enlist, which an armed continuation also
// calls from event context.
type Proc struct {
	eng  *Engine
	id   int
	name string
	// body is the function given to Spawn, started by the coroutine.
	body func(p *Proc)
	// resume switches into the coroutine and returns when it parks or
	// finishes; park switches back out. Both are nil until the first
	// runProc creates the coroutine.
	resume func() (struct{}, bool)
	park   func(struct{}) bool
	done   bool
	// killed marks a process condemned by Kill; its next resume unwinds
	// the body with a Killed panic instead of continuing.
	killed bool
	// cont is the continuation armed by Park (nil when none): the
	// wakeups dispatched for the process run it instead of switching
	// into the coroutine.
	cont Continuation
	// blockedOn describes what the process is waiting for; used in
	// deadlock reports.
	blockedOn string
}

// Spawn creates a process named name whose body starts executing at the
// current virtual time (when the engine reaches that event). The body runs
// on its own coroutine but is serialized with all other simulation
// activity. The coroutine is created at the process's first run, not
// here, so spawning a large world is cheap, and a process killed before
// it ever runs never gets one.
//
// A panic in the body stops the engine and Run returns it as a
// *ProcPanicError. A body that calls runtime.Goexit retires the process
// and then exits the goroutine that called Run as well: the coroutine
// hands the Goexit on to whoever resumed it.
func (e *Engine) Spawn(name string, body func(p *Proc)) *Proc {
	p := &Proc{eng: e, id: len(e.procs), name: name, body: body}
	e.procs = append(e.procs, p)
	e.wakeAt(e.now, p)
	return p
}

// run is the coroutine body: it executes the process body and retires the
// process however the body ends.
func (p *Proc) run(park func(struct{}) bool) {
	p.park = park
	defer func() {
		// A panicking process must not take the engine down with it:
		// the coroutine would hand the panic on to runProc. A kill is
		// retired silently; any other panic is surfaced as a Run error.
		if r := recover(); r != nil {
			if _, wasKilled := r.(Killed); !wasKilled {
				e := p.eng
				if e.panicErr == nil {
					e.panicErr = &ProcPanicError{Proc: p.name, Value: r}
				}
				e.stopped = true
			}
		}
		p.done = true
	}()
	p.body(p)
}

// ProcPanicError reports that a simulated process panicked; the engine
// stops at the panic instant and Run returns this error.
type ProcPanicError struct {
	Proc  string
	Value any
}

func (e *ProcPanicError) Error() string {
	return fmt.Sprintf("simtime: process %s panicked: %v", e.Proc, e.Value)
}

// Killed is the value a killed process's unwind panics with. The
// process's own recovery recognizes it and retires the process silently —
// a kill is a modeled fault (crash-stop rank failure), not a logic error,
// so it is not recorded as a ProcPanicError. Bodies that must release
// external state on a crash can recover Killed themselves and re-panic.
type Killed struct{}

// Kill condemns the process: it is resumed at the current virtual time and
// unwinds with a Killed panic at its current park point instead of
// continuing its body. An armed continuation is dropped, not run: the
// coroutine unwinds from its Park. Killing a done or already-killed
// process is a no-op. Must be called from event context (the process is
// parked).
func (p *Proc) Kill() {
	if p.done || p.killed {
		return
	}
	p.killed = true
	p.eng.wakeAt(p.eng.now, p)
}

// Continuation carries a parked process's blocking call forward in event
// context, so that a call made of several waits switches out of and back
// into the process's coroutine once, instead of once per wait.
type Continuation interface {
	// Continue runs in event context: first in the queue slot where the
	// process parked, then in the slot of each wakeup dispatched for p.
	// It either re-parks p — WakeAfter, or Future.Enlist — and returns
	// false, or returns true when the blocking call is over: the engine
	// then switches into p's coroutine in the same slot, and Park
	// returns.
	Continue(p *Proc) bool
}

// Park hands the process's blocking call to c and parks until c reports
// it over. c's first step runs as soon as the process has switched out,
// in the same queue slot, so the call's work runs on the engine's stack,
// not the coroutine's. A killed process unwinds from Park with a Killed
// panic; c is not run again.
func (p *Proc) Park(c Continuation) {
	p.cont = c
	p.yield()
}

// dispatch delivers one wakeup to p: to its armed continuation, which may
// re-park p without a switch, or else to its coroutine.
func (e *Engine) dispatch(p *Proc) {
	if c := p.cont; c != nil && !p.killed && !c.Continue(p) {
		return
	}
	e.runProc(p)
}

// runProc transfers control to p and returns when p parks again (or
// terminates). A process that parks behind a continuation has the
// continuation's first step run here, and is switched straight back into
// if that step ends the call. Must only be called from event context.
func (e *Engine) runProc(p *Proc) {
	if p.done {
		return
	}
	if p.resume == nil {
		if p.killed {
			// Condemned before its first run: retire without
			// starting the body.
			p.done = true
			return
		}
		// No stop func is needed: a started process ends only by
		// returning or unwinding out of its body.
		p.resume, _ = iter.Pull(p.run)
	}
	for {
		p.cont = nil
		e.switches++
		p.resume()
		if c := p.cont; c == nil || p.killed || !c.Continue(p) {
			return
		}
	}
}

// yield parks the process and hands control back to the engine; it returns
// when some event resumes the process. The caller has recorded what the
// process waits for in blockedOn.
func (p *Proc) yield() {
	p.park(struct{}{})
	if p.killed {
		p.blockedOn = "killed"
		panic(Killed{})
	}
	p.blockedOn = ""
}

// Engine returns the engine this process belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// Now reports the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// ID returns the process's spawn index, unique within its engine.
func (p *Proc) ID() int { return p.id }

// Done reports whether the process body has returned.
func (p *Proc) Done() bool { return p.done }

// Sleep blocks the process for d of virtual time. Zero or negative d
// still yields, letting events scheduled for the current instant run.
func (p *Proc) Sleep(d Duration) {
	p.WakeAfter(d)
	p.yield()
}

// WakeAfter schedules the process's next wakeup d from now (negative d
// means now) without parking it: the re-park a continuation step makes
// in place of Sleep.
func (p *Proc) WakeAfter(d Duration) {
	if d < 0 {
		d = 0
	}
	p.eng.wakeAt(p.eng.now.Add(d), p)
	p.blockedOn = "sleep"
}

func (p *Proc) describe() string {
	if p.blockedOn == "" {
		return p.name
	}
	return p.name + " (" + p.blockedOn + ")"
}

// Cond is a broadcast-style condition variable for simulated processes.
// Unlike sync.Cond there is no associated lock: the simulation is already
// serialized, so Wait/Signal/Broadcast need no further synchronization.
type Cond struct {
	eng     *Engine
	waiters []*Proc
}

// NewCond returns a condition bound to engine e.
func NewCond(e *Engine) *Cond { return &Cond{eng: e} }

// Wait parks the calling process until a subsequent Signal or Broadcast.
func (c *Cond) Wait(p *Proc, reason string) {
	c.waiters = append(c.waiters, p)
	p.blockedOn = reason
	p.yield()
}

// Signal wakes the longest-waiting process, if any. The wakeup is
// delivered as an event at the current time, after the caller next yields.
func (c *Cond) Signal() {
	if len(c.waiters) == 0 {
		return
	}
	p := c.waiters[0]
	c.waiters = c.waiters[1:]
	c.eng.wakeAt(c.eng.now, p)
}

// Broadcast wakes every waiting process in FIFO order. The wakeups are
// enqueued as one batch: releasing N waiters costs one bucket append
// run, not N heap inserts.
func (c *Cond) Broadcast() {
	// wakeAllAt copies the procs into the event bucket synchronously,
	// so the waiters slice can be truncated in place and its capacity
	// reused by the next round of waiters.
	c.eng.wakeAllAt(c.eng.now, c.waiters)
	c.waiters = c.waiters[:0]
}

// Waiters reports how many processes are parked on the condition.
func (c *Cond) Waiters() int { return len(c.waiters) }

// Future is a one-shot completion: processes can wait on it, and exactly
// one Complete call releases them all (and all future waiters return
// immediately). Event-context code can chain work with Then.
type Future struct {
	eng  *Engine
	done bool
	at   Time
	// waiter and cb hold the first waiter and the first callback inline,
	// so the common future — one waiter, one callback — allocates
	// nothing; later ones queue behind them in cond and callbacks. While
	// waiter (cb) is nil, cond (callbacks) is empty.
	waiter    *Proc
	cond      Cond
	cb        func()
	callbacks []func()
}

// NewFuture returns an incomplete future bound to engine e.
func NewFuture(e *Engine) *Future {
	f := new(Future)
	f.Init(e)
	return f
}

// Init binds a zero Future — typically one embedded in a larger pooled
// object — to engine e, leaving it incomplete.
func (f *Future) Init(e *Engine) {
	f.eng = e
	f.cond.eng = e
}

// GetFuture returns a recycled (or fresh) incomplete future. It is the
// pooled counterpart of NewFuture for high-churn protocol paths; pair it
// with PutFuture at a point where the future is provably unreachable.
func (e *Engine) GetFuture() *Future {
	if n := len(e.freeFuts); n > 0 {
		f := e.freeFuts[n-1]
		e.freeFuts = e.freeFuts[:n-1]
		return f
	}
	return NewFuture(e)
}

// PutFuture recycles f for a later GetFuture. The caller must guarantee
// that no other reference to f remains — a recycled future still awaited
// or chained elsewhere would complete someone else's operation. Only a
// completed future with no parked waiters is eligible; anything else
// panics, because it means the caller's liveness proof is wrong.
func (e *Engine) PutFuture(f *Future) {
	if !f.done {
		panic("simtime: PutFuture on a live future")
	}
	f.Reset()
	e.freeFuts = append(e.freeFuts, f)
}

// Reset returns f to the incomplete state for reuse by the owner of a
// pooled object that embeds it. The waiter and callback queues keep
// their capacity. A future with a parked waiter or a pending callback is
// still live, and resetting it panics.
func (f *Future) Reset() {
	if f.waiter != nil || f.cb != nil {
		panic("simtime: Reset of a live future")
	}
	f.done = false
	f.at = 0
}

// Complete marks the future done at the current virtual time and wakes all
// waiters. Completing twice panics: it indicates a logic error in the
// simulated protocol.
func (f *Future) Complete() {
	if f.done {
		panic("simtime: Future completed twice")
	}
	f.done = true
	f.at = f.eng.now
	// Waiters wake in arrival order, then callbacks run in chaining
	// order: the inline first of each, then the queued rest.
	if p := f.waiter; p != nil {
		f.waiter = nil
		f.eng.wakeAt(f.eng.now, p)
		f.cond.Broadcast()
	}
	if fn := f.cb; fn != nil {
		f.cb = nil
		f.eng.At(f.eng.now, fn)
		// Scheduling runs no callback, so nothing can append to the
		// slice while it is drained; truncating in place keeps its
		// capacity.
		for _, fn := range f.callbacks {
			f.eng.At(f.eng.now, fn)
		}
		clear(f.callbacks)
		f.callbacks = f.callbacks[:0]
	}
}

// Release takes p off the future's waiters and wakes it at the current
// time without completing the future, reporting whether p was parked
// here. It abandons one process's wait on an operation that will not
// complete for it — a wait whose peer has failed — while the future's
// other waiters keep waiting.
func (f *Future) Release(p *Proc) bool {
	ws := f.cond.waiters
	switch {
	case p == nil || p != f.waiter:
		i := slices.Index(ws, p)
		if i < 0 {
			return false
		}
		f.cond.waiters = slices.Delete(ws, i, i+1)
	case len(ws) > 0:
		f.waiter = ws[0]
		f.cond.waiters = slices.Delete(ws, 0, 1)
	default:
		f.waiter = nil
	}
	f.eng.wakeAt(f.eng.now, p)
	return true
}

// Then schedules fn to run (as an event) when the future completes; if it
// already has, fn is scheduled at the current time.
func (f *Future) Then(fn func()) {
	switch {
	case f.done:
		f.eng.At(f.eng.now, fn)
	case f.cb == nil:
		f.cb = fn
	default:
		f.callbacks = append(f.callbacks, fn)
	}
}

// IsDone reports whether Complete has been called.
func (f *Future) IsDone() bool { return f.done }

// CompletedAt returns the time Complete was called; zero if not done.
func (f *Future) CompletedAt() Time { return f.at }

// Await blocks p until the future completes; returns immediately if it
// already has.
func (f *Future) Await(p *Proc, reason string) {
	if f.Enlist(p, reason) {
		p.yield()
	}
}

// Enlist adds p to the future's waiters without parking it, reporting
// false (and enlisting nothing) when the future has already completed.
// It is the re-park a continuation step makes in place of Await.
func (f *Future) Enlist(p *Proc, reason string) bool {
	switch {
	case f.done:
		return false
	case f.waiter == nil:
		f.waiter = p
	default:
		f.cond.waiters = append(f.cond.waiters, p)
	}
	p.blockedOn = reason
	return true
}
