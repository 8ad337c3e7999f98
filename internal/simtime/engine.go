package simtime

import "fmt"

// event is one scheduled action: a plain callback (fn), a process
// wakeup (proc), or a handler (h). Keeping wakeups and handlers as raw
// values instead of closures means the scheduler's dominant event kinds —
// park/resume traffic from Sleep, Cond, Future and Kill, and flow
// completions from the network — allocate nothing per event.
type event struct {
	fn   func()
	proc *Proc
	h    Handler
}

// Handler is an event target scheduled by value: the engine calls Fire
// when the event's instant comes. A pooled object that implements
// Handler schedules itself without building a closure per event.
type Handler interface {
	Fire()
}

// bucket holds every event scheduled for one instant, in scheduling
// order. Draining happens through a cursor rather than by popping, so
// events appended to the current instant *while it executes* are seen in
// order — exactly the semantics the old (time, seq) heap gave, because
// anything scheduled during execution necessarily ordered after all
// already-pending events at the same instant.
type bucket struct {
	at   Time
	evs  []event
	next int // drain cursor: evs[:next] have executed
}

// Engine is a discrete-event simulation kernel. The zero value is not
// usable; construct with NewEngine.
//
// The pending-event structure is a calendar of per-instant buckets: a
// small binary heap orders the *distinct* scheduled instants, and each
// instant's events live in one append-only slice. Same-instant
// scheduling — the overwhelmingly common case in a message-passing
// simulation, where every send/recv/wakeup chain fans out at the current
// time — is a bounds check and an append, with no heap sift and no
// per-event allocation. Drained buckets are recycled through a free
// list, so steady-state scheduling does not allocate at all.
type Engine struct {
	now Time
	// timeQ is a binary min-heap, by instant, of the pending buckets;
	// buckets indexes the same buckets by instant, so each instant has at
	// most one.
	timeQ   []*bucket
	buckets instants
	// cur is the bucket currently being drained (cur.at == now while
	// running). It has left timeQ and buckets; same-instant scheduling
	// appends to it directly.
	cur *bucket
	// free is the bucket recycle list. Buckets keep their event-slice
	// capacity across reuse.
	free []*bucket
	// freeFuts is the Future recycle list (see GetFuture/PutFuture).
	freeFuts []*Future
	procs    []*Proc
	running  bool
	stopped  bool
	// panicErr records the first process panic; Run returns it.
	panicErr error
	// interrupt, when set, is polled between events (every
	// interruptEvery executions); a non-nil return aborts Run with that
	// error. It is the bridge to wall-clock concerns — context
	// cancellation, deadlines — that the virtual clock cannot see.
	interrupt      func() error
	interruptEvery int
	// watchLimit, when positive, arms the no-progress watchdog: if the
	// clock is about to advance more than watchLimit past the last
	// Progress() mark, Run aborts with a *WatchdogError instead of letting
	// a livelocked simulation grind on (retry timers firing forever while
	// the application makes no progress reads as "running" to every other
	// check). watchDiag, when set, contributes a diagnostic dump.
	watchLimit Duration
	watchLast  Time
	watchDiag  func() string
}

// defaultInterruptEvery bounds how many events run between interrupt
// polls. Polling has real-time cost (a context's Err takes a lock), so
// it is amortized; 256 events keeps abort latency far below a
// millisecond of host time on any workload.
const defaultInterruptEvery = 256

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine {
	return &Engine{buckets: instants{slots: make([]*bucket, 16)}}
}

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// schedule enqueues ev at instant t, preserving global (time, scheduling
// order) execution order.
func (e *Engine) schedule(t Time, ev event) {
	b := e.cur
	if b == nil || b.at != t {
		b = e.bucketAt(t)
	}
	b.evs = append(b.evs, ev)
}

// bucketAt returns the bucket of instant t: the one being drained, a
// pending one, or a new one.
func (e *Engine) bucketAt(t Time) *bucket {
	if t < e.now {
		panic(fmt.Sprintf("simtime: scheduling event at %v before now %v", t, e.now))
	}
	if cur := e.cur; cur != nil && t == cur.at {
		return cur
	}
	b := e.buckets.get(t)
	if b == nil {
		b = e.getBucket(t)
		e.buckets.put(b)
		e.pushBucket(b)
	}
	return b
}

// At schedules fn to run at time t. Scheduling in the past is an error in
// the simulation logic and panics: time only moves forward.
func (e *Engine) At(t Time, fn func()) {
	e.schedule(t, event{fn: fn})
}

// After schedules fn to run d from now. Negative d means "now".
func (e *Engine) After(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.schedule(e.now.Add(d), event{fn: fn})
}

// wakeAt schedules process p to be resumed at instant t. No closure is
// allocated; the run loop hands p to runProc directly.
func (e *Engine) wakeAt(t Time, p *Proc) {
	e.schedule(t, event{proc: p})
}

// FireAfter schedules h.Fire() to run as an event d from now (negative
// d means "now") without allocating a closure. It is the bulk-delivery
// path: a fabric completing thousands of transfers schedules its pooled
// flows, not funcs.
func (e *Engine) FireAfter(d Duration, h Handler) {
	if d < 0 {
		d = 0
	}
	e.schedule(e.now.Add(d), event{h: h})
}

// wakeAllAt schedules a wakeup for every process in ps at instant t, in
// order, growing the destination bucket once. This is the batch path
// behind Cond.Broadcast and Future.Complete: a barrier releasing
// thousands of ranks costs one slice grow, not one heap insert each.
func (e *Engine) wakeAllAt(t Time, ps []*Proc) {
	if len(ps) == 0 {
		return
	}
	b := e.bucketAt(t)
	if need := len(b.evs) + len(ps); cap(b.evs) < need {
		// Grow by at least doubling: sizing to exactly need would make a
		// stream of small broadcasts into one large instant reallocate
		// and copy the whole bucket per call — quadratic in the bucket
		// size, which at tens of thousands of same-instant wakeups
		// dominated entire runs.
		newCap := 2 * cap(b.evs)
		if newCap < need {
			newCap = need
		}
		grown := make([]event, len(b.evs), newCap)
		copy(grown, b.evs)
		b.evs = grown
	}
	for _, p := range ps {
		b.evs = append(b.evs, event{proc: p})
	}
}

// getBucket returns a recycled (or new) empty bucket stamped with t.
func (e *Engine) getBucket(t Time) *bucket {
	if n := len(e.free); n > 0 {
		b := e.free[n-1]
		e.free = e.free[:n-1]
		b.at = t
		return b
	}
	return &bucket{at: t}
}

// recycle returns a fully drained bucket to the free list. Every
// executed slot was zeroed at dispatch, so no closure or process is
// retained through the pool.
func (e *Engine) recycle(b *bucket) {
	b.evs = b.evs[:0]
	b.next = 0
	e.free = append(e.free, b)
}

// instants maps each pending instant to its bucket: open addressing with
// linear probing and backward-shift deletion. A Go map here would leave
// tombstones as instants churn past and grow at moments its random hash
// seed picks; this table grows only when the number of pending instants
// reaches a new peak.
type instants struct {
	slots []*bucket // a power of two long; nil marks a free slot
	n     int
}

func (x *instants) home(t Time) int {
	return int(uint64(t)*0x9e3779b97f4a7c15>>32) & (len(x.slots) - 1)
}

// get returns the bucket of instant t, or nil.
func (x *instants) get(t Time) *bucket {
	for i := x.home(t); x.slots[i] != nil; i = (i + 1) & (len(x.slots) - 1) {
		if x.slots[i].at == t {
			return x.slots[i]
		}
	}
	return nil
}

// put adds b, whose instant is absent.
func (x *instants) put(b *bucket) {
	if 2*(x.n+1) > len(x.slots) {
		old := x.slots
		x.slots, x.n = make([]*bucket, 2*len(old)), 0
		for _, o := range old {
			if o != nil {
				x.put(o)
			}
		}
	}
	i := x.home(b.at)
	for x.slots[i] != nil {
		i = (i + 1) & (len(x.slots) - 1)
	}
	x.slots[i] = b
	x.n++
}

// del removes instant t, which is present, and shifts back the entries
// that probed past it.
func (x *instants) del(t Time) {
	mask := len(x.slots) - 1
	i := x.home(t)
	for x.slots[i].at != t {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; x.slots[j] != nil; j = (j + 1) & mask {
		if (j-x.home(x.slots[j].at))&mask >= (j-i)&mask {
			x.slots[i] = x.slots[j]
			i = j
		}
	}
	x.slots[i] = nil
	x.n--
}

// pushBucket inserts b into the instant min-heap.
func (e *Engine) pushBucket(b *bucket) {
	q := append(e.timeQ, b)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if q[parent].at <= q[i].at {
			break
		}
		q[parent], q[i] = q[i], q[parent]
		i = parent
	}
	e.timeQ = q
}

// popBucket removes the earliest bucket from the heap.
func (e *Engine) popBucket() {
	q := e.timeQ
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && q[l].at < q[small].at {
			small = l
		}
		if r < n && q[r].at < q[small].at {
			small = r
		}
		if small == i {
			break
		}
		q[i], q[small] = q[small], q[i]
		i = small
	}
	e.timeQ = q
}

// pending reports whether any events remain queued (including an
// undrained current bucket left by Stop).
func (e *Engine) pending() bool {
	if e.cur != nil && e.cur.next < len(e.cur.evs) {
		return true
	}
	return len(e.timeQ) > 0
}

// Stop makes Run return after the currently executing event completes.
// Pending events are kept; Run may be called again to continue.
func (e *Engine) Stop() { e.stopped = true }

// Fail records err as the run's failure and stops the engine; Run returns
// the first recorded failure. Event-context code (which has no process to
// panic in) uses it to surface structured errors — an impossible network
// state, an exhausted protocol — through the same path as process panics
// and deadlock reports, instead of crashing the host process.
func (e *Engine) Fail(err error) {
	if err == nil {
		return
	}
	if e.panicErr == nil {
		e.panicErr = err
	}
	e.stopped = true
}

// Failure returns the recorded failure (a process panic or an explicit
// Fail), or nil.
func (e *Engine) Failure() error { return e.panicErr }

// SetInterrupt installs check, polled every `every` events during Run
// (every <= 0 selects the default). A non-nil return value aborts Run
// with that error, leaving pending events queued and live processes
// parked — pair with KillLive to unwind them. Pass nil to remove the
// hook. check must be safe to call from the Run goroutine; it typically
// reads a context's Err, which is synchronized by the context itself.
func (e *Engine) SetInterrupt(check func() error, every int) {
	if every <= 0 {
		every = defaultInterruptEvery
	}
	e.interrupt = check
	e.interruptEvery = every
}

// SetWatchdog arms the no-progress watchdog: if virtual time is about to
// advance more than limit past the most recent Progress() call, Run stops
// and returns a *WatchdogError carrying the blocked-process list and the
// output of diag (optional, may be nil). Unlike the deadlock report —
// which needs the event queue to drain — the watchdog catches livelock:
// events still firing (retransmission timers, heartbeats) while the
// simulated application itself is stuck. Pass limit <= 0 to disarm.
// Arming starts the progress clock at the current time.
func (e *Engine) SetWatchdog(limit Duration, diag func() string) {
	e.watchLimit = limit
	e.watchLast = e.now
	e.watchDiag = diag
}

// Progress marks application-level progress for the watchdog (a message
// delivery, a completed operation). Cheap enough to call unconditionally;
// a no-op beyond one store when the watchdog is disarmed.
func (e *Engine) Progress() { e.watchLast = e.now }

// WatchdogError reports that the simulation ran without application
// progress for longer than the armed limit.
type WatchdogError struct {
	// Now is the virtual time the watchdog fired at; LastProgress the most
	// recent progress mark; Limit the armed threshold.
	Now          Time
	LastProgress Time
	Limit        Duration
	// Blocked names the live processes parked at firing time.
	Blocked []string
	// Diag is the installed diagnostic dump ("" without one).
	Diag string
}

func (w *WatchdogError) Error() string {
	msg := fmt.Sprintf("simtime: no progress for %v (limit %v, last progress at %v, now %v): %d blocked process(es): %v",
		w.Now.Sub(w.LastProgress), w.Limit, w.LastProgress, w.Now, len(w.Blocked), w.Blocked)
	if w.Diag != "" {
		msg += "\n" + w.Diag
	}
	return msg
}

// KillLive condemns every live process and resumes each until it has
// unwound with a Killed panic from its current park point (a process that
// never started is retired without running its body). A deferred call
// that parks during the unwind is resumed again and unwinds in turn. It
// is the goroutine hygiene of an aborted run: without it, an interrupted
// simulation leaks one parked coroutine per blocked rank. Call only while
// Run is not executing; the engine is not usable for further Runs
// afterward.
func (e *Engine) KillLive() {
	if e.running {
		panic("simtime: KillLive called while Run is executing")
	}
	for _, p := range e.procs {
		p.killed = true
		for !p.done {
			e.runProc(p)
		}
	}
}

// Run executes events in timestamp order until the queue drains, Stop is
// called, or the clock passes limit (use Infinity for no limit). It returns
// the number of events executed and an error if, after the queue drained,
// live processes remain blocked (a deadlock in the simulated system).
func (e *Engine) Run(limit Time) (int, error) {
	if e.running {
		return 0, fmt.Errorf("simtime: Run called reentrantly")
	}
	e.running = true
	e.stopped = false
	defer func() { e.running = false }()

	executed := 0
	for !e.stopped {
		cur := e.cur
		if cur != nil && cur.next >= len(cur.evs) {
			e.recycle(cur)
			cur, e.cur = nil, nil
		}
		if cur == nil && len(e.timeQ) == 0 {
			break
		}
		if e.interrupt != nil && executed%e.interruptEvery == 0 {
			if err := e.interrupt(); err != nil {
				return executed, err
			}
		}
		if cur == nil {
			next := e.timeQ[0]
			t := next.at
			if t > limit {
				e.now = limit
				return executed, nil
			}
			if e.watchLimit > 0 && t.Sub(e.watchLast) > e.watchLimit {
				we := &WatchdogError{
					Now: t, LastProgress: e.watchLast, Limit: e.watchLimit,
					Blocked: e.blockedProcs(),
				}
				if e.watchDiag != nil {
					we.Diag = e.watchDiag()
				}
				return executed, we
			}
			e.popBucket()
			cur = next
			e.buckets.del(t)
			e.now = t
			e.cur = cur
		} else if cur.at > limit {
			e.now = limit
			return executed, nil
		}
		ev := cur.evs[cur.next]
		cur.evs[cur.next] = event{}
		cur.next++
		switch {
		case ev.proc != nil:
			e.runProc(ev.proc)
		case ev.h != nil:
			ev.h.Fire()
		default:
			ev.fn()
		}
		executed++
	}
	if e.panicErr != nil {
		return executed, e.panicErr
	}
	if e.stopped {
		return executed, nil
	}
	if blocked := e.blockedProcs(); len(blocked) > 0 {
		return executed, &DeadlockError{Now: e.now, Blocked: blocked}
	}
	return executed, nil
}

// blockedProcs returns the names of live processes that are still parked.
func (e *Engine) blockedProcs() []string {
	var names []string
	for _, p := range e.procs {
		if !p.done {
			names = append(names, p.describe())
		}
	}
	return names
}

// DeadlockError reports that the event queue drained while simulated
// processes were still blocked waiting for conditions nobody will signal.
type DeadlockError struct {
	Now     Time
	Blocked []string
}

func (d *DeadlockError) Error() string {
	return fmt.Sprintf("simtime: deadlock at %v: %d blocked process(es): %v",
		d.Now, len(d.Blocked), d.Blocked)
}
