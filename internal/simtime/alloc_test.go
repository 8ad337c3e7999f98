package simtime

import "testing"

// The scheduler hot paths must not allocate in steady state: event
// buckets are pooled, proc wakeups carry no closure, and the instant
// heap reuses its backing array. These guards pin that down with
// testing.AllocsPerRun so a regression fails loudly rather than
// showing up as a 4k-rank slowdown.

// TestScheduleAllocFree: scheduling callbacks across a spread of
// instants and draining them allocates nothing once the bucket pool and
// instant heap have reached steady-state capacity.
func TestScheduleAllocFree(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	cycle := func() {
		for i := 0; i < 8; i++ {
			at := e.Now().Add(Duration(i))
			for j := 0; j < 16; j++ {
				e.At(at, fn)
			}
		}
		if _, err := e.Run(Infinity); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // warm the pool and slice capacities
	allocs := testing.AllocsPerRun(10, cycle)
	if allocs != 0 {
		t.Fatalf("steady-state schedule+run allocated %.1f times per cycle, want 0", allocs)
	}
}

// TestSleepWakeupAllocFree: a process cycling through Sleep/wakeup —
// the dominant event traffic in a rank simulation — is allocation-free
// per iteration. The run is driven in bounded windows so the infinite
// sleeper never deadlocks the engine.
func TestSleepWakeupAllocFree(t *testing.T) {
	e := NewEngine()
	e.Spawn("sleeper", func(p *Proc) {
		for {
			p.Sleep(5)
		}
	})
	var limit Time
	cycle := func() {
		limit += 50
		if _, err := e.Run(limit); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // executes the spawn event and warms the wake path
	allocs := testing.AllocsPerRun(20, cycle)
	if allocs != 0 {
		t.Fatalf("sleep/wakeup window allocated %.1f times, want 0", allocs)
	}
}

// TestBroadcastBatchAllocFree: Cond.Broadcast releasing a crowd of
// waiters is allocation-free at steady state — the waiters slice and
// the wake bucket both retain their capacity across rounds.
func TestBroadcastBatchAllocFree(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	const n = 32
	for i := 0; i < n; i++ {
		e.Spawn("w", func(p *Proc) {
			for {
				c.Wait(p, "gate")
			}
		})
	}
	e.Spawn("leader", func(p *Proc) {
		for {
			p.Sleep(5)
			c.Broadcast()
		}
	})
	var limit Time
	cycle := func() {
		limit += 50
		if _, err := e.Run(limit); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	cycle()
	allocs := testing.AllocsPerRun(10, cycle)
	if allocs != 0 {
		t.Fatalf("broadcast rounds of %d waiters allocated %.1f times, want 0", n, allocs)
	}
}

// TestFutureRecycleAllocFree: a future recycled through GetFuture and
// PutFuture keeps its waiter and callback capacity, so a round with two
// waiters and two callbacks — the first of each held inline, the second
// queued — allocates nothing once warm.
func TestFutureRecycleAllocFree(t *testing.T) {
	e := NewEngine()
	var cur *Future
	fn := func() {}
	e.Spawn("leader", func(p *Proc) {
		for {
			f := e.GetFuture()
			cur = f
			f.Then(fn)
			f.Then(fn)
			p.Sleep(5)
			f.Complete()
			p.Sleep(1)
			e.PutFuture(f)
		}
	})
	for i := 0; i < 2; i++ {
		e.Spawn("waiter", func(p *Proc) {
			for {
				p.Sleep(2)
				cur.Await(p, "round")
			}
		})
	}
	var limit Time
	cycle := func() {
		limit += 60
		if _, err := e.Run(limit); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	allocs := testing.AllocsPerRun(10, cycle)
	if allocs != 0 {
		t.Fatalf("recycled-future rounds allocated %.1f times, want 0", allocs)
	}
}

// TestSpawnFirstRunAllocs pins what starting a process costs: the Proc
// and the coroutine iter.Pull builds for it at its first run (closures
// and captured state, measured at 13 with go1.24.0). A rank world pays
// this once per rank, so growth here shows up directly at 64k ranks.
func TestSpawnFirstRunAllocs(t *testing.T) {
	const want = 13
	e := NewEngine()
	e.procs = make([]*Proc, 0, 128) // keep slice growth out of the count
	body := func(p *Proc) { p.Sleep(1) }
	cycle := func() {
		e.Spawn("p", body)
		if _, err := e.Run(Infinity); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != want {
		t.Fatalf("spawn + first run allocated %.1f times, want %d", allocs, want)
	}
}
