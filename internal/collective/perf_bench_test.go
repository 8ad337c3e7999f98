package collective

import (
	"runtime"
	"testing"
	"time"

	"pacc/internal/mpi"
	"pacc/internal/simtime"
)

// Hot-path gates of the simulation core itself. The 8x8 1 MiB allreduce
// measures allocations per simulated collective on the paper's testbed
// shape (TestHotPathAllocBudget, deterministic, tier-1), and its
// benchmark plus the 4096-rank runs measure raw event throughput at the
// cluster scale the power schemes target (host-timed, so they run only
// under -bench, in CI's bench-guard job, and fail below their floors).
//
// The budgets change only in a reviewed commit, measured on a known-good
// checkout with
//
//	go test ./internal/collective -run '^$' -bench 'HotPathAllreduce8x8_1MiB|Scale4096' -benchtime 1x -benchmem -count 1
//
// Set events/sec floors to ~25% of measured: CI machines are slow and
// noisy, and the floors catch order-of-magnitude regressions, not
// jitter. Set the allocation ceiling ~5% above measured: counts are
// deterministic, so the margin only absorbs runtime and compiler drift.
// Never regenerate them on a branch whose performance is being gated.
const (
	hotPathMaxAllocs         = 7800
	hotPathMinEventsPerSec   = 400_000
	scale4096MinEventsPerSec = 40_000
)

// perfConfig shapes a job of procs ranks at ppn per node.
func perfConfig(procs, ppn int) mpi.Config {
	cfg := mpi.DefaultConfig()
	cfg.NProcs = procs
	cfg.PPN = ppn
	cfg.Topo.Nodes = procs / ppn
	return cfg
}

// runCollective builds a world, runs iters barrier-separated calls of
// the collective on every rank, and returns the engine's executed event
// count plus the wall-clock time spent inside Engine.Run.
func runCollective(tb testing.TB, cfg mpi.Config, iters int, bytes int64,
	call func(c *mpi.Comm, bytes int64, opt Options) error) (int, time.Duration) {
	tb.Helper()
	w, err := mpi.NewWorld(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	var callErr error
	w.Launch(func(r *mpi.Rank) {
		c := mpi.CommWorld(r)
		for i := 0; i < iters; i++ {
			Barrier(c)
			if err := call(c, bytes, Options{}); err != nil && callErr == nil {
				callErr = err
			}
		}
	})
	start := time.Now()
	executed, err := w.Engine().Run(simtime.Infinity)
	elapsed := time.Since(start)
	if err != nil {
		tb.Fatal(err)
	}
	if callErr != nil {
		tb.Fatal(callErr)
	}
	return executed, elapsed
}

// runHotPath is the hot-path gate workload: the paper's 8-node x 8-rank
// testbed running ten 1 MiB topology-aware allreduces in one world.
// Allocations are dominated by the per-message and per-flow hot paths.
func runHotPath(tb testing.TB) (int, time.Duration) {
	return runCollective(tb, perfConfig(64, 8), 10, 1<<20, AllreduceTopoAware)
}

// TestHotPathAllocBudget holds the hot-path workload to
// hotPathMaxAllocs allocations per run.
func TestHotPathAllocBudget(t *testing.T) {
	allocs := testing.AllocsPerRun(1, func() { runHotPath(t) })
	if allocs > hotPathMaxAllocs {
		t.Errorf("hot-path 8x8 1 MiB allreduce: %.0f allocs/run, ceiling %d", allocs, hotPathMaxAllocs)
	}
}

// benchmarkEventRate runs the workload b.N times, reports executed
// events per second of wall time spent in the engine, and fails the
// benchmark when that rate falls below floor.
func benchmarkEventRate(b *testing.B, floor float64, workload func(testing.TB) (int, time.Duration)) {
	b.ReportAllocs()
	var events int
	var inRun time.Duration
	for i := 0; i < b.N; i++ {
		ev, el := workload(b)
		events += ev
		inRun += el
	}
	eps := float64(events) / inRun.Seconds()
	b.ReportMetric(eps, "events/sec")
	if eps < floor {
		b.Errorf("%.0f events/sec, floor %.0f", eps, floor)
	}
}

// BenchmarkHotPathAllreduce8x8_1MiB gates the hot-path workload at
// hotPathMinEventsPerSec.
func BenchmarkHotPathAllreduce8x8_1MiB(b *testing.B) {
	benchmarkEventRate(b, hotPathMinEventsPerSec, runHotPath)
}

// BenchmarkScale4096AllreduceRD gates a 4096-rank recursive-doubling
// allreduce (512 nodes x 8 ranks), the scale at which large power
// studies operate, at scale4096MinEventsPerSec.
func BenchmarkScale4096AllreduceRD(b *testing.B) {
	benchmarkEventRate(b, scale4096MinEventsPerSec, func(tb testing.TB) (int, time.Duration) {
		return runCollective(tb, perfConfig(4096, 8), 1, 4<<10, AllreduceRD)
	})
}

// BenchmarkScale4096AllgatherRD gates the allgather side at the same
// shape and floor.
func BenchmarkScale4096AllgatherRD(b *testing.B) {
	benchmarkEventRate(b, scale4096MinEventsPerSec, func(tb testing.TB) (int, time.Duration) {
		return runCollective(tb, perfConfig(4096, 8), 1, 1<<10, AllgatherRD)
	})
}

// barrierMaxAllocsPerMessage bounds the heap allocations of a warm
// barrier per message it sends. It is a structural bound, not a
// calibrated floor: every per-message object (request, mailbox entry,
// future, flow, completion arm) is pooled, so a warm barrier allocates
// only when a pool or a queue first grows past its earlier peak.
const barrierMaxAllocsPerMessage = 0.05

// secondBarrierAllocs builds a world of procs ranks (8 per node) whose
// ranks run two barriers a virtual second apart, runs the first one,
// and returns the heap allocations and messages (payload and control)
// of the second, which finds every pool warm.
func secondBarrierAllocs(tb testing.TB, procs int) (allocs, msgs uint64) {
	tb.Helper()
	w, err := mpi.NewWorld(perfConfig(procs, 8))
	if err != nil {
		tb.Fatal(err)
	}
	w.Launch(func(r *mpi.Rank) {
		c := mpi.CommWorld(r)
		Barrier(c)
		r.Idle(simtime.Second)
		Barrier(c)
	})
	eng := w.Engine()
	// Every rank leaves the first barrier within microseconds, so at
	// half a second all of them are idling before the second.
	if _, err := eng.Run(simtime.Time(0).Add(simtime.Second / 2)); err != nil {
		tb.Fatal(err)
	}
	stats0 := w.Stats()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if _, err := eng.Run(simtime.Infinity); err != nil {
		tb.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	stats1 := w.Stats()
	msgs = uint64(stats1.Messages() + stats1.Control - stats0.Messages() - stats0.Control)
	return m1.Mallocs - m0.Mallocs, msgs
}

// checkBarrierAllocs fails tb when the second barrier of a procs-rank
// world allocates more than barrierMaxAllocsPerMessage per message.
func checkBarrierAllocs(tb testing.TB, procs int) {
	tb.Helper()
	allocs, msgs := secondBarrierAllocs(tb, procs)
	if msgs == 0 {
		tb.Fatal("the second barrier sent no messages")
	}
	per := float64(allocs) / float64(msgs)
	tb.Logf("%d-rank barrier: %d allocs over %d messages (%.3f per message)", procs, allocs, msgs, per)
	if per > barrierMaxAllocsPerMessage {
		tb.Errorf("%d-rank barrier: %.3f allocs per message, bound %g", procs, per, barrierMaxAllocsPerMessage)
	}
}

// TestBarrierAllocsPerMessage holds a warm 1024-rank barrier to
// barrierMaxAllocsPerMessage.
func TestBarrierAllocsPerMessage(t *testing.T) {
	checkBarrierAllocs(t, 1024)
}

// BenchmarkBarrier65536 holds a warm barrier at 65536 ranks (8192 nodes
// x 8) to the same per-message bound, the scale where a per-message
// allocation costs seconds of GC.
func BenchmarkBarrier65536(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		checkBarrierAllocs(b, 65536)
	}
}
