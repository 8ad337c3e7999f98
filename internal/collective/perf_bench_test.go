package collective

import (
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
	hotPathMaxAllocs         = 38350
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
