package analyze_test

import (
	"runtime"
	"syscall"
	"testing"
	"time"

	"pacc"
)

// cpuTime returns the process's accumulated user+system CPU time. Unlike
// wall clock it is immune to scheduler preemption and hypervisor steal,
// which on shared CI machines dwarf the ~1% effect being measured.
func cpuTime(tb testing.TB) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		tb.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// BenchmarkAnalyticsOverheadBudget measures the cost of one live
// streaming analytics subscriber on the 8-node × 8-rank 1 MiB allreduce
// — obs attached in both arms, analytics collector attached in one — and
// fails when it exceeds a per-event budget on process CPU time: the
// subscriber path must stay a filter branch and one append per event,
// and that shape costs a fixed handful of nanoseconds per emitted event.
// The budget is absolute rather than a percentage of the run because the
// engine's speed is a moving target — when the simulation core got ~3×
// faster, an unchanged ~15ns/event subscriber tripped a 2% ratio gate
// purely by denominator shrinkage. The ratio is reported alongside.
// Host-timed, so it runs only under -bench (CI's bench-guard job).
func BenchmarkAnalyticsOverheadBudget(b *testing.B) {
	// Measured ~115ns/event on a shared 2.1 GHz Xeon vCPU (struct copy,
	// dynamic call, filter, append, plus the GC pressure of the retained
	// events); 250ns leaves ~2× headroom for noisier machines while
	// still flagging any change that adds real work — an allocation, a
	// map touch, a second dynamic call — to the per-event path.
	const budgetNs = 250.0

	type sample struct {
		cpu    time.Duration
		events int
	}
	run := func(subscriber bool) sample {
		cfg := pacc.DefaultConfig() // 8 nodes × 8 ranks
		w, err := pacc.NewWorld(cfg)
		if err != nil {
			b.Fatal(err)
		}
		sess := pacc.AttachObs(w)
		if subscriber {
			sess.EnableAnalytics()
		}
		w.Launch(func(r *pacc.Rank) {
			c := pacc.CommWorld(r)
			for i := 0; i < 10; i++ {
				if err := pacc.Allreduce(c, 1<<20, pacc.CollectiveOptions{}); err != nil {
					b.Errorf("rank %d: %v", r.ID(), err)
				}
			}
		})
		runtime.GC()
		cpu0 := cpuTime(b)
		if _, err := w.Run(); err != nil {
			b.Fatal(err)
		}
		return sample{cpu: cpuTime(b) - cpu0, events: sess.Bus().Events()}
	}

	for n := 0; n < b.N; n++ {
		// Interleave the arms and keep each arm's fastest run: the floor
		// of a deterministic workload is its true cost, and min-of-N
		// sheds the one-sided noise (GC pauses, migrations) that remains
		// in CPU time.
		best := map[bool]sample{}
		for i := 0; i < 10; i++ {
			for _, sub := range []bool{false, true} {
				if s := run(sub); best[sub].events == 0 || s.cpu < best[sub].cpu {
					best[sub] = s
				}
			}
		}
		// Event counts are deterministic and subscribers never alter the
		// recorded state, so both arms emit the same stream.
		if best[true].events != best[false].events {
			b.Fatalf("arms emitted different event counts: %d with subscriber, %d without",
				best[true].events, best[false].events)
		}
		perEventNs := float64(best[true].cpu-best[false].cpu) / float64(best[true].events)
		b.ReportMetric(perEventNs, "ns/event")
		b.ReportMetric(float64(best[true].cpu)/float64(best[false].cpu)-1, "overhead")
		if perEventNs > budgetNs {
			b.Errorf("live-subscriber cost %.1fns/event exceeds the %.0fns budget (detached %v, subscriber %v CPU over %d events)",
				perEventNs, budgetNs, best[false].cpu, best[true].cpu, best[true].events)
		}
	}
}
