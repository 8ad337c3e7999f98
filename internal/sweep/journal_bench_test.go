package sweep

import (
	"context"
	"testing"
	"time"
)

// benchReqs builds n unique, fast, real requests: the overhead gate
// measures the journal against genuine simulation work, not an empty
// runner, because that is the ratio operators actually pay.
func benchReqs(n int) []Request {
	out := make([]Request, n)
	for i := range out {
		out[i] = Request{
			Op: "allreduce", Procs: 8, PPN: 4,
			Bytes: int64(1024 * (i + 1)), Mode: "no-power", Iters: 1,
		}
	}
	return out
}

// submitAllSequential drives the worst case for group commit: one
// client, no concurrency to share fsyncs with, every accept paying its
// own flush.
func submitAllSequential(tb testing.TB, svc *Service, reqs []Request) {
	tb.Helper()
	for _, req := range reqs {
		tk, err := svc.Submit(req)
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := tk.Result(); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkJournalOverheadBudget gates the healthy-path cost of durable
// acks. Both arms run the same unique requests through real simulation
// on a fresh store; the journaled arm adds the accepted-record fsync
// per submit. Min-of-5 interleaved trials; the 0.5 budget is
// deliberately loose because CI disks vary wildly in fsync latency —
// the gate exists to catch the journal accidentally landing on the
// execution path (which shows up as 2-10x, not 1.5x), not to benchmark
// the disk. Host-timed, so it runs only under -bench (CI's bench-guard
// job).
func BenchmarkJournalOverheadBudget(b *testing.B) {
	const budget = 0.5
	reqs := benchReqs(24)
	cfg := Config{Workers: 2, QueueDepth: 64}

	plainTrial := func() time.Duration {
		store, _, err := OpenStore(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		svc := NewService(store, cfg)
		defer svc.Close()
		start := time.Now()
		submitAllSequential(b, svc, reqs)
		return time.Since(start)
	}
	journaledTrial := func() time.Duration {
		svc, err := OpenService(b.TempDir(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		defer svc.Close()
		if err := svc.WaitReady(context.Background()); err != nil {
			b.Fatal(err)
		}
		start := time.Now()
		submitAllSequential(b, svc, reqs)
		return time.Since(start)
	}

	for n := 0; n < b.N; n++ {
		plain, journaled := time.Duration(1<<62), time.Duration(1<<62)
		for i := 0; i < 5; i++ { // interleaved so ambient noise hits both arms
			plain = min(plain, plainTrial())
			journaled = min(journaled, journaledTrial())
		}
		overhead := float64(journaled)/float64(plain) - 1
		b.ReportMetric(float64(plain.Microseconds()), "plain-us")
		b.ReportMetric(float64(journaled.Microseconds()), "journaled-us")
		b.ReportMetric(overhead, "overhead")
		if overhead > budget {
			b.Errorf("journaled submit overhead %.4f exceeds the %.2f budget (plain %v, journaled %v)",
				overhead, budget, plain, journaled)
		}
	}
}
