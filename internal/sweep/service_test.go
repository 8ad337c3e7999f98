package sweep

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// svcReq builds a valid request whose key is distinct per i.
func svcReq(tenant string, i int) Request {
	return Request{Tenant: tenant, Op: "allreduce", Procs: 8, PPN: 4, Bytes: int64(1024 + i)}
}

// countingRunner counts executions per key and returns key-derived bytes.
// A non-nil release holds every run until it is closed.
type countingRunner struct {
	mu      sync.Mutex
	runs    map[Key]int
	release chan struct{}
}

func newCountingRunner() *countingRunner {
	return &countingRunner{runs: map[Key]int{}}
}

func (c *countingRunner) run(ctx context.Context, req Request) ([]byte, error) {
	c.mu.Lock()
	c.runs[req.Key()]++
	c.mu.Unlock()
	if c.release != nil {
		select {
		case <-c.release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return []byte("result:" + req.Key().String()), nil
}

func (c *countingRunner) count(k Key) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.runs[k]
}

func TestServiceExactlyOnceUnderDuplication(t *testing.T) {
	// A nil store only dedupes requests still in flight, so hold every
	// run until all submits are in: each duplicate then arrives while its
	// original is queued or running.
	runner := newCountingRunner()
	runner.release = make(chan struct{})
	svc := NewService(nil, Config{Workers: 4, QueueDepth: 256, Run: runner.run})
	defer svc.Close()

	const uniq, dups = 8, 10
	var tickets []*Ticket
	for d := 0; d < dups; d++ {
		for i := 0; i < uniq; i++ {
			tk, err := svc.Submit(svcReq("t", i))
			if err != nil {
				t.Fatalf("submit dup %d of req %d: %v", d, i, err)
			}
			tickets = append(tickets, tk)
		}
	}
	close(runner.release)
	svc.Drain()
	for _, tk := range tickets {
		res, err := tk.Result()
		if err != nil {
			t.Fatalf("ticket %s: %v", tk.Key(), err)
		}
		if want := "result:" + tk.Key().String(); string(res) != want {
			t.Fatalf("ticket %s: got %q", tk.Key(), res)
		}
	}
	for i := 0; i < uniq; i++ {
		if n := runner.count(svcReq("t", i).Key()); n != 1 {
			t.Errorf("req %d executed %d times, want exactly 1", i, n)
		}
	}
	if rate := svc.DedupeHitRate(); rate < 0.5 {
		t.Errorf("dedupe hit rate %.2f, want > 0.5 with %dx duplication", rate, dups)
	}
}

func TestServiceRetryThenQuarantine(t *testing.T) {
	var attempts atomic.Int64
	svc := NewService(nil, Config{
		Workers: 1, MaxAttempts: 3, RetryBackoff: 100 * time.Microsecond,
		Run: func(ctx context.Context, req Request) ([]byte, error) {
			attempts.Add(1)
			return nil, fmt.Errorf("transient-looking but permanent failure")
		},
	})
	defer svc.Close()

	tk, err := svc.Submit(svcReq("t", 0))
	if err != nil {
		t.Fatal(err)
	}
	_, err = tk.Result()
	var qe *QuarantinedError
	if !errors.As(err, &qe) {
		t.Fatalf("terminal error = %v, want QuarantinedError", err)
	}
	if qe.Attempts != 3 {
		t.Fatalf("quarantined after %d attempts, want 3", qe.Attempts)
	}
	if got := attempts.Load(); got != 3 {
		t.Fatalf("runner invoked %d times, want 3", got)
	}
	// Poisoned key now fails fast without consuming a worker.
	if _, err := svc.Submit(svcReq("t", 0)); !errors.As(err, &qe) {
		t.Fatalf("resubmit of quarantined key: err = %v, want fast QuarantinedError", err)
	}
	if attempts.Load() != 3 {
		t.Fatal("quarantined resubmit reached the runner")
	}
	if n := svc.Bus().Counter(CtrRetries); n != 2 {
		t.Errorf("retry counter = %d, want 2", n)
	}
	if n := svc.Bus().Counter(CtrQuarantined); n != 1 {
		t.Errorf("quarantine counter = %d, want 1", n)
	}
}

func TestServiceWorkerCrashContainedAndRetried(t *testing.T) {
	var calls atomic.Int64
	svc := NewService(nil, Config{
		Workers: 2, MaxAttempts: 3, RetryBackoff: 100 * time.Microsecond,
		Run: func(ctx context.Context, req Request) ([]byte, error) {
			if calls.Add(1) == 1 {
				panic("simulated worker crash")
			}
			return []byte("recovered"), nil
		},
	})
	defer svc.Close()

	tk, err := svc.Submit(svcReq("t", 0))
	if err != nil {
		t.Fatal(err)
	}
	res, err := tk.Result()
	if err != nil || string(res) != "recovered" {
		t.Fatalf("after crash+retry: %q, %v", res, err)
	}
	if n := svc.Bus().Counter(CtrWorkerCrashes); n != 1 {
		t.Errorf("crash counter = %d, want 1", n)
	}
}

func TestServiceTenantQuotaShedsTyped(t *testing.T) {
	release := make(chan struct{})
	svc := NewService(nil, Config{
		Workers: 2, QueueDepth: 64, TenantQuota: 1,
		Run: func(ctx context.Context, req Request) ([]byte, error) {
			select {
			case <-release:
				return []byte("ok"), nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	})
	defer svc.Close()

	first, err := svc.Submit(svcReq("greedy", 0))
	if err != nil {
		t.Fatal(err)
	}
	_, err = svc.Submit(svcReq("greedy", 1))
	var qe *QuotaExceededError
	if !errors.As(err, &qe) || qe.Tenant != "greedy" {
		t.Fatalf("second submit: err = %v, want QuotaExceededError for greedy", err)
	}
	// Another tenant is unaffected, and a duplicate of the in-flight key
	// rides free (dedupe attach consumes no quota).
	if _, err := svc.Submit(svcReq("modest", 2)); err != nil {
		t.Fatalf("other tenant shed: %v", err)
	}
	if _, err := svc.Submit(svcReq("greedy", 0)); err != nil {
		t.Fatalf("dedupe attach charged against quota: %v", err)
	}
	close(release)
	if _, err := first.Result(); err != nil {
		t.Fatal(err)
	}
	svc.Drain()
	// Quota released on completion: the once-shed request is admissible.
	if _, err := svc.Submit(svcReq("greedy", 1)); err != nil {
		t.Fatalf("post-completion submit still shed: %v", err)
	}
	if n := svc.Bus().Counter(CtrShedQuota); n != 1 {
		t.Errorf("quota shed counter = %d, want 1", n)
	}
}

func TestServiceOverloadShedsTyped(t *testing.T) {
	release := make(chan struct{})
	svc := NewService(nil, Config{
		Workers: 1, QueueDepth: 1,
		Run: func(ctx context.Context, req Request) ([]byte, error) {
			select {
			case <-release:
				return []byte("ok"), nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	})
	defer svc.Close()

	if _, err := svc.Submit(svcReq("t", 0)); err != nil {
		t.Fatal(err)
	}
	// Worker may or may not have dequeued req 0 yet; fill until shed.
	var over *OverloadedError
	shed := false
	for i := 1; i < 5 && !shed; i++ {
		_, err := svc.Submit(svcReq("t", i))
		if errors.As(err, &over) {
			shed = true
		} else if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if !shed {
		t.Fatal("queue of depth 1 absorbed 4 extra requests without shedding")
	}
	if n := svc.Bus().Counter(CtrShedOverload); n < 1 {
		t.Errorf("overload shed counter = %d, want >= 1", n)
	}
	close(release)
	svc.Drain()
}

func TestServiceKillWorkerRequeuesFree(t *testing.T) {
	started := make(chan struct{}, 4)
	var killedOnce atomic.Bool
	svc := NewService(nil, Config{
		Workers: 1, MaxAttempts: 1, RetryBackoff: 100 * time.Microsecond,
		Run: func(ctx context.Context, req Request) ([]byte, error) {
			started <- struct{}{}
			if !killedOnce.Load() {
				<-ctx.Done() // hold the worker until the chaos kill lands
				return nil, ctx.Err()
			}
			return []byte("second life"), nil
		},
	})
	defer svc.Close()

	tk, err := svc.Submit(svcReq("t", 0))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	ids := svc.WorkerIDs()
	if len(ids) != 1 {
		t.Fatalf("worker ids = %v, want 1 live worker", ids)
	}
	killedOnce.Store(true)
	if !svc.KillWorker(ids[0]) {
		t.Fatal("KillWorker refused a live worker")
	}
	// MaxAttempts is 1: if the kill burned an attempt the job would
	// quarantine instead of completing on the replacement worker.
	res, err := tk.Result()
	if err != nil || string(res) != "second life" {
		t.Fatalf("after worker kill: %q, %v (kill must not burn an attempt)", res, err)
	}
	if n := svc.Bus().Counter(CtrWorkerRestarts); n != 1 {
		t.Errorf("restart counter = %d, want 1", n)
	}
	if got := svc.WorkerIDs(); len(got) != 1 || got[0] == ids[0] {
		t.Errorf("worker ids after kill = %v, want one fresh id != %d", got, ids[0])
	}
}

func TestServiceRequestTimeoutQuarantinesHang(t *testing.T) {
	svc := NewService(nil, Config{
		Workers: 1, MaxAttempts: 2, RetryBackoff: 100 * time.Microsecond,
		RequestTimeout: 5 * time.Millisecond,
		Run: func(ctx context.Context, req Request) ([]byte, error) {
			<-ctx.Done() // a hang, interruptible only by the deadline
			return nil, ctx.Err()
		},
	})
	defer svc.Close()

	tk, err := svc.Submit(svcReq("t", 0))
	if err != nil {
		t.Fatal(err)
	}
	_, err = tk.Result()
	var qe *QuarantinedError
	if !errors.As(err, &qe) {
		t.Fatalf("hung request: err = %v, want QuarantinedError", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("quarantine cause = %v, want DeadlineExceeded in chain", err)
	}
}

func TestServiceCloseFailsPendingTyped(t *testing.T) {
	svc := NewService(nil, Config{
		Workers: 1,
		Run: func(ctx context.Context, req Request) ([]byte, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		},
	})
	tk, err := svc.Submit(svcReq("t", 0))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { svc.Close(); close(done) }()
	_, err = tk.Result()
	var se *ShutdownError
	if !errors.As(err, &se) {
		t.Fatalf("pending ticket after Close: err = %v, want ShutdownError", err)
	}
	<-done
	if _, err := svc.Submit(svcReq("t", 1)); !errors.As(err, &se) {
		t.Fatalf("submit after Close: err = %v, want ShutdownError", err)
	}
}

func TestServiceShutdownDrainsGracefully(t *testing.T) {
	release := make(chan struct{})
	store, _, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	svc := NewService(store, Config{
		Workers: 1,
		Run: func(ctx context.Context, req Request) ([]byte, error) {
			select {
			case <-release:
				return []byte("drained"), nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	})
	req := svcReq("t", 0)
	tk, err := svc.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { svc.Shutdown(); close(done) }()

	// Admissions shed with the typed error as soon as the drain begins.
	var se *ShutdownError
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := svc.Submit(svcReq("t", 1))
		if errors.As(err, &se) {
			break
		}
		if err != nil {
			t.Fatalf("submit during drain: %v, want ShutdownError", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("drain never started shedding new submissions")
		}
		time.Sleep(100 * time.Microsecond)
	}
	select {
	case <-done:
		t.Fatal("Shutdown returned while an accepted job was still running")
	default:
	}

	// The in-flight job runs to completion, not to a ShutdownError, and
	// its result persists exactly like a normal completion.
	close(release)
	res, err := tk.Result()
	if err != nil || string(res) != "drained" {
		t.Fatalf("in-flight job during drain: %q, %v; want clean completion", res, err)
	}
	<-done
	if payload, err := store.Get(req.Key()); err != nil || !bytes.Equal(payload, res) {
		t.Fatalf("drained result not persisted: %q, %v", payload, err)
	}
	if n := svc.Bus().Counter(CtrShedDraining); n < 1 {
		t.Errorf("draining shed counter = %d, want >= 1", n)
	}
}

// A job waiting out a retry backoff is accepted work: the drain lets the
// timer fire, the requeue go through, and the retry complete.
func TestServiceShutdownWaitsForRetries(t *testing.T) {
	var calls atomic.Int64
	svc := NewService(nil, Config{
		Workers: 1, MaxAttempts: 3, RetryBackoff: 2 * time.Millisecond,
		Run: func(ctx context.Context, req Request) ([]byte, error) {
			if calls.Add(1) == 1 {
				return nil, fmt.Errorf("transient failure")
			}
			return []byte("second attempt"), nil
		},
	})
	tk, err := svc.Submit(svcReq("t", 0))
	if err != nil {
		t.Fatal(err)
	}
	svc.Shutdown()
	res, err := tk.Result()
	if err != nil || string(res) != "second attempt" {
		t.Fatalf("retrying job during drain: %q, %v; want retry to complete", res, err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("runner invoked %d times, want 2 (drain must wait out the backoff)", got)
	}
}

// Retry backoff jitter is a pure function of (key, attempt): the same
// request replays on the same schedule across daemon restarts, while
// distinct keys spread out instead of thundering back together.
func TestRetryJitterDeterministic(t *testing.T) {
	base := 2 * time.Millisecond
	k1, k2 := svcReq("t", 0).Key(), svcReq("t", 1).Key()
	diverged := false
	for attempt := 1; attempt <= 6; attempt++ {
		backoff := base << uint(attempt-1)
		j := retryJitter(k1, attempt, backoff)
		if again := retryJitter(k1, attempt, backoff); j != again {
			t.Fatalf("attempt %d: jitter %v then %v for the same key", attempt, j, again)
		}
		if j < 0 || j > backoff/2 {
			t.Fatalf("attempt %d: jitter %v outside [0, %v]", attempt, j, backoff/2)
		}
		if j != retryJitter(k2, attempt, backoff) {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("two distinct keys jittered identically on every attempt")
	}
	if retryJitter(k1, 1, 0) != 0 {
		t.Fatal("zero backoff must produce zero jitter")
	}
}

func TestServiceStoreDedupeSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	store, _, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	runner := newCountingRunner()
	svc := NewService(store, Config{Workers: 2, Run: runner.run})
	req := svcReq("t", 0)
	tk, err := svc.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	want, err := tk.Result()
	if err != nil {
		t.Fatal(err)
	}
	svc.Close()

	// "Daemon restart": fresh service over the rescavenged store. The
	// resubmitted request must be served from disk, not recomputed.
	store2, rep, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kept != 1 || rep.Corrupt != 0 {
		t.Fatalf("scavenge after clean shutdown = %+v, want 1 kept", rep)
	}
	svc2 := NewService(store2, Config{Workers: 2, Run: runner.run})
	defer svc2.Close()
	tk2, err := svc2.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tk2.Result()
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("restarted service: %q, %v; want stored %q", got, err, want)
	}
	if n := runner.count(req.Key()); n != 1 {
		t.Fatalf("runner executed %d times across restart, want 1 (store dedupe)", n)
	}
	if n := svc2.Bus().Counter(CtrDedupeStore); n != 1 {
		t.Errorf("store dedupe counter = %d, want 1", n)
	}
}

func TestServiceCorruptStoreEntryRecomputed(t *testing.T) {
	store, _, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	runner := newCountingRunner()
	svc := NewService(store, Config{Workers: 1, Run: runner.run})
	defer svc.Close()
	req := svcReq("t", 0)
	tk, _ := svc.Submit(req)
	want, err := tk.Result()
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := store.CorruptEntry(req.Key(), 7); !ok || err != nil {
		t.Fatalf("CorruptEntry: %v %v", ok, err)
	}
	tk2, err := svc.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tk2.Result()
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("recomputed result = %q, %v; want %q", got, err, want)
	}
	if n := runner.count(req.Key()); n != 2 {
		t.Fatalf("runner executed %d times, want 2 (corruption forces recompute)", n)
	}
	if n := svc.Bus().Counter(CtrStoreEvictions); n != 1 {
		t.Errorf("eviction counter = %d, want 1", n)
	}
	// The healed entry serves the next hit from disk again.
	if _, err := svc.Submit(req); err != nil {
		t.Fatal(err)
	}
	if n := runner.count(req.Key()); n != 2 {
		t.Fatalf("healed entry recomputed again: %d runs", n)
	}
}

// Every dequeue observes how long the job sat in the queue: first
// submissions and retry requeues alike.
func TestServiceQueueWaitObserved(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	var failedOnce atomic.Bool
	svc := NewService(nil, Config{
		Workers: 1, MaxAttempts: 3, RetryBackoff: 100 * time.Microsecond,
		Run: func(ctx context.Context, req Request) ([]byte, error) {
			started <- struct{}{}
			<-release
			if req.Bytes == svcReq("t", 0).Bytes && !failedOnce.Swap(true) {
				return nil, errors.New("fail the first attempt once")
			}
			return []byte("ok"), nil
		},
	})
	defer svc.Close()

	const n = 3
	var tickets []*Ticket
	for i := 0; i < n; i++ {
		tk, err := svc.Submit(svcReq("t", i))
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	// The single worker holds one request at the gate; the rest queue
	// until it opens.
	<-started
	close(release)
	for _, tk := range tickets {
		if _, err := tk.Result(); err != nil {
			t.Fatalf("ticket %s: %v", tk.Key(), err)
		}
	}
	svc.Drain()

	h := svc.Bus().Hist(HistQueueWaitSecs)
	dequeues := svc.Bus().Counter(CtrExecutions)
	if dequeues != n+1 {
		t.Fatalf("executions = %d, want %d (one retry)", dequeues, n+1)
	}
	if h.Count != dequeues {
		t.Fatalf("queue-wait observations = %d, want one per dequeue (%d)", h.Count, dequeues)
	}
	if !(h.Sum > 0) {
		t.Fatalf("queue-wait sum = %g, want > 0", h.Sum)
	}
}
