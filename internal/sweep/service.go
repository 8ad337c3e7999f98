package sweep

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"sync"
	"time"

	"pacc/internal/obs"
)

// Config tunes a Service. Zero values select the documented defaults.
type Config struct {
	// Workers is the pool size (default 4).
	Workers int
	// QueueDepth bounds the admission queue; a full queue sheds new
	// submissions with OverloadedError (default 64). Retries of
	// already-accepted requests re-enter past the bound — admission is
	// the only gate, accepted work is never shed.
	QueueDepth int
	// TenantQuota caps how many jobs one tenant may have queued or
	// running; beyond it submissions shed with QuotaExceededError
	// (0 = unlimited). Dedupe attaches ride free: they consume no
	// worker capacity.
	TenantQuota int
	// MaxAttempts is the failure budget per request before quarantine
	// (default 3). Worker kills do not count: being shot is the
	// service's fault, not the request's.
	MaxAttempts int
	// RetryBackoff is the base of the exponential retry delay
	// (default 2ms; attempt n waits base << (n-1), capped at base<<6).
	RetryBackoff time.Duration
	// RequestTimeout is the per-request execution deadline, threaded
	// into the simulation as a context deadline (0 = none).
	RequestTimeout time.Duration
	// Run executes requests (default Simulate).
	Run RunFunc
	// SegmentRecords rotates journal segments after this many records
	// (default DefaultSegmentRecords; only meaningful via OpenService).
	SegmentRecords int
	// CrashHook, when non-nil, is consulted at every durability
	// boundary (see CrashAccept..CrashResolve); returning true kills
	// the daemon on the spot, exactly as SIGKILL would. Chaos only.
	CrashHook func(point string, key Key) bool
	// HoldRecovery, when non-nil, parks journal replay until the
	// channel closes, keeping the service observably "recovering".
	// Test hook only.
	HoldRecovery <-chan struct{}
}

// Crash-point names, the durability boundaries a chaos CrashHook can
// fire at. Ordered along a request's life:
//
//	accept      admission granted, accepted record NOT yet journaled
//	journal     accepted record durable, ack not yet returned
//	start       lease journaled, execution not yet begun
//	store-write result in the store, completed record not yet journaled
//	resolve     completed record journaled, tickets not yet resolved
const (
	CrashAccept     = "accept"
	CrashJournal    = "journal"
	CrashStart      = "start"
	CrashStoreWrite = "store-write"
	CrashResolve    = "resolve"
)

// CrashPoints lists every boundary in order (chaos schedules index it).
var CrashPoints = []string{CrashAccept, CrashJournal, CrashStart, CrashStoreWrite, CrashResolve}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 2 * time.Millisecond
	}
	if c.Run == nil {
		c.Run = Simulate
	}
	return c
}

// errWorkerKilled is the cancel cause distinguishing "your worker was
// shot" from a request's own deadline or error: the former requeues
// free of charge, the latter burns an attempt.
var errWorkerKilled = errors.New("sweep: worker killed")

// errDaemonKilled is the cancel cause when the whole daemon dies
// abruptly (chaos kill -9): nothing is journaled, nothing resolves
// normally, and recovery on the next incarnation owes the work.
var errDaemonKilled = errors.New("sweep: daemon killed")

// job is one execution: the unit of dedupe, retry and quarantine. Many
// tickets may ride one job.
type job struct {
	req       Request
	key       Key
	attempts  int
	completed bool
	result    []byte
	err       error
	done      chan struct{}
	// lease is the journaled worker lease currently executing the job
	// (0 when queued); recovered marks a job re-enqueued from the
	// journal rather than a live Submit.
	lease     uint64
	recovered bool
	// enqueued stamps the job's latest entry into the queue (submit,
	// retry or recovery requeue); the dequeue observes the wait.
	enqueued time.Time
}

// Ticket is one submission's handle on its (possibly shared) job.
type Ticket struct{ j *job }

// Key returns the request's content address.
func (t *Ticket) Key() Key { return t.j.key }

// Done is closed when the result (or a terminal error) is ready.
func (t *Ticket) Done() <-chan struct{} { return t.j.done }

// Result blocks until the job resolves and returns the payload or the
// typed terminal error.
func (t *Ticket) Result() ([]byte, error) {
	<-t.j.done
	return t.j.result, t.j.err
}

// Wait is Result bounded by ctx.
func (t *Ticket) Wait(ctx context.Context) ([]byte, error) {
	select {
	case <-t.j.done:
		return t.j.result, t.j.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

type worker struct {
	id     int
	dying  bool
	cancel context.CancelCauseFunc // cancels the current job's context; nil when idle
}

// Service shards run requests across a worker pool over a persistent
// result store. Failure is the normal case: workers crash and are
// restarted, poisoned requests are quarantined, corrupt store entries
// are evicted and recomputed, and overload is shed with typed errors.
// All methods are safe for concurrent use.
type Service struct {
	cfg   Config
	store *Store
	// wal is the durable ack journal (nil for in-memory services built
	// with NewService; set by OpenService).
	wal *WAL
	// bus is the service's own telemetry (wall-clock side): queue
	// depth, shed counters, retry histograms, dedupe hit-rate.
	bus *obs.Bus

	mu         sync.Mutex
	cond       *sync.Cond
	queue      []*job
	inflight   map[Key]*job
	tenantLoad map[string]int
	quarantine map[Key]*QuarantinedError
	workers    map[int]*worker
	nextWorker int
	// idem maps client idempotency keys onto content keys, rebuilt
	// from the journal at recovery.
	idem map[string]Key
	// leaseSeq numbers worker leases, monotone across restarts (seeded
	// past the journal's max at recovery).
	leaseSeq uint64
	// draining sheds new admissions while already-accepted work runs to
	// completion (Shutdown); closed is the abrupt stop that fails
	// everything still pending (Close); killed is the abrupt death of
	// the whole daemon (chaos kill -9): journal frozen, no shed
	// records, pending tickets torn with KilledError.
	draining bool
	closed   bool
	killed   bool

	// ready is closed once journal replay finishes (immediately for
	// NewService); Submit sheds RecoveringError until then.
	ready     chan struct{}
	recReport *RecoveryReport

	workerWG sync.WaitGroup
	jobWG    sync.WaitGroup
}

// NewService starts a service over store (which may be nil for a
// purely in-memory, restart-amnesiac service; tests use that). For a
// journaled, crash-recoverable service use OpenService.
func NewService(store *Store, cfg Config) *Service {
	s := newService(store, nil, cfg)
	close(s.ready) // no journal, nothing to replay
	return s
}

func newService(store *Store, wal *WAL, cfg Config) *Service {
	s := &Service{
		cfg:        cfg.withDefaults(),
		store:      store,
		wal:        wal,
		bus:        obs.NewMetricsBus(nil),
		inflight:   map[Key]*job{},
		tenantLoad: map[string]int{},
		quarantine: map[Key]*QuarantinedError{},
		workers:    map[int]*worker{},
		idem:       map[string]Key{},
		ready:      make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	s.bus.SetHistBuckets(HistAttempts, []float64{1, 2, 3, 4, 5, 8, 16})
	s.bus.SetHistBuckets(HistQueueWaitSecs, obs.SpanDurationBuckets)
	s.bus.SetHistBuckets(HistExecuteSecs, obs.SpanDurationBuckets)
	s.mu.Lock()
	for i := 0; i < s.cfg.Workers; i++ {
		s.startWorkerLocked()
	}
	s.mu.Unlock()
	return s
}

// Bus exposes the telemetry bus (tests and the stats endpoint).
func (s *Service) Bus() *obs.Bus { return s.bus }

// Store returns the backing store (nil for in-memory services).
func (s *Service) Store() *Store { return s.store }

// WriteStats exports the telemetry snapshot as deterministic-schema
// metrics JSON.
func (s *Service) WriteStats(w io.Writer) error { return s.bus.WriteMetricsJSON(w) }

// DedupeHitRate reports hits/(hits+misses) across store and in-flight
// dedupe (0 before any submission).
func (s *Service) DedupeHitRate() float64 {
	hits := s.bus.Counter(CtrDedupeStore) + s.bus.Counter(CtrDedupeInflight)
	total := hits + s.bus.Counter(CtrDedupeMiss)
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// Submit admits one request. The fast paths return a completed ticket
// (store hit) or attach to an identical in-flight job; otherwise the
// request passes admission control — tenant quota, then queue bound —
// and joins the queue. Shed requests receive typed errors
// (*QuotaExceededError, *OverloadedError) and cost nothing.
func (s *Service) Submit(req Request) (*Ticket, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	key := req.Key()

	s.mu.Lock()
	if ok, err := s.admissibleLocked(key); !ok {
		s.mu.Unlock()
		return nil, err
	}
	// Idempotency fast path: a known Idem either attaches to its
	// in-flight job or falls through to the store lookup (terminal).
	if req.Idem != "" {
		if have, ok := s.idem[req.Idem]; ok {
			if have != key {
				s.mu.Unlock()
				return nil, &IdemConflictError{Idem: req.Idem, Have: have, Got: key}
			}
			if j := s.inflight[key]; j != nil {
				s.bus.Add(CtrDedupeIdem, 1)
				s.mu.Unlock()
				return &Ticket{j: j}, nil
			}
		}
	}
	s.mu.Unlock()

	// Store lookup happens outside the lock (it is disk I/O). The
	// window against a concurrent completion is benign: worst case the
	// same deterministic computation runs once more and produces the
	// same bytes.
	if s.store != nil {
		payload, err := s.store.Get(key)
		if err != nil {
			var ce *CorruptEntryError
			if !errors.As(err, &ce) {
				return nil, err
			}
			// The entry was evicted on read; recompute below.
			s.bus.Add(CtrStoreEvictions, 1)
		}
		if payload != nil {
			s.bus.Add(CtrDedupeStore, 1)
			j := &job{req: req, key: key, completed: true, result: payload,
				done: make(chan struct{})}
			close(j.done)
			return &Ticket{j: j}, nil
		}
	}

	s.mu.Lock()
	if ok, err := s.admissibleLocked(key); !ok {
		s.mu.Unlock()
		return nil, err
	}
	if j := s.inflight[key]; j != nil {
		s.bus.Add(CtrDedupeInflight, 1)
		if req.Idem != "" {
			s.idem[req.Idem] = key
		}
		s.mu.Unlock()
		return &Ticket{j: j}, nil
	}
	if s.cfg.TenantQuota > 0 && s.tenantLoad[req.Tenant] >= s.cfg.TenantQuota {
		s.bus.Add(CtrShedQuota, 1)
		s.mu.Unlock()
		return nil, &QuotaExceededError{Tenant: req.Tenant, Limit: s.cfg.TenantQuota}
	}
	if len(s.queue) >= s.cfg.QueueDepth {
		s.bus.Add(CtrShedOverload, 1)
		s.mu.Unlock()
		return nil, &OverloadedError{Depth: s.cfg.QueueDepth}
	}
	// Reserve the admission slot before the journal fsync so a
	// concurrent duplicate attaches instead of double-accepting.
	j := &job{req: req, key: key, done: make(chan struct{})}
	s.inflight[key] = j
	s.tenantLoad[req.Tenant]++
	if req.Idem != "" {
		s.idem[req.Idem] = key
	}
	s.jobWG.Add(1)
	s.mu.Unlock()

	// Durability boundary: the ack below is a promise the journal must
	// back. Crash-point "accept" models dying before the record lands
	// (nothing acked, nothing owed); "journal" models dying after (the
	// record is durable, recovery owes the client this result even
	// though the ack never made it back).
	if s.crashAt(CrashAccept, key) {
		return nil, &KilledError{Key: key, Point: CrashAccept}
	}
	if s.wal != nil {
		err := s.wal.Append(WALRecord{
			Type: RecAccepted, Key: key.String(), Req: &req, Idem: req.Idem,
		}, true)
		if err != nil {
			s.mu.Lock()
			killed := s.killed
			s.mu.Unlock()
			if killed || errors.Is(err, ErrWALFrozen) {
				return nil, &KilledError{Key: key}
			}
			// Journal write failed on a live daemon: roll the
			// reservation back and refuse the ack we cannot back.
			s.fail(j, err)
			return nil, err
		}
		s.bus.Add(CtrJournalRecords, 1)
	}
	if s.crashAt(CrashJournal, key) {
		return nil, &KilledError{Key: key, Point: CrashJournal}
	}

	s.mu.Lock()
	if s.killed {
		s.mu.Unlock()
		return nil, &KilledError{Key: key}
	}
	if s.closed {
		s.mu.Unlock()
		s.fail(j, &ShutdownError{Key: key})
		return nil, &ShutdownError{Key: key}
	}
	s.enqueueLocked(j)
	s.bus.Add(CtrAccepted, 1)
	s.bus.Add(CtrDedupeMiss, 1)
	s.mu.Unlock()
	return &Ticket{j: j}, nil
}

// admissibleLocked gates every Submit entry: the daemon must be alive,
// ready (journal replay done), not draining, and the key not poisoned.
func (s *Service) admissibleLocked(key Key) (bool, error) {
	if s.killed {
		return false, &KilledError{Key: key}
	}
	if s.closed || s.draining {
		s.bus.Add(CtrShedDraining, 1)
		return false, &ShutdownError{Key: key}
	}
	select {
	case <-s.ready:
	default:
		s.bus.Add(CtrShedRecovering, 1)
		return false, &RecoveringError{}
	}
	if qe := s.quarantine[key]; qe != nil {
		return false, qe
	}
	return true, nil
}

// crashAt consults the chaos hook at a durability boundary. When the
// hook fires the daemon dies on the spot — journal frozen, workers
// abandoned, pending tickets torn — exactly as SIGKILL would land
// between the two instructions. Callers unwind with KilledError.
func (s *Service) crashAt(point string, key Key) bool {
	if s.cfg.CrashHook == nil || !s.cfg.CrashHook(point, key) {
		return false
	}
	s.Kill()
	return true
}

// SubmitBatch admits a batch, returning one ticket-or-error per
// request, index-aligned.
func (s *Service) SubmitBatch(reqs []Request) ([]*Ticket, []error) {
	tickets := make([]*Ticket, len(reqs))
	errs := make([]error, len(reqs))
	for i, r := range reqs {
		tickets[i], errs[i] = s.Submit(r)
	}
	return tickets, errs
}

func (s *Service) enqueueLocked(j *job) {
	j.enqueued = time.Now()
	s.queue = append(s.queue, j)
	s.bus.Add(CtrQueueDepth, 1)
	s.cond.Signal()
}

func (s *Service) startWorkerLocked() *worker {
	w := &worker{id: s.nextWorker}
	s.nextWorker++
	s.workers[w.id] = w
	s.workerWG.Add(1)
	go s.workerLoop(w)
	return w
}

func (s *Service) workerLoop(w *worker) {
	defer s.workerWG.Done()
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed && !s.killed && !w.dying {
			s.cond.Wait()
		}
		if s.closed || s.killed || w.dying {
			s.workerExitedLocked(w)
			s.mu.Unlock()
			return
		}
		j := s.queue[0]
		s.queue = s.queue[1:]
		s.bus.Add(CtrQueueDepth, -1)
		s.bus.Observe(HistQueueWaitSecs, time.Since(j.enqueued).Seconds())
		s.leaseSeq++
		j.lease = s.leaseSeq
		attempt := j.attempts + 1
		ctx, cancel := context.WithCancelCause(context.Background())
		w.cancel = cancel
		s.mu.Unlock()

		// Journal the lease (async: losing it only widens replay back
		// to the accepted record), then honor the "start" crash point —
		// SIGKILL between taking the lease and doing the work.
		if s.wal != nil {
			if err := s.wal.Append(WALRecord{
				Type: RecStarted, Key: j.key.String(), Lease: j.lease, Attempt: attempt,
			}, false); err == nil {
				s.bus.Add(CtrJournalRecords, 1)
			}
		}
		if s.crashAt(CrashStart, j.key) {
			cancel(errDaemonKilled)
			continue // loop observes killed and exits
		}

		s.execute(w, j, ctx, cancel)
	}
}

// workerExitedLocked retires w and, unless the service is closing or
// the daemon is dead, starts a replacement: a killed worker is a
// fault, not a downsize.
func (s *Service) workerExitedLocked(w *worker) {
	delete(s.workers, w.id)
	if !s.closed && !s.killed && w.dying {
		s.startWorkerLocked()
		s.bus.Add(CtrWorkerRestarts, 1)
	}
}

// runGuarded invokes the runner with crash containment: a panicking
// request surfaces as a typed WorkerCrashError instead of taking the
// process down.
func (s *Service) runGuarded(ctx context.Context, req Request) (res []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &WorkerCrashError{Value: r}
		}
	}()
	return s.cfg.Run(ctx, req)
}

func (s *Service) execute(w *worker, j *job, ctx context.Context, cancel context.CancelCauseFunc) {
	runCtx := ctx
	var cancelTimeout context.CancelFunc
	if s.cfg.RequestTimeout > 0 {
		runCtx, cancelTimeout = context.WithTimeout(ctx, s.cfg.RequestTimeout)
	}
	start := time.Now()
	s.bus.Add(CtrExecutions, 1)
	res, err := s.runGuarded(runCtx, j.req)
	s.bus.Observe(HistExecuteSecs, time.Since(start).Seconds())
	if cancelTimeout != nil {
		cancelTimeout()
	}
	cancel(nil)

	if _, crashed := errAs[*WorkerCrashError](err); crashed {
		s.bus.Add(CtrWorkerCrashes, 1)
	}

	s.mu.Lock()
	w.cancel = nil
	killed := context.Cause(ctx) == errWorkerKilled
	daemonDead := s.killed || context.Cause(ctx) == errDaemonKilled
	lease := j.lease
	s.mu.Unlock()
	if daemonDead {
		// kill -9 landed mid-run: no store write, no journal record,
		// no resolution. The next incarnation replays from accepted.
		return
	}

	switch {
	case err == nil:
		// Persist before resolving tickets: a result a client has seen
		// must survive a daemon restart, or "restart then resubmit"
		// could recompute and — on a nondeterministic regression —
		// contradict it. Put is atomic; failure leaves a clean miss.
		if s.store != nil {
			if perr := s.store.Put(j.key, res); perr != nil {
				s.fail(j, perr)
				return
			}
		}
		// "store-write": dead after the result landed but before the
		// completed record — recovery must dedupe against the store
		// instead of re-running. "resolve": dead after the completed
		// record — recovery marks the key terminal, clients re-attach.
		if s.crashAt(CrashStoreWrite, j.key) {
			return
		}
		if s.wal != nil {
			if werr := s.wal.Append(WALRecord{
				Type: RecCompleted, Key: j.key.String(), Lease: lease,
			}, false); werr == nil {
				s.bus.Add(CtrJournalRecords, 1)
			}
		}
		if s.crashAt(CrashResolve, j.key) {
			return
		}
		s.complete(j, res)
	case killed:
		// The worker was shot mid-request. Not the request's fault:
		// requeue with no attempt charged.
		s.bus.Add(CtrRetries, 1)
		s.requeueNow(j)
	default:
		s.retryOrQuarantine(j, err)
	}
}

// errAs is errors.As with the target allocated for the caller.
func errAs[T error](err error) (T, bool) {
	var t T
	ok := errors.As(err, &t)
	return t, ok
}

func (s *Service) retryOrQuarantine(j *job, err error) {
	s.mu.Lock()
	if j.completed {
		// Already resolved (a Close failed it mid-run); don't let the
		// stale outcome burn attempts or quarantine the key.
		s.mu.Unlock()
		return
	}
	j.attempts++
	attempts := j.attempts
	if attempts >= s.cfg.MaxAttempts {
		qe := &QuarantinedError{Key: j.key, Attempts: attempts, LastErr: err}
		s.quarantine[j.key] = qe
		s.mu.Unlock()
		s.bus.Add(CtrQuarantined, 1)
		// Terminal-without-result: journal the shed so recovery does
		// not resurrect a poison request into a fresh worker pool.
		if s.wal != nil {
			if werr := s.wal.Append(WALRecord{
				Type: RecShed, Key: j.key.String(), Reason: qe.Error(),
			}, false); werr == nil {
				s.bus.Add(CtrJournalRecords, 1)
			}
		}
		s.fail(j, qe)
		return
	}
	s.mu.Unlock()
	s.bus.Add(CtrRetries, 1)
	backoff := s.cfg.RetryBackoff << uint(min(attempts-1, 6))
	backoff += retryJitter(j.key, attempts, backoff)
	time.AfterFunc(backoff, func() { s.requeueNow(j) })
}

// retryJitter spreads concurrent retries without randomness: the jitter
// is a splitmix64 hash of the request key and the attempt number,
// bounded to half the exponential backoff. Identical requests retry on
// identical schedules across daemon restarts — a reproduced failure
// replays with the same timing — while distinct keys desynchronize
// instead of thundering back in lockstep.
func retryJitter(key Key, attempt int, backoff time.Duration) time.Duration {
	if backoff <= 0 {
		return 0
	}
	x := binary.LittleEndian.Uint64(key[:8]) ^ uint64(attempt)
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return time.Duration(x % uint64(backoff/2+1))
}

// requeueNow re-enters an accepted job past the admission gate (its
// admission already happened; shedding it now would lose accepted
// work). A closed service fails it instead.
func (s *Service) requeueNow(j *job) {
	s.mu.Lock()
	if j.completed || s.killed {
		s.mu.Unlock()
		return
	}
	if s.closed {
		s.mu.Unlock()
		s.fail(j, &ShutdownError{Key: j.key})
		return
	}
	s.enqueueLocked(j)
	s.mu.Unlock()
}

// complete resolves a job exactly once with a result.
func (s *Service) complete(j *job, res []byte) { s.resolve(j, res, nil) }

// fail resolves a job exactly once with a terminal error.
func (s *Service) fail(j *job, err error) { s.resolve(j, nil, err) }

func (s *Service) resolve(j *job, res []byte, err error) {
	s.mu.Lock()
	if j.completed {
		s.mu.Unlock()
		return
	}
	j.completed = true
	j.result = res
	j.err = err
	if s.inflight[j.key] == j {
		delete(s.inflight, j.key)
	}
	s.tenantLoad[j.req.Tenant]--
	if s.tenantLoad[j.req.Tenant] <= 0 {
		delete(s.tenantLoad, j.req.Tenant)
	}
	s.mu.Unlock()

	if err == nil {
		s.bus.Add(CtrCompleted, 1)
	} else {
		s.bus.Add(CtrFailed, 1)
	}
	s.bus.Observe(HistAttempts, float64(j.attempts+1))
	close(j.done)
	s.jobWG.Done()
}

// KillWorker simulates a crash of one worker: its current request is
// torn down mid-flight (and later retried free of charge) and the
// worker goroutine exits; a replacement starts immediately. Returns
// false if the id names no live worker. The chaos harness's trigger —
// and a reasonable admin verb.
func (s *Service) KillWorker(id int) bool {
	s.mu.Lock()
	w, ok := s.workers[id]
	if !ok || w.dying {
		s.mu.Unlock()
		return false
	}
	w.dying = true
	cancel := w.cancel
	s.cond.Broadcast()
	s.mu.Unlock()
	s.bus.Add(CtrWorkerKills, 1)
	if cancel != nil {
		cancel(errWorkerKilled)
	}
	return true
}

// WorkerIDs lists the live workers (sorted order not guaranteed).
func (s *Service) WorkerIDs() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]int, 0, len(s.workers))
	for id := range s.workers {
		ids = append(ids, id)
	}
	return ids
}

// QueueDepth reports how many accepted jobs await a worker.
func (s *Service) QueueDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

// Drain blocks until every accepted job has resolved. Call after the
// last Submit; submissions racing Drain may be missed.
func (s *Service) Drain() { s.jobWG.Wait() }

// Shutdown stops the service gracefully: new submissions are shed with
// ShutdownError from the moment it is called, while everything already
// accepted — queued, running, or waiting out a retry backoff — runs to
// completion and persists as usual. It returns once the last accepted
// job has resolved and all workers have exited. Safe to call
// concurrently with Close (Close wins: pending work fails).
func (s *Service) Shutdown() {
	s.mu.Lock()
	already := s.closed || s.draining
	s.draining = true
	s.mu.Unlock()
	if !already {
		s.jobWG.Wait()
		s.Close()
		return
	}
	// Someone else is already draining or closing; just wait out the
	// workers so every Shutdown caller observes the same quiesced state.
	s.workerWG.Wait()
}

// Close stops the service abruptly — the daemon-kill of the chaos
// harness. Every unresolved job fails with a typed ShutdownError and
// running requests are canceled; completed results already persisted
// in the store survive, which is exactly what makes a restart cheap:
// resubmitting the same sweep dedupes against the store and reruns
// only what never finished. Close blocks until all workers exit.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.workerWG.Wait()
		return
	}
	s.closed = true
	pending := make([]*job, 0, len(s.inflight))
	for _, j := range s.inflight {
		pending = append(pending, j)
	}
	s.bus.Add(CtrQueueDepth, -int64(len(s.queue)))
	s.queue = nil
	var cancels []context.CancelCauseFunc
	for _, w := range s.workers {
		if w.cancel != nil {
			cancels = append(cancels, w.cancel)
		}
	}
	s.cond.Broadcast()
	s.mu.Unlock()

	for _, cancel := range cancels {
		cancel(context.Canceled)
	}
	for _, j := range pending {
		s.fail(j, &ShutdownError{Key: j.key})
	}
	s.workerWG.Wait()
	if s.wal != nil {
		s.wal.Close()
	}
}

// Kill is the in-process kill -9: the journal freezes mid-air (no shed
// records, no final sync), workers are torn down without post-
// processing, the store sees no further writes from this incarnation,
// and every pending ticket fails with KilledError so in-process
// clients unblock (the stand-in for their connection resetting). What
// Close leaves consistent, Kill leaves merely recoverable — which is
// the property the journal exists to guarantee. Idempotent.
func (s *Service) Kill() {
	s.mu.Lock()
	if s.killed || s.closed {
		s.mu.Unlock()
		return
	}
	s.killed = true
	pending := make([]*job, 0, len(s.inflight))
	for _, j := range s.inflight {
		pending = append(pending, j)
	}
	s.bus.Add(CtrQueueDepth, -int64(len(s.queue)))
	s.queue = nil
	var cancels []context.CancelCauseFunc
	for _, w := range s.workers {
		if w.cancel != nil {
			cancels = append(cancels, w.cancel)
		}
	}
	s.cond.Broadcast()
	s.mu.Unlock()

	if s.wal != nil {
		s.wal.Freeze()
	}
	for _, cancel := range cancels {
		cancel(errDaemonKilled)
	}
	for _, j := range pending {
		s.fail(j, &KilledError{Key: j.key})
	}
}

// Killed reports whether Kill has fired.
func (s *Service) Killed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.killed
}

// State names the service's lifecycle phase for readiness probes:
// "recovering" (journal replay in progress), "ready", "draining"
// (graceful shutdown), "closed", or "killed".
func (s *Service) State() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.killed:
		return "killed"
	case s.closed:
		return "closed"
	case s.draining:
		return "draining"
	}
	select {
	case <-s.ready:
		return "ready"
	default:
		return "recovering"
	}
}

// WaitReady blocks until journal replay finishes (immediately for
// services with no journal) or ctx expires.
func (s *Service) WaitReady(ctx context.Context) error {
	select {
	case <-s.ready:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Attach returns a ticket for key without submitting anything: the
// in-flight (possibly journal-recovered) job if one exists, else a
// completed ticket served from the store, else a terminal quarantine
// error, else (nil, false). This is how a client that lost its
// connection to a killed daemon re-joins its acked work after restart
// — no resubmission, recovery alone carries the request.
func (s *Service) Attach(key Key) (*Ticket, bool, error) {
	s.mu.Lock()
	if j := s.inflight[key]; j != nil {
		s.mu.Unlock()
		return &Ticket{j: j}, true, nil
	}
	qe := s.quarantine[key]
	s.mu.Unlock()
	if qe != nil {
		return nil, true, qe
	}
	if s.store != nil {
		payload, err := s.store.Get(key)
		if err != nil && !errAsBool[*CorruptEntryError](err) {
			return nil, false, err
		}
		if payload != nil {
			j := &job{key: key, completed: true, result: payload, done: make(chan struct{})}
			close(j.done)
			return &Ticket{j: j}, true, nil
		}
	}
	return nil, false, nil
}

// AttachIdem is Attach addressed by client idempotency key.
func (s *Service) AttachIdem(idem string) (*Ticket, bool, error) {
	s.mu.Lock()
	key, ok := s.idem[idem]
	s.mu.Unlock()
	if !ok {
		return nil, false, nil
	}
	return s.Attach(key)
}

// errAsBool is errors.As as a predicate.
func errAsBool[T error](err error) bool {
	var t T
	return errors.As(err, &t)
}

// Journal exposes the write-ahead journal (nil for NewService).
func (s *Service) Journal() *WAL { return s.wal }
