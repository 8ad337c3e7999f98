package sweep

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// SoakOptions tunes one chaos campaign (see Soak).
type SoakOptions struct {
	// Dir is the service directory (required; store + journal persist
	// across every daemon kill in the campaign).
	Dir string
	// Seed drives the deterministic chaos schedule (which workers die,
	// which entries are corrupted, where the daemon crashes, how the
	// offered load is shuffled).
	Seed uint64
	// Offered is the total number of submissions (default 200). The
	// request population is two overlapping grids, so offered load
	// carries heavy duplication — the dedupe workload.
	Offered int
	// Workers is the pool size (default 4).
	Workers int
	// QueueDepth bounds the admission queue. The default, Offered/16,
	// guarantees offered load far exceeds capacity so shedding is
	// exercised, not just possible.
	QueueDepth int
	// Kills is how many worker kills to inject (default 6).
	Kills int
	// Corruptions is how many store-corruption injections (default 6).
	Corruptions int
	// Restart, when true (the default via the CLI), kills the daemon
	// abruptly mid-campaign — kill -9, not a drain — at seeded
	// durability boundaries, and requires journal recovery alone to
	// finish every acked request: clients re-attach, they do not
	// resubmit. Crashes sets how many such kills (default 3).
	Restart bool
	Crashes int
	// Timeout bounds the whole campaign (default 3m).
	Timeout time.Duration
	// Log, when non-nil, receives progress lines.
	Log func(format string, args ...any)
}

// SoakReport is the campaign's outcome. Violations empty = pass.
type SoakReport struct {
	Offered        int
	UniqueKeys     int
	Shed           int
	Kills          int
	Corruptions    int
	StoreEvictions int64
	DaemonRestarts int
	// CrashPoints counts where the seeded kill -9s landed
	// (accept/journal/start/store-write/resolve).
	CrashPoints map[string]int
	// Recovered counts requests the journal re-enqueued or repaired
	// across all restarts — the work a crash used to drop.
	Recovered int
	// ResubmitExecutions is the negative control: executions caused by
	// resubmitting the whole campaign after recovery finished. Must be
	// zero — recovery alone, not client resubmission, completes work.
	ResubmitExecutions int64
	// LiveSegments is the journal segment count after the final
	// graceful drain (compaction bound: <= 2).
	LiveSegments  int
	DedupeHitRate float64
	Violations    []string
}

// Ok reports whether every invariant held.
func (r *SoakReport) Ok() bool { return len(r.Violations) == 0 }

func (o SoakOptions) withDefaults() SoakOptions {
	if o.Offered <= 0 {
		o.Offered = 200
	}
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = max(o.Offered/16, 4)
	}
	if o.Kills < 0 {
		o.Kills = 0
	} else if o.Kills == 0 {
		o.Kills = 6
	}
	if o.Corruptions == 0 {
		o.Corruptions = 6
	}
	if o.Restart && o.Crashes <= 0 {
		o.Crashes = 3
	}
	if !o.Restart {
		o.Crashes = 0
	}
	if o.Timeout <= 0 {
		o.Timeout = 3 * time.Minute
	}
	return o
}

type soakRNG struct{ x uint64 }

func (r *soakRNG) next() uint64 {
	r.x += 0x9e3779b97f4a7c15
	z := r.x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *soakRNG) intn(n int) int { return int(r.next() % uint64(n)) }

// soakPopulation builds the offered load: two overlapping grids of
// small, fast simulations, cycled and shuffled to the offered count.
// The overlap plus the cycling guarantees a dedupe hit-rate well above
// the 30% acceptance bar once the store warms. Every index gets its
// own client idempotency key, so a client that cannot tell whether an
// ack landed (the daemon died under the submit) can safely retry.
func soakPopulation(r *soakRNG, offered int) []Request {
	gridA := Grid{
		Tenant: "team-a",
		Ops:    []string{"allreduce", "allgather_ring", "bcast_binomial"},
		Sizes:  []int64{1 << 10, 2 << 10, 4 << 10},
		Seeds:  []uint64{1, 2},
		Procs:  8, PPN: 4, Iters: 1,
	}
	gridB := gridA // overlaps A on two of three sizes
	gridB.Tenant = "team-b"
	gridB.Sizes = []int64{2 << 10, 4 << 10, 8 << 10}
	pool := append(gridA.Expand(), gridB.Expand()...)
	out := make([]Request, offered)
	for i := range out {
		out[i] = pool[i%len(pool)]
	}
	// Fisher-Yates under the campaign seed: interleave tenants and
	// duplicates so the dedupe and quota paths see realistic mixes.
	for i := len(out) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	for i := range out {
		out[i].Idem = fmt.Sprintf("soak-%d", i)
	}
	return out
}

// crashSchedule arms a Config.CrashHook with a seeded plan: for each
// budgeted kill, wait out a countdown of boundary events, then die at
// the first occurrence of the chosen boundary point. Deterministic in
// the seed up to goroutine interleaving — which is the point: the
// crash lands wherever the race actually is.
type crashSchedule struct {
	mu        sync.Mutex
	countdown int
	point     string
	remaining int
	rng       *soakRNG
	fired     map[string]int
}

func newCrashSchedule(seed uint64, crashes int) *crashSchedule {
	cs := &crashSchedule{
		remaining: crashes,
		rng:       &soakRNG{x: seed ^ 0x2545f4914f6cdd1d},
		fired:     map[string]int{},
	}
	cs.arm()
	return cs
}

func (cs *crashSchedule) arm() {
	if cs.remaining <= 0 {
		return
	}
	cs.countdown = 8 + cs.rng.intn(48)
	cs.point = CrashPoints[cs.rng.intn(len(CrashPoints))]
}

// hook is the Config.CrashHook.
func (cs *crashSchedule) hook(point string, key Key) bool {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.remaining <= 0 {
		return false
	}
	if cs.countdown > 0 {
		cs.countdown--
		return false
	}
	if point != cs.point {
		return false // wait for the chosen boundary to come around
	}
	cs.remaining--
	cs.fired[point]++
	cs.arm()
	return true
}

// disarm ends the chaos window: any unspent crash budget is dropped so
// the verification phases (healing pass, negative control, compaction
// check) run against a daemon that stays up.
func (cs *crashSchedule) disarm() {
	cs.mu.Lock()
	cs.remaining = 0
	cs.mu.Unlock()
}

func (cs *crashSchedule) firedPoints() map[string]int {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	out := make(map[string]int, len(cs.fired))
	for k, v := range cs.fired {
		out[k] = v
	}
	return out
}

// counterRollup accumulates bus counters across daemon incarnations.
type counterRollup struct {
	mu     sync.Mutex
	totals map[string]int64
}

func (cr *counterRollup) fold(s *Service) {
	cr.mu.Lock()
	defer cr.mu.Unlock()
	if cr.totals == nil {
		cr.totals = map[string]int64{}
	}
	for _, name := range []string{
		CtrDedupeStore, CtrDedupeInflight, CtrDedupeIdem, CtrDedupeMiss,
		CtrStoreEvictions, CtrWorkerKills, CtrExecutions,
		CtrRecoveryRequeued, CtrRecoveryFromStore,
	} {
		cr.totals[name] += s.Bus().Counter(name)
	}
}

func (cr *counterRollup) get(name string) int64 {
	cr.mu.Lock()
	defer cr.mu.Unlock()
	return cr.totals[name]
}

// Soak runs the service-level chaos campaign: offered load far above
// capacity, worker kills, store corruption, and — with Restart —
// seeded kill -9s of the whole daemon at durability boundaries
// (accept/journal/start/store-write/resolve), then checks the contract
// that justifies all the machinery:
//
//   - every acked request completes across any number of daemon
//     crashes with NO client resubmission: after a restart the client
//     re-attaches to its acked work (journal recovery re-enqueued it)
//     and the bytes match a clean serial run;
//   - a submission the daemon died under (ack unknown) is safely
//     retried by idempotency key — never lost, never double-accepted,
//     never double-resolved;
//   - shed requests fail with typed Overloaded/QuotaExceeded errors
//     and succeed on client retry;
//   - corruption is never served: a damaged entry is evicted and
//     recomputed, and the recomputed bytes match the baseline;
//   - the resubmit path is a pure negative control: re-offering the
//     whole campaign after recovery causes zero executions;
//   - journal compaction holds: <= 2 live segments after the final
//     graceful drain;
//   - the dedupe hit-rate over the overlapping grids clears 30%.
//
// Violations are collected, not panicked, so the CI job can print them
// all.
func Soak(opt SoakOptions) (*SoakReport, error) {
	opt = opt.withDefaults()
	if opt.Dir == "" {
		return nil, fmt.Errorf("sweep: soak needs a store dir")
	}
	logf := opt.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	rep := &SoakReport{Offered: opt.Offered, CrashPoints: map[string]int{}}
	violate := func(format string, args ...any) {
		rep.Violations = append(rep.Violations, fmt.Sprintf(format, args...))
	}
	r := &soakRNG{x: opt.Seed ^ 0xda3e39cb94b95bdb}
	reqs := soakPopulation(r, opt.Offered)
	keys := make([]Key, len(reqs))
	for i := range reqs {
		keys[i] = reqs[i].Key()
	}

	// Clean serial baseline: one plain Simulate per unique key, no
	// service anywhere near it.
	baseline := map[Key][]byte{}
	for i, req := range reqs {
		if _, ok := baseline[keys[i]]; ok {
			continue
		}
		payload, err := Simulate(context.Background(), req)
		if err != nil {
			return nil, fmt.Errorf("sweep: serial baseline for %s: %w", keys[i], err)
		}
		baseline[keys[i]] = payload
	}
	rep.UniqueKeys = len(baseline)
	logf("soak: %d offered over %d unique keys, baseline done", opt.Offered, rep.UniqueKeys)

	crashes := newCrashSchedule(opt.Seed, opt.Crashes)
	cfg := Config{
		Workers:      opt.Workers,
		QueueDepth:   opt.QueueDepth,
		TenantQuota:  max(opt.QueueDepth/2, 2),
		MaxAttempts:  5,
		RetryBackoff: 500 * time.Microsecond,
		CrashHook:    crashes.hook,
	}
	deadline := time.Now().Add(opt.Timeout)
	rollup := &counterRollup{}

	open := func() (*Service, error) {
		svc, err := OpenService(opt.Dir, cfg)
		if err != nil {
			return nil, err
		}
		ctx, cancel := context.WithDeadline(context.Background(), deadline)
		defer cancel()
		recRep, err := svc.RecoveryReport(ctx)
		if err != nil {
			return nil, fmt.Errorf("sweep: recovery never finished: %w", err)
		}
		rep.Recovered += recRep.Requeued + recRep.FromStore
		logf("soak: daemon up (scavenged %d corrupt/%d torn; journal %d records, %d truncated; "+
			"requeued %d, repaired-from-store %d)",
			recRep.Scavenge.Corrupt, recRep.Scavenge.Torn,
			recRep.Journal.Records, recRep.Journal.Truncated,
			recRep.Requeued, recRep.FromStore)
		return svc, nil
	}
	svc, err := open()
	if err != nil {
		return nil, err
	}
	var svcMu sync.Mutex // guards svc across daemon restarts
	current := func() *Service {
		svcMu.Lock()
		defer svcMu.Unlock()
		return svc
	}

	var shed, killsDone, corruptionsDone atomic.Int64
	stopChaos := make(chan struct{})
	var chaosWG sync.WaitGroup

	// Chaos injector: kills workers and corrupts store entries while
	// the sweep is in flight. Daemon kills are NOT injected here —
	// those fire at seeded durability boundaries via the CrashHook.
	chaosWG.Add(1)
	go func() {
		defer chaosWG.Done()
		cr := &soakRNG{x: opt.Seed ^ 0xa0761d6478bd642f}
		bkeys := make([]Key, 0, len(baseline))
		for k := range baseline {
			bkeys = append(bkeys, k)
		}
		for {
			select {
			case <-stopChaos:
				return
			case <-time.After(2 * time.Millisecond):
			}
			s := current()
			if int(killsDone.Load()) < opt.Kills {
				if ids := s.WorkerIDs(); len(ids) > 0 {
					if s.KillWorker(ids[cr.intn(len(ids))]) {
						killsDone.Add(1)
					}
				}
			}
			if int(corruptionsDone.Load()) < opt.Corruptions && len(bkeys) > 0 {
				k := bkeys[cr.intn(len(bkeys))]
				// Corrupt through the current incarnation's store so the
				// daemon restart (which swaps stores) stays race-free.
				if ok, _ := s.Store().CorruptEntry(k, uint(cr.next()%4096)); ok {
					corruptionsDone.Add(1)
				}
			}
		}
	}()

	// Per-index client ledger. acked[i] is set the moment Submit
	// returns a ticket — from that point on the request must complete
	// without resubmission. resolutions[i] counts terminal outcomes
	// the client observed (>1 is a duplicate-resolution violation).
	acked := make([]*Ticket, len(reqs))
	done := make([]bool, len(reqs))
	resolutions := make([]int, len(reqs))
	verify := func(i int, key Key, payload []byte, err error) {
		if err != nil {
			violate("request %d (%s): terminal error: %v", i, key, err)
			return
		}
		if want := baseline[key]; !bytes.Equal(payload, want) {
			violate("request %d (%s): result differs from clean serial run (%d vs %d bytes)",
				i, key, len(payload), len(want))
		}
	}

	// restart replaces the dead daemon and re-attaches every acked,
	// unresolved request — by key, through Attach, with no resubmit.
	// An acked request the new daemon cannot account for is the bug
	// this whole PR exists to prevent.
	restart := func() error {
		rollup.fold(current())
		rep.DaemonRestarts++
		logf("soak: daemon killed (restart %d), reopening", rep.DaemonRestarts)
		next, err := open()
		if err != nil {
			return err
		}
		svcMu.Lock()
		svc = next
		svcMu.Unlock()
		for i := range reqs {
			if done[i] || acked[i] == nil {
				continue
			}
			t, ok, err := next.Attach(keys[i])
			if err != nil {
				violate("request %d (%s): attach after restart: %v", i, keys[i], err)
				done[i] = true
				continue
			}
			if !ok {
				violate("request %d (%s): ACKED REQUEST LOST — journal recovery does not know it",
					i, keys[i])
				done[i] = true
				continue
			}
			acked[i] = t
		}
		return nil
	}

	// submitAll walks every unacked index: shed requests retry with
	// backoff, a recovering daemon is waited out, and a KilledError —
	// the daemon died under the submit, ack unknown — leaves the index
	// unacked for an idempotent retry against the next incarnation.
	submitAll := func() (daemonDied bool) {
		for i := range reqs {
			if done[i] || acked[i] != nil {
				continue
			}
			for {
				if time.Now().After(deadline) {
					violate("request %d: campaign deadline exceeded during submit", i)
					return false
				}
				s := current()
				t, err := s.Submit(reqs[i])
				if err == nil {
					acked[i] = t
					break
				}
				switch {
				case errAsBool[*OverloadedError](err), errAsBool[*QuotaExceededError](err):
					shed.Add(1)
					time.Sleep(time.Duration(200+r.intn(400)) * time.Microsecond)
				case errAsBool[*RecoveringError](err):
					time.Sleep(time.Millisecond)
				case errAsBool[*KilledError](err):
					return true
				case errAsBool[*ShutdownError](err):
					violate("request %d: unexpected drain shed mid-campaign: %v", i, err)
					done[i] = true
					return false
				default:
					violate("request %d: unexpected submit error: %v", i, err)
					done[i] = true
					break
				}
				if done[i] {
					break
				}
			}
		}
		return false
	}

	// collect resolves every outstanding ticket. A KilledError means
	// the daemon died under the pending work: the ticket is discarded
	// but the index stays acked — restart() re-attaches it.
	collect := func() (daemonDied bool) {
		ctx, cancel := context.WithDeadline(context.Background(), deadline)
		defer cancel()
		for i := range reqs {
			if done[i] || acked[i] == nil {
				continue
			}
			payload, err := acked[i].Wait(ctx)
			if errAsBool[*KilledError](err) {
				daemonDied = true
				continue
			}
			if err != nil && ctx.Err() != nil {
				violate("request %d: campaign deadline exceeded awaiting result", i)
				return false
			}
			resolutions[i]++
			if resolutions[i] > 1 {
				violate("request %d (%s): DUPLICATE RESOLUTION (%d)", i, keys[i], resolutions[i])
			}
			verify(i, keys[i], payload, err)
			done[i] = true
		}
		return daemonDied
	}

	allDone := func() bool {
		for i := range reqs {
			if !done[i] {
				return false
			}
		}
		return true
	}

	for !allDone() && time.Now().Before(deadline) {
		died := submitAll()
		died = collect() || died
		if died || current().Killed() {
			if err := restart(); err != nil {
				return nil, err
			}
		}
	}
	if n := func() int {
		c := 0
		for i := range done {
			if !done[i] {
				c++
			}
		}
		return c
	}(); n > 0 {
		violate("%d requests never resolved before the campaign deadline", n)
	}

	close(stopChaos)
	chaosWG.Wait()
	crashes.disarm()
	if current().Killed() {
		// A crash fired on the campaign's last boundary event; bring up
		// one final incarnation for the verification phases.
		if err := restart(); err != nil {
			return nil, err
		}
		collect()
	}
	final := current()
	final.Drain()

	// Healing pass: after the chaos stops, every unique key must be
	// servable byte-identical to the baseline even where corruption
	// landed (evict-and-recompute may run here — that's the point).
	// Each key is healed once, through its first request.
	healed := make(map[Key]bool, len(baseline))
	for i, req := range reqs {
		if healed[keys[i]] {
			continue
		}
		healed[keys[i]] = true
		req.Idem = "" // pure content-address path
		t, err := final.Submit(req)
		if err != nil {
			violate("healing pass submit %s: %v", keys[i], err)
			continue
		}
		payload, err := t.Result()
		verify(-1, keys[i], payload, err)
	}
	final.Drain()

	// Negative control: the pre-journal soak had clients resubmit
	// after a restart to paper over dropped work. Resubmitting the
	// entire campaign now must be pure cache — zero executions — or
	// recovery did not actually complete something.
	before := final.Bus().Counter(CtrExecutions)
	for i := range reqs {
		t, err := final.Submit(reqs[i])
		if err != nil {
			violate("negative-control resubmit %d: %v", i, err)
			continue
		}
		payload, err := t.Result()
		verify(i, keys[i], payload, err)
	}
	final.Drain()
	rep.ResubmitExecutions = final.Bus().Counter(CtrExecutions) - before
	if rep.ResubmitExecutions != 0 {
		violate("negative control: resubmission caused %d executions (recovery left work undone)",
			rep.ResubmitExecutions)
	}

	// Graceful drain, then the compaction bound: with every journaled
	// key terminal, at most the active segment and one predecessor may
	// remain on disk.
	final.Shutdown()
	segs, _ := filepath.Glob(filepath.Join(opt.Dir, "wal", walSegPrefix+"*"+walSegExt))
	rep.LiveSegments = len(segs)
	if rep.LiveSegments > 2 {
		violate("journal compaction bound broken: %d live segments after a fully-terminal sweep",
			rep.LiveSegments)
	}

	rollup.fold(final)
	rep.Shed = int(shed.Load())
	rep.Kills = int(killsDone.Load())
	rep.Corruptions = int(corruptionsDone.Load())
	rep.StoreEvictions = rollup.get(CtrStoreEvictions)
	rep.CrashPoints = crashes.firedPoints()
	hits := rollup.get(CtrDedupeStore) + rollup.get(CtrDedupeInflight) + rollup.get(CtrDedupeIdem)
	if total := hits + rollup.get(CtrDedupeMiss); total > 0 {
		rep.DedupeHitRate = float64(hits) / float64(total)
	}
	if rep.DedupeHitRate < 0.30 {
		violate("dedupe hit-rate %.2f below the 0.30 bar", rep.DedupeHitRate)
	}
	if opt.QueueDepth < opt.Offered/2 && rep.Shed == 0 {
		violate("offered load exceeded capacity but nothing was shed — admission control is asleep")
	}
	if opt.Crashes > 0 && rep.DaemonRestarts == 0 {
		violate("crash budget %d but the daemon never died — the campaign proved nothing", opt.Crashes)
	}
	logf("soak: done — %d shed (retried), %d worker kills, %d corruptions, %d daemon kills at %v, "+
		"%d recovered, dedupe %.0f%%, %d journal segments",
		rep.Shed, rep.Kills, rep.Corruptions, rep.DaemonRestarts, rep.CrashPoints,
		rep.Recovered, 100*rep.DedupeHitRate, rep.LiveSegments)
	return rep, nil
}
