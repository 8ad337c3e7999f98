package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pacc/internal/collective"
	"pacc/internal/mpi"
	"pacc/internal/obs"
	"pacc/internal/plan"
	"pacc/internal/power"
	"pacc/internal/simtime"
	"pacc/internal/sweep"
)

// sweep_service drives an in-process journaled sweep service
// (sweep.OpenService, as paccd serves it, without the HTTP layer) with a
// closed loop: each client submits its next request only once the last
// one's result is back. The request stream is small 16-rank simulations
// over ops × modes × sizes; about one in four repeats an earlier request,
// so dedupe (store and in-flight hits) runs beside executions, journal
// writes and store writes.
var sweepService = workload{name: "sweep_service", measure: measureSweep, layers: sweepLayers}

var (
	sweepOps   = []string{"alltoall", "bruck", "allgather", "allgather_ring", "allgather_rd", "allreduce", "allreduce_rd", "allreduce_topo", "bcast", "bcast_binomial", "reduce", "gather", "scatter"}
	sweepModes = []string{"no-power", "freq-scaling", "proposed"}
	sweepSizes = []int64{1 << 10, 16 << 10, 64 << 10, 256 << 10}
)

const (
	sweepProcs, sweepPPN = 16, 8
	// prefillRequests is the store and journal a restart replays.
	prefillRequests = 2048
	// restarts is how many timed restarts set-up measures.
	restarts = 7
	// simPrefix is the stream prefix whose distinct requests
	// sim_latency_us and sim_energy_j average over, so they do not depend
	// on how far a run got.
	simPrefix = 4096
)

// sweepParallelism is both the client count and the worker count: at most
// the host's processors, and at most 4.
func sweepParallelism() int { return min(runtime.NumCPU(), 4) }

// stream generates a seeded request stream on demand. Fresh requests walk
// the ops × modes × sizes grid in a reshuffled order, each salted with its
// own Seed so its key is new; about one in four entries instead repeats a
// uniformly chosen earlier entry. Entries are kept as a few bytes each, so
// memory does not grow with how far a run gets.
type stream struct {
	mu     sync.Mutex
	r      rng
	salt   uint64
	tenant string
	// entries holds each entry's fresh-request index; cells holds each
	// fresh request's grid cell.
	entries []int32
	cells   []uint8
	perm    []int
}

func newStream(seed, salt uint64, tenant string) *stream {
	return &stream{r: rng{s: seed}, salt: salt, tenant: tenant}
}

func gridCell(i int) sweep.Request {
	nm, ns := len(sweepModes), len(sweepSizes)
	return sweep.Request{
		Op: sweepOps[i/(nm*ns)], Mode: sweepModes[i/ns%nm], Bytes: sweepSizes[i%ns],
		Procs: sweepProcs, PPN: sweepPPN,
	}
}

func gridSize() int { return len(sweepOps) * len(sweepModes) * len(sweepSizes) }

// at returns stream entry i, generating up to it.
func (s *stream) at(i int) sweep.Request {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.entries) <= i {
		s.entries = append(s.entries, s.nextLocked())
	}
	f := s.entries[i]
	req := gridCell(int(s.cells[f]))
	req.Seed = s.salt + uint64(f) + 1
	req.Tenant = s.tenant
	return req
}

func (s *stream) nextLocked() int32 {
	if n := len(s.entries); n > 0 && s.r.intn(4) == 0 {
		return s.entries[s.r.intn(n)]
	}
	fresh := len(s.cells)
	if fresh%gridSize() == 0 {
		s.perm = make([]int, gridSize())
		for i := range s.perm {
			j := s.r.intn(i + 1)
			s.perm[i], s.perm[j] = s.perm[j], i
		}
	}
	s.cells = append(s.cells, uint8(s.perm[fresh%gridSize()]))
	return int32(fresh)
}

// loopResult is what a closed loop leaves for each stream entry done
// (they form a prefix of the stream): the SHA-256 of its result payload
// and its submit→result seconds, and the entries that returned an error.
type loopResult struct {
	sums [][sha256.Size]byte
	lat  []float64
	errs map[int]error
}

// closedLoop runs clients against svc until the deadline (or, with
// limit > 0, until limit entries are done).
func closedLoop(svc *sweep.Service, st *stream, clients int, deadline time.Time, limit int, tr *tracer) *loopResult {
	var (
		mu   sync.Mutex
		next atomic.Int64
		res  = &loopResult{errs: map[int]error{}}
		wg   sync.WaitGroup
	)
	record := func(i int, p []byte, err error, lat float64) {
		sum := sha256.Sum256(p)
		mu.Lock()
		defer mu.Unlock()
		for len(res.sums) <= i {
			res.sums = append(res.sums, [sha256.Size]byte{})
			res.lat = append(res.lat, 0)
		}
		res.sums[i], res.lat[i] = sum, lat
		if err != nil {
			res.errs[i] = err
		}
	}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				// Check the deadline before claiming an entry, so the
				// entries done always form a prefix of the stream.
				if limit == 0 && time.Now().After(deadline) {
					return
				}
				i := int(next.Add(1) - 1)
				if limit > 0 && i >= limit {
					return
				}
				req := st.at(i)
				var trace string
				if tr != nil {
					trace = fmt.Sprintf("req-%d", i)
				}
				root := tr.begin(trace, "request")
				t0 := time.Now()
				sp := tr.child(trace, "sweep.Service.Submit", root)
				tk, err := svc.Submit(req)
				tr.end(sp)
				var p []byte
				if err == nil {
					sp = tr.child(trace, "sweep.Ticket.Result", root)
					p, err = tk.Result()
					tr.end(sp)
				}
				lat := time.Since(t0).Seconds()
				tr.end(root)
				record(i, p, err, lat)
			}
		}()
	}
	wg.Wait()
	return res
}

// sweepRun carries what measureSweep leaves for the layer metrics.
type sweepRun struct {
	svc *sweep.Service
	st  *stream
	rt  runtimeStats
}

func measureSweep(e *env) (*outcome, error) {
	dir := filepath.Join(e.work, fmt.Sprintf("store-%d", time.Now().UnixNano()))
	n := sweepParallelism()
	cfg := sweep.Config{Workers: n}
	ctx := context.Background()

	// Untimed prefill with requests disjoint from the stream (another key
	// salt), so the restarts below replay a real store and journal.
	svc, err := sweep.OpenService(dir, cfg)
	if err != nil {
		return nil, err
	}
	if err := svc.WaitReady(ctx); err != nil {
		return nil, err
	}
	pre := closedLoop(svc, newStream(e.seed, 1<<62, "prefill"), n, time.Time{}, prefillRequests, nil)
	svc.Shutdown()
	for i, err := range pre.errs {
		return nil, fmt.Errorf("prefill request %d: %w", i, err)
	}

	// Set-up is a daemon restart: open the store and journal and replay.
	o := &outcome{opsPerUnit: 1, counts: map[string]float64{}}
	for k := 0; k < restarts; k++ {
		if k > 0 {
			svc.Shutdown()
		}
		releaseMemory()
		sp := e.tr.begin("restart", "sweep.OpenService")
		c := readClock()
		if svc, err = sweep.OpenService(dir, cfg); err != nil {
			return nil, err
		}
		if err := svc.WaitReady(ctx); err != nil {
			return nil, err
		}
		o.setups = append(o.setups, c.wallSince())
		e.tr.end(sp)
	}
	defer svc.Shutdown()

	st := newStream(e.seed, 0, "bench")
	rt0 := readRuntime()
	c := readClock()
	res := closedLoop(svc, st, n, time.Now().Add(time.Duration(e.seconds*float64(time.Second))), 0, e.tr)
	o.timedWall, o.timedCPU = c.since()
	rt := readRuntime().sub(rt0)
	o.peakRSSMB = peakRSSMB()
	o.units = res.lat
	o.attempted = int64(len(res.sums))
	if o.failed, o.simLatencyUs, o.simEnergyJ, err = checkSweep(st, res); err != nil {
		return nil, err
	}
	o.sweep = &sweepRun{svc: svc, st: st, rt: rt}
	return o, nil
}

// checkSweep re-simulates, serially per request, every distinct request
// the run did and counts the entries whose result is an error or differs
// by a byte. It also returns the mean simulated µs and joules of the
// distinct requests among the first simPrefix stream entries, simulating
// any the run did not reach.
func checkSweep(st *stream, res *loopResult) (failed int64, simUs, simJ float64, err error) {
	type keyJob struct {
		first int
		done  []int
	}
	byKey := map[sweep.Key]*keyJob{}
	var jobs []*keyJob
	for i := 0; i < max(len(res.sums), simPrefix); i++ {
		k := st.at(i).Key()
		j := byKey[k]
		if j == nil {
			if i >= simPrefix && i >= len(res.sums) {
				continue
			}
			j = &keyJob{first: i}
			byKey[k] = j
			jobs = append(jobs, j)
		}
		if i < len(res.sums) {
			j.done = append(j.done, i)
		}
	}
	var (
		mu         sync.Mutex
		nFailed    int64
		us, joules float64
		nPrefix    int
		firstErr   error
		next       atomic.Int64
		wg         sync.WaitGroup
	)
	for w := 0; w < sweepParallelism(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := int(next.Add(1) - 1)
				if n >= len(jobs) {
					return
				}
				j := jobs[n]
				want, simErr := sweep.Simulate(context.Background(), st.at(j.first))
				sum := sha256.Sum256(want)
				var r *sweep.Result
				if simErr == nil && j.first < simPrefix {
					r, simErr = sweep.DecodeResult(want)
				}
				mu.Lock()
				for _, i := range j.done {
					if simErr != nil || res.errs[i] != nil || res.sums[i] != sum {
						nFailed++
					}
				}
				switch {
				case r != nil:
					us += r.ElapsedUs
					joules += r.EnergyJ
					nPrefix++
				case simErr != nil && firstErr == nil && len(j.done) == 0:
					firstErr = simErr
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return 0, 0, 0, firstErr
	}
	return nFailed, us / float64(nPrefix), joules / float64(nPrefix), nil
}

// sweepLayers adds the sweep_service per-layer metrics: the service's own
// counters, span timings of Submit, microbenchmarks of the journal and the
// store, and the simulation layers measured by re-running the grid's
// requests the way Simulate does, with and without the bus.
func sweepLayers(e *env, plain, o *outcome, m map[string]metric) error {
	run := o.sweep
	bus := run.svc.Bus()
	m["sweep.submit_us_p50"] = metric{median(e.tr.spanSeconds("sweep.Service.Submit")) * 1e6, "us"}
	m["sweep.queue_wait_s_mean"] = metric{bus.Hist(sweep.HistQueueWaitSecs).Mean(), "s"}
	m["sweep.execute_s_mean"] = metric{bus.Hist(sweep.HistExecuteSecs).Mean(), "s"}
	execs := float64(bus.Counter(sweep.CtrExecutions))
	m["sweep.executions"] = metric{execs, "count"}
	m["collective.calls"] = metric{execs, "count"}
	hits := float64(bus.Counter(sweep.CtrDedupeStore) + bus.Counter(sweep.CtrDedupeInflight))
	attempts := hits + float64(bus.Counter(sweep.CtrDedupeMiss))
	m["sweep.dedupe_hits"] = metric{hits, "count"}
	m["sweep.dedupe_attempts"] = metric{attempts, "count"}
	if attempts > 0 {
		m["sweep.dedupe_hit_ratio"] = metric{hits / attempts, "ratio"}
	}
	shed := bus.Counter(sweep.CtrShedOverload) + bus.Counter(sweep.CtrShedQuota) +
		bus.Counter(sweep.CtrShedDraining) + bus.Counter(sweep.CtrShedRecovering)
	m["sweep.shed"] = metric{float64(shed), "count"}
	m["sweep.retries"] = metric{float64(bus.Counter(sweep.CtrRetries)), "count"}
	m["sweep.journal_syncs"] = metric{float64(run.svc.Journal().Syncs()), "count"}
	m["sweep.journal_records"] = metric{float64(bus.Counter(sweep.CtrJournalRecords)), "count"}

	ops := o.ops()
	counts := map[string]float64{
		"gc_cpu": run.rt.gcCPU, "total_cpu": run.rt.totalCPU, "gc_cycles": run.rt.gcCycles,
		"alloc_bytes": run.rt.allocBytes, "allocs": run.rt.allocs,
	}
	runtimeLayer(m, counts, ops)

	if err := durabilityLayer(e, run, m); err != nil {
		return err
	}
	build, verify, err := timePlans(e.tr, sweepPlans(), sweepConfig())
	if err != nil {
		return err
	}
	m["plan.build_us"] = metric{build, "us"}
	m["plan.verify_us"] = metric{verify, "us"}
	return replayGrid(e.tr, m)
}

// durabilityLayer times WAL.Append with sync and Store.Put/Get on a
// journal and store of their own, with payloads of the run's requests.
func durabilityLayer(e *env, run *sweepRun, m map[string]metric) error {
	var payloads [][]byte
	for i := 0; i < 8; i++ {
		p, err := sweep.Simulate(context.Background(), run.st.at(i))
		if err != nil {
			return err
		}
		payloads = append(payloads, p)
	}
	wal, _, _, err := sweep.OpenWAL(filepath.Join(e.work, "wal-bench"), 0)
	if err != nil {
		return err
	}
	i := 0
	walS, err := repeatTimed(e.tr, "sweep.WAL.Append", func() error {
		req := run.st.at(i)
		i++
		return wal.Append(sweep.WALRecord{Type: sweep.RecAccepted, Key: req.Key().String(), Req: &req}, true)
	})
	if cerr := wal.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	store, _, err := sweep.OpenStore(filepath.Join(e.work, "store-bench"))
	if err != nil {
		return err
	}
	var keys []sweep.Key
	i = 0
	putS, err := repeatTimed(e.tr, "sweep.Store.Put", func() error {
		k := run.st.at(i).Key()
		p := payloads[i%len(payloads)]
		i++
		keys = append(keys, k)
		return store.Put(k, p)
	})
	if err != nil {
		return err
	}
	i = 0
	getS, err := repeatTimed(e.tr, "sweep.Store.Get", func() error {
		_, err := store.Get(keys[i%len(keys)])
		i++
		return err
	})
	if err != nil {
		return err
	}
	m["sweep.wal_sync_us"] = metric{walS * 1e6, "us"}
	m["sweep.store_put_us"] = metric{putS * 1e6, "us"}
	m["sweep.store_get_us"] = metric{getS * 1e6, "us"}
	return nil
}

func sweepConfig() mpi.Config {
	cfg := mpi.DefaultConfig()
	cfg.NProcs, cfg.PPN, cfg.Topo.Nodes = sweepProcs, sweepPPN, sweepProcs/sweepPPN
	return cfg
}

// sweepPlans are the canonical plan builds of the grid's plan-backed ops
// at one mid-grid size.
func sweepPlans() []planBuild {
	spec := plan.Spec{Bytes: 64 << 10, DeepT: power.T7}
	return []planBuild{{"allreduce_rd", spec}, {"allgather_rd", spec}, {"alltoall_pairwise", spec}, {"bcast_binomial", spec}}
}

// sweepCalls maps the grid's ops onto collective entry points the way the
// sweep runner does, for replaying requests outside the service.
var sweepCalls = map[string]func(c *mpi.Comm, b int64, o collective.Options) error{
	"alltoall":       collective.AlltoallPairwise,
	"bruck":          collective.AlltoallBruck,
	"allgather":      collective.Allgather,
	"allgather_ring": collective.AllgatherRing,
	"allgather_rd":   collective.AllgatherRD,
	"allreduce":      collective.Allreduce,
	"allreduce_rd":   collective.AllreduceRD,
	"allreduce_topo": collective.AllreduceTopoAware,
	"bcast":          func(c *mpi.Comm, b int64, o collective.Options) error { return collective.Bcast(c, 0, b, o) },
	"bcast_binomial": func(c *mpi.Comm, b int64, o collective.Options) error { return collective.BcastBinomial(c, 0, b, o) },
	"reduce":         func(c *mpi.Comm, b int64, o collective.Options) error { return collective.Reduce(c, 0, b, o) },
	"gather":         func(c *mpi.Comm, b int64, o collective.Options) error { return collective.Gather(c, 0, b, o) },
	"scatter":        func(c *mpi.Comm, b int64, o collective.Options) error { return collective.Scatter(c, 0, b, o) },
}

var sweepModeOf = map[string]collective.PowerMode{
	"no-power": collective.NoPower, "freq-scaling": collective.FreqScaling, "proposed": collective.Proposed,
}

// replayed is one grid cell simulated outside the service.
type replayed struct {
	events                   int
	runS, newWorldS, launchS float64
	stats                    mpi.MsgStats
	bus                      busCounts
	exportS                  float64
}

// replayCell simulates one request like sweep.Simulate (barrier, then the
// call), optionally with a bus attached.
func replayCell(tr *tracer, req sweep.Request, withBus bool) (replayed, error) {
	var r replayed
	trace := fmt.Sprintf("replay-%s-%s-%d", req.Op, req.Mode, req.Bytes)
	c := readClock()
	sp := tr.begin(trace, "mpi.NewWorld")
	w, err := mpi.NewWorld(sweepConfig())
	tr.end(sp)
	r.newWorldS = c.wallSince()
	if err != nil {
		return r, err
	}
	var bus *obs.Bus
	if withBus {
		bus = obs.NewBus(w.Engine())
		w.AttachObs(bus)
	}
	call, opt := sweepCalls[req.Op], collective.Options{Power: sweepModeOf[req.Mode]}
	var callErr error
	c = readClock()
	sp = tr.begin(trace, "simtime.Launch")
	w.Launch(func(rk *mpi.Rank) {
		cm := mpi.CommWorld(rk)
		collective.Barrier(cm)
		if err := call(cm, req.Bytes, opt); err != nil && callErr == nil {
			callErr = err
		}
	})
	tr.end(sp)
	r.launchS = c.wallSince()
	c = readClock()
	sp = tr.begin(trace, "simtime.Engine.Run")
	r.events, err = w.Engine().Run(simtime.Infinity)
	tr.end(sp)
	r.runS = c.wallSince()
	if err == nil {
		err = callErr
	}
	if err != nil {
		return r, err
	}
	r.stats = w.Stats()
	if bus != nil {
		r.bus = readBus(bus)
		c = readClock()
		if err := bus.WriteMetricsJSON(io.Discard); err != nil {
			return r, err
		}
		r.exportS = c.wallSince()
	}
	return r, nil
}

// replayGrid replays every grid cell without and then with the bus and
// reports the simulation layers per request: the stream is balanced over
// the grid, so the grid mean is the fresh-request mean.
func replayGrid(tr *tracer, m map[string]metric) error {
	var plain, bused []replayed
	for i := 0; i < gridSize(); i++ {
		req := gridCell(i)
		p, err := replayCell(tr, req, false)
		if err != nil {
			return fmt.Errorf("replay %s/%s/%d: %w", req.Op, req.Mode, req.Bytes, err)
		}
		b, err := replayCell(nil, req, true)
		if err != nil {
			return fmt.Errorf("replay %s/%s/%d with bus: %w", req.Op, req.Mode, req.Bytes, err)
		}
		plain, bused = append(plain, p), append(bused, b)
	}
	n := float64(len(plain))
	var events, runS, busRunS, exportS float64
	var newWorld, launch []float64
	var msgs float64
	var st mpi.MsgStats
	var bc busCounts
	for i := range plain {
		p, b := plain[i], bused[i]
		events += float64(p.events)
		runS += p.runS
		busRunS += b.runS
		exportS += b.exportS
		newWorld = append(newWorld, p.newWorldS)
		launch = append(launch, p.launchS)
		st.ShmBytes += p.stats.ShmBytes
		st.NetBytes += p.stats.NetBytes
		st.Control += p.stats.Control
		msgs += float64(p.stats.Messages())
		bc.flows += b.bus.flows
		bc.dvfs += b.bus.dvfs
		bc.throttle += b.bus.throttle
		bc.events += b.bus.events
	}
	m["simtime.events"] = metric{events / n, "count/op"}
	m["simtime.run_s"] = metric{runS / n, "s"}
	m["simtime.ns_per_event"] = metric{runS / events * 1e9, "ns"}
	m["simtime.launch_s"] = metric{median(launch), "s"}
	m["mpi.new_world_s"] = metric{median(newWorld), "s"}
	m["mpi.messages"] = metric{msgs / n, "count/op"}
	m["mpi.control_msgs"] = metric{float64(st.Control) / n, "count/op"}
	m["mpi.net_bytes"] = metric{float64(st.NetBytes) / n, "B/op"}
	m["mpi.shm_bytes"] = metric{float64(st.ShmBytes) / n, "B/op"}
	m["collective.host_us_per_call"] = metric{busRunS / n * 1e6, "us"}
	m["network.flows"] = metric{bc.flows / n, "count/op"}
	m["power.dvfs_transitions"] = metric{bc.dvfs / n, "count/op"}
	m["power.throttle_transitions"] = metric{bc.throttle / n, "count/op"}
	m["obs.events"] = metric{bc.events / n, "count/op"}
	m["obs.overhead_frac"] = metric{(busRunS - runS) / runS, "ratio"}
	m["obs.export_us"] = metric{exportS / n * 1e6, "us"}
	return nil
}
