package mpi

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"pacc/internal/fault"
	"pacc/internal/network"
	"pacc/internal/obs"
	"pacc/internal/power"
	"pacc/internal/simtime"
	"pacc/internal/topology"
)

// World is one simulated MPI job: the engine, the hardware, and NProcs
// ranks. Build it with NewWorld, hand each rank a body with Launch, and
// execute with Run.
type World struct {
	cfg     Config
	eng     *simtime.Engine
	cluster *topology.Cluster
	place   *topology.Placement
	fabric  *network.Fabric
	station *power.Station
	ranks   []*Rank
	stats   MsgStats
	// obs, when non-nil, receives cross-layer trace events and metrics;
	// every hot-path producer guards on the nil check.
	obs *obs.Bus
	// inj is the fault injector (nil — inject nothing — without
	// Config.Fault). All its methods are nil-safe.
	inj *fault.Injector
	// retriesExhausted records protocol messages that spent their whole
	// retry budget (lost or ICRC-rejected); Run folds them into the
	// deadlock report so a lost rendezvous surfaces as a diagnosable
	// failure, not a bare hang, and wraps the first so errors.As can
	// recover the typed IntegrityError.
	retriesExhausted []*IntegrityError
	// wire is the value side channel pairing SendValue payloads with
	// RecvValue pickups (see fault.go).
	wire map[wireKey][]float64
	// ft is the crash-stop failure machinery (nil until armed by a crash
	// schedule or first use of the ULFM-style API; see crash.go). Nil
	// keeps every wait on the historical code path.
	ft *ftState
	// freeMsgs / freeRecvs / freeSends / freeReqs recycle mailbox,
	// rendezvous and request objects (see queue.go, msg.go, request.go);
	// the world is single-threaded in event context, so plain slices
	// suffice.
	freeMsgs  []*inMsg
	freeRecvs []*pendingRecv
	freeSends []*sendState
	freeReqs  []*Request
	// stash is the job-wide memo space for layers above mpi (the
	// collective package caches built communication plans here, keyed by
	// communicator shape). Rank bodies run one at a time in event
	// context, so a plain map suffices.
	stash map[string]any
	// call carries each blocking call from a rank's coroutine to its
	// progress machine (see progress.go); progs holds every rank's
	// machine, allocated at the world's first blocking call.
	call  callSlot
	progs []progress
	// worldGroup is the identity group [0..NProcs) shared by every
	// rank's CommWorld handle (immutable once built; see CommWorld).
	worldGroup []int
	// sb is the fail-slow detection scoreboard (nil — detection disarmed —
	// unless Config.FailSlowDetect or a fault spec with slow= / stickfail=
	// clauses arms it; see scoreboard.go). Nil keeps the hot paths on the
	// historical code, mirroring the obs/inj/ft pattern.
	sb *scoreboard
}

// NewWorld validates cfg and instantiates the cluster, fabric, and power
// domain.
func NewWorld(cfg Config) (*World, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cluster, err := topology.NewCluster(cfg.Topo)
	if err != nil {
		return nil, err
	}
	place, err := topology.NewPlacement(cluster, cfg.NProcs, cfg.PPN, cfg.Bind)
	if err != nil {
		return nil, err
	}
	eng := simtime.NewEngine()
	fabric, err := network.NewFabric(eng, cfg.Topo.Nodes, cfg.Net)
	if err != nil {
		return nil, err
	}
	station := power.NewStation(eng, cfg.Power, cfg.Topo.Nodes, cfg.Topo.CoresPerNode())
	w := &World{
		cfg:     cfg,
		eng:     eng,
		cluster: cluster,
		place:   place,
		fabric:  fabric,
		station: station,
	}
	w.ranks = make([]*Rank, cfg.NProcs)
	// Each mailbox queue starts with room for one entry, carved from a
	// world-wide slab, so a rank's first queued message or posted
	// receive allocates nothing; a queue that outgrows its slot moves to
	// an array of its own.
	msgSlab := make([]*inMsg, cfg.NProcs)
	recvSlab := make([]*pendingRecv, cfg.NProcs)
	for id := 0; id < cfg.NProcs; id++ {
		core := station.Core(place.CoreOf(id).Global)
		r := newRank(w, id, core)
		r.box.unexpected.items = msgSlab[id : id : id+1]
		r.box.pending.items = recvSlab[id : id : id+1]
		w.ranks[id] = r
	}
	if cfg.Fault != nil {
		w.inj = fault.NewInjector(cfg.Fault)
		for _, lf := range cfg.Fault.LinkFaults {
			if err := fabric.ScheduleLinkFault(lf.Link, lf.Factor, lf.Start, lf.Duration); err != nil {
				return nil, err
			}
		}
		// Crashes and memory-corruption bursts both need the failure
		// machinery armed before any rank parks in a wait: recovery from
		// either relies on revocation draining already-blocked peers, and
		// a wait entered with the machinery down never learns about it.
		if len(cfg.Fault.Crashes) > 0 || len(cfg.Fault.MemBursts) > 0 {
			w.ftRequire()
		}
		if len(cfg.Fault.Crashes) > 0 {
			for _, cr := range cfg.Fault.CrashSchedule() {
				rank := cr.Rank
				w.eng.At(simtime.Time(0).Add(cr.At), func() { w.crashRank(rank) })
			}
		}
		if cfg.Fault.PStateDelay > 0 || cfg.Fault.TStateDelay > 0 {
			cores := cfg.Topo.Nodes * cfg.Topo.CoresPerNode()
			for g := 0; g < cores; g++ {
				core, in, id := station.Core(g), w.inj, g
				core.SetTransitionDelay(func(dvfs bool) simtime.Duration {
					if dvfs {
						return in.PStateExtra(id)
					}
					return in.TStateExtra(id)
				})
			}
		}
	}
	if cfg.FailSlowDetect || (cfg.Fault != nil &&
		(len(cfg.Fault.Slows) > 0 || cfg.Fault.StickFailProb > 0)) {
		thr := cfg.SuspectThreshold
		if thr == 0 {
			thr = DefaultSuspectThreshold
		}
		w.sb = newScoreboard(cfg.NProcs, thr)
	}
	if cfg.WatchdogTimeout > 0 {
		eng.SetWatchdog(cfg.WatchdogTimeout, w.watchdogDiag)
	}
	return w, nil
}

// watchdogDiag assembles the structured no-progress dump attached to a
// *simtime.WatchdogError: the detection layer's per-rank view (lag EWMAs,
// beat counts, current suspects), in-flight network flows, and any trace
// spans left open — enough to tell a wedged power transition from a lost
// rendezvous without re-running under a debugger.
func (w *World) watchdogDiag() string {
	var b strings.Builder
	if w.sb != nil {
		fmt.Fprintf(&b, "suspects: %v\n", w.SuspectedRanks())
		for id := range w.ranks {
			if w.sb.ewma[id] != 1 || w.isDead(id) {
				state := ""
				if w.isDead(id) {
					state = " dead"
				}
				fmt.Fprintf(&b, "rank %d: lag %.2f, %d beats%s\n",
					id, w.sb.ewma[id], w.sb.beats[id], state)
			}
		}
	}
	if n := w.fabric.ActiveFlows(); n > 0 {
		fmt.Fprintf(&b, "in-flight flows: %d\n", n)
	}
	if w.obs != nil {
		for track, open := range w.obs.UnbalancedAsyncs(nil) {
			fmt.Fprintf(&b, "open spans on track %v: %s\n", track, strings.Join(open, ", "))
		}
	}
	return strings.TrimRight(b.String(), "\n")
}

// Injector returns the attached fault injector, or nil (a valid,
// inject-nothing injector).
func (w *World) Injector() *fault.Injector { return w.inj }

// Config returns the job configuration.
func (w *World) Config() Config { return w.cfg }

// Engine returns the simulation engine.
func (w *World) Engine() *simtime.Engine { return w.eng }

// Placement returns the rank-to-core binding.
func (w *World) Placement() *topology.Placement { return w.place }

// Fabric returns the network.
func (w *World) Fabric() *network.Fabric { return w.fabric }

// Station returns the cluster power domain.
func (w *World) Station() *power.Station { return w.station }

// Rank returns the rank object with the given id (valid after NewWorld).
func (w *World) Rank(id int) *Rank { return w.ranks[id] }

// Stash returns the world's memo map, for caching derived structures
// whose lifetime matches the job (communication plans, for example).
// Callers run in event context (one rank at a time), so no locking is
// needed; entries must be immutable once stored, since every rank may
// read them.
func (w *World) Stash() map[string]any {
	if w.stash == nil {
		w.stash = map[string]any{}
	}
	return w.stash
}

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.ranks) }

// AttachObs routes the job's observability events — MPI message
// lifecycle, wait times, P/T-state transitions, and (through the fabric)
// network flows and link utilization — into the given bus. Call before
// Launch. Collective phase spans are emitted by the collective package
// through Obs.
func (w *World) AttachObs(b *obs.Bus) {
	w.obs = b
	w.fabric.SetObs(b)
	if !b.Tracing() {
		return
	}
	for n := 0; n < w.cfg.Topo.Nodes; n++ {
		b.SetProcessName(n, fmt.Sprintf("node %d", n))
	}
	b.SetProcessName(obs.PIDNetwork, "network")
	for _, r := range w.ranks {
		b.SetThreadName(r.track, fmt.Sprintf("rank %d", r.id))
		// The bind instant ties the rank's timeline to its core's power
		// timeline; energy attribution joins the two through it.
		b.Instant(r.track, "bind", map[string]any{
			"core": w.place.CoreOf(r.id).Global,
			"node": w.place.NodeOf(r.id),
		})
	}
}

// Obs returns the attached observability bus, or nil (a valid, disabled
// bus).
func (w *World) Obs() *obs.Bus { return w.obs }

// Launch spawns every rank with the given SPMD body. The body runs with
// the rank's core marked busy; the core goes idle when the body returns.
// Launch may be called once per World.
func (w *World) Launch(body func(r *Rank)) {
	for _, r := range w.ranks {
		rank := r
		rank.proc = w.eng.Spawn(fmt.Sprintf("rank%d", rank.id), func(p *simtime.Proc) {
			// A rank crashed at t=0 dies before its body runs; a rank
			// crashed mid-run unwinds out of body via the Killed panic
			// (recovered in Spawn), with crashRank having idled the core.
			if w.isDead(rank.id) {
				return
			}
			rank.core.SetBusy(true)
			body(rank)
			rank.core.SetBusy(false)
		})
	}
}

// Run executes the simulation until all ranks finish and returns the
// total elapsed virtual time.
func (w *World) Run() (simtime.Duration, error) {
	return w.RunContext(context.Background())
}

// RunContext is Run under a context: a cancellation or deadline aborts
// the simulation cleanly — the engine stops between events and the error
// is a typed *CanceledError wrapping ctx.Err() (so errors.Is against
// context.Canceled / context.DeadlineExceeded classifies it). On every
// failed run (cancellation, deadlock, watchdog, rank panic or engine
// failure) the still-parked ranks are unwound after the error has been
// built, so a failed run leaves no rank goroutine behind; the world must
// be discarded. A context that can never be canceled
// (context.Background()) adds no per-event work, keeping the historical
// Run path byte-identical.
func (w *World) RunContext(ctx context.Context) (simtime.Duration, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if ctx.Done() != nil {
		if err := ctx.Err(); err != nil {
			// Already dead on arrival: unwind the launched ranks and
			// report without executing a single event.
			w.eng.KillLive()
			return 0, &CanceledError{At: w.eng.Now(), Cause: err}
		}
		w.eng.SetInterrupt(ctx.Err, w.cfg.InterruptEvery)
		defer w.eng.SetInterrupt(nil, 0)
	}
	if _, err := w.eng.Run(simtime.Infinity); err != nil {
		err = w.runError(ctx, err)
		w.eng.KillLive()
		return 0, err
	}
	return simtime.Duration(w.eng.Now()), nil
}

// runError turns a failed engine run into RunContext's error: a
// *CanceledError for a context abort, the exhausted retry budgets named
// alongside a deadlock, or the engine's error as is.
func (w *World) runError(ctx context.Context, err error) error {
	if cerr := ctx.Err(); cerr != nil && errors.Is(err, cerr) {
		return &CanceledError{At: w.eng.Now(), Cause: cerr}
	}
	var dl *simtime.DeadlockError
	if len(w.retriesExhausted) > 0 && errors.As(err, &dl) {
		// The hang has a known root cause: messages that spent
		// their whole retry budget. Name them alongside the
		// blocked waits, wrapping the first typed record.
		rest := make([]string, 0, len(w.retriesExhausted)-1)
		for _, e := range w.retriesExhausted[1:] {
			rest = append(rest, e.Error())
		}
		tail := ""
		if len(rest) > 0 {
			tail = "; " + strings.Join(rest, "; ")
		}
		return fmt.Errorf("mpi: %d message(s) exhausted their retry budget (%w%s): %w",
			len(w.retriesExhausted), w.retriesExhausted[0], tail, err)
	}
	return err
}
