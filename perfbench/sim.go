package main

import (
	"fmt"
	"math"

	"pacc/internal/collective"
	"pacc/internal/mpi"
	"pacc/internal/obs"
	"pacc/internal/plan"
	"pacc/internal/power"
	"pacc/internal/simtime"
	"pacc/internal/topology"
)

// The simulation workloads run the simulator in-process, the way osu and
// powercoll do, without an obs bus. Each builds worlds back to back until
// the host budget is spent. A world with several iterations pauses the
// engine at every iteration boundary — rank 0 calls Engine.Stop before
// entering the separating barrier — so each iteration is timed, and its
// simulated outputs checked, from outside the simulation.

// nVariants is how many input variants a seed selects among. Inputs are a
// pure function of the variant, so every variant's simulated outputs can
// be recorded in digests.json and checked on every run.
const nVariants = 8

func variantOf(seed uint64) int { return int(splitmix64(seed) % nVariants) }

// inputs are one variant's generated inputs.
type inputs struct {
	variant int
	// sizes are per-call message sizes in bytes, in call order.
	sizes []int64
	// root is the bcast root (testbed_8x8).
	root int
	// contrib is each rank's allreduce contribution (testbed_8x8); small
	// integers, so the global sum is exact in float64.
	contrib func(rank int) float64
	// skew is each rank's compute time before the barrier (barrier_64k).
	skew func(rank int) simtime.Duration
}

// simSpec describes one simulation workload.
type simSpec struct {
	name       string
	procs, ppn int
	// itersPerWorld is the number of timed iterations per world, after
	// one untimed warm-up; 0 means a world runs its single iteration with
	// no warm-up, timed whole (barrier_64k).
	itersPerWorld int
	// minWorlds is the fewest worlds a run builds, whatever its budget.
	minWorlds int
	calls     int
	gen       func(v int) inputs
	// iter runs one iteration's calls on one rank and reports the index
	// of each call that failed on this rank.
	iter func(c *mpi.Comm, in inputs, failed func(call int))
	// plans are the plan builds this workload's calls execute, timed by
	// the traced run.
	plans func(in inputs) []planBuild
}

type planBuild struct {
	name string
	spec plan.Spec
}

func (s *simSpec) config() mpi.Config {
	cfg := mpi.DefaultConfig()
	cfg.NProcs, cfg.PPN, cfg.Topo.Nodes = s.procs, s.ppn, s.procs/s.ppn
	return cfg
}

var testbedSpec = &simSpec{
	name: "testbed_8x8", procs: 64, ppn: 8,
	itersPerWorld: 40, minWorlds: 3, calls: 3,
	gen: func(v int) inputs {
		return inputs{
			variant: v,
			sizes:   []int64{64<<10 + 128*int64(v), 1<<20 + 1024*int64(v), 1<<20 + 1024*int64(v)},
			// A non-leader rank of node v, so every variant stages the
			// payload to its node leader first.
			root:    8*v + 1,
			contrib: func(rank int) float64 { return float64((rank*7 + v) % 13) },
		}
	},
	iter: func(c *mpi.Comm, in inputs, failed func(int)) {
		proposed := collective.Options{Power: collective.Proposed}
		if err := collective.Alltoall(c, in.sizes[0], proposed); err != nil {
			failed(0)
		}
		if err := collective.Bcast(c, in.root, in.sizes[1], proposed); err != nil {
			failed(1)
		}
		sum, err := collective.AllreduceSum(c, in.sizes[2], in.contrib(c.Rank()), collective.Options{})
		if err != nil || sum != expectedSum(in, c.Size()) {
			failed(2)
		}
	},
	plans: func(in inputs) []planBuild {
		return []planBuild{{"alltoall_phased", plan.Spec{Bytes: in.sizes[0], FreqScale: true, Phased: true, DeepT: power.T7}}}
	},
}

var scale4096Spec = &simSpec{
	name: "scale_4096", procs: 4096, ppn: 8,
	itersPerWorld: 4, minWorlds: 3, calls: 2,
	gen: func(v int) inputs {
		return inputs{variant: v, sizes: []int64{4<<10 + 4*int64(v), 1<<10 + int64(v)}}
	},
	iter: func(c *mpi.Comm, in inputs, failed func(int)) {
		if err := collective.AllreduceRD(c, in.sizes[0], collective.Options{}); err != nil {
			failed(0)
		}
		if err := collective.AllgatherRD(c, in.sizes[1], collective.Options{}); err != nil {
			failed(1)
		}
	},
	plans: func(in inputs) []planBuild {
		return []planBuild{
			{"allreduce_rd", plan.Spec{Bytes: in.sizes[0], DeepT: power.T7}},
			{"allgather_rd", plan.Spec{Bytes: in.sizes[1], DeepT: power.T7}},
		}
	},
}

var barrier64kSpec = &simSpec{
	name: "barrier_64k", procs: 65536, ppn: 8,
	itersPerWorld: 0, minWorlds: 3, calls: 1,
	gen: func(v int) inputs {
		return inputs{variant: v, skew: func(rank int) simtime.Duration {
			// Ranks reach the barrier from a compute phase of 1 µs plus
			// 50 ns per variant, each with up to 1 µs of jitter.
			return simtime.Duration(1000 + 50*v + int(splitmix64(uint64(v)<<32|uint64(rank))%1000))
		}}
	},
	iter: func(c *mpi.Comm, in inputs, failed func(int)) {
		c.Owner().Compute(in.skew(c.Rank()))
		collective.Barrier(c)
	},
	plans: func(inputs) []planBuild { return nil },
}

var (
	testbed8x8 = workload{name: "testbed_8x8", measure: testbedSpec.measure, layers: testbedSpec.layers}
	scale4096  = workload{name: "scale_4096", measure: scale4096Spec.measure, layers: scale4096Spec.layers}
	barrier64k = workload{name: "barrier_64k", measure: barrier64kSpec.measure, layers: barrier64kSpec.layers}
)

// simSpecs lists the simulation workloads in digests.json order.
var simSpecs = []*simSpec{testbedSpec, scale4096Spec, barrier64kSpec}

func expectedSum(in inputs, n int) float64 {
	var s float64
	for r := 0; r < n; r++ {
		s += in.contrib(r)
	}
	return s
}

// iterOutput is the simulated output of one iteration (or, for a
// single-iteration world, of the whole world).
type iterOutput struct {
	SimNs   int64        `json:"sim_ns"`
	EnergyJ float64      `json:"energy_j"`
	Stats   mpi.MsgStats `json:"stats"`
}

// matches compares against a recorded digest. Energy is a float sum whose
// last bits depend on how often the power model was read, so it matches
// to a relative 1e-9.
func (a iterOutput) matches(d iterOutput) bool {
	return a.SimNs == d.SimNs && a.Stats == d.Stats &&
		math.Abs(a.EnergyJ-d.EnergyJ) <= 1e-9*math.Abs(d.EnergyJ)
}

func snapshot(w *mpi.World) iterOutput {
	return iterOutput{
		SimNs:   int64(w.Engine().Now()),
		EnergyJ: w.Station().EnergyJoules(),
		Stats:   w.Stats(),
	}
}

func (a iterOutput) sub(b iterOutput) iterOutput {
	s := a.Stats
	p := b.Stats
	return iterOutput{
		SimNs:   a.SimNs - b.SimNs,
		EnergyJ: a.EnergyJ - b.EnergyJ,
		Stats: mpi.MsgStats{
			ShmEager: s.ShmEager - p.ShmEager, ShmRendezvous: s.ShmRendezvous - p.ShmRendezvous,
			NetEager: s.NetEager - p.NetEager, NetRendezvous: s.NetRendezvous - p.NetRendezvous,
			ShmBytes: s.ShmBytes - p.ShmBytes, NetBytes: s.NetBytes - p.NetBytes,
			Control: s.Control - p.Control,
		},
	}
}

// control is shared between the driver and the rank bodies. Ranks run
// one at a time under the engine, and the driver touches it only while
// the engine is paused, so it needs no locking.
type control struct {
	done       bool
	failedCall map[int]bool
}

// simWorld is one built world and its driver state.
type simWorld struct {
	s   *simSpec
	w   *mpi.World
	in  inputs
	ctl *control
	tr  *tracer
	// trace is the span trace id of this world and root its "world" span,
	// the parent of every span the world's calls record.
	trace string
	root  int
}

// build constructs and launches a world, with bus attached when non-nil.
func (s *simSpec) build(in inputs, tr *tracer, trace string, bus func(*mpi.World) *obs.Bus) (*simWorld, error) {
	sw := &simWorld{s: s, in: in, ctl: &control{failedCall: map[int]bool{}}, tr: tr, trace: trace}
	sw.root = tr.begin(trace, "world")
	sp := tr.child(trace, "mpi.NewWorld", sw.root)
	w, err := mpi.NewWorld(s.config())
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sw.w = w
	if bus != nil {
		w.AttachObs(bus(w))
	}
	sp = tr.child(trace, "simtime.Launch", sw.root)
	w.Launch(sw.body())
	tr.end(sp)
	return sw, nil
}

func (sw *simWorld) body() func(r *mpi.Rank) {
	s, in, ctl := sw.s, sw.in, sw.ctl
	failed := func(call int) { ctl.failedCall[call] = true }
	if s.itersPerWorld == 0 {
		return func(r *mpi.Rank) { s.iter(mpi.CommWorld(r), in, failed) }
	}
	return func(r *mpi.Rank) {
		c := mpi.CommWorld(r)
		for {
			if r.ID() == 0 {
				// Pause at the iteration boundary. No rank can leave the
				// barrier below before rank 0 enters it, so the driver's
				// choice of ctl.done reaches every rank.
				r.World().Engine().Stop()
			}
			collective.Barrier(c)
			if ctl.done {
				return
			}
			s.iter(c, in, failed)
		}
	}
}

// run resumes the engine until the next pause or the end of the world.
func (sw *simWorld) run() (int, error) {
	sp := sw.tr.child(sw.trace, "simtime.Engine.Run", sw.root)
	n, err := sw.w.Engine().Run(simtime.Infinity)
	sw.tr.end(sp)
	if err == nil {
		err = sw.w.Engine().Failure()
	}
	return n, err
}

// iterRecord is one timed unit.
type iterRecord struct {
	wall, cpu float64
	events    int
	out       iterOutput
	failed    int
	rt        runtimeStats
}

// measure runs worlds until the budget is spent.
func (s *simSpec) measure(e *env) (*outcome, error) {
	in := s.gen(variantOf(e.seed))
	want, haveDigest := lookupDigest(s.name, in.variant)
	o := &outcome{opsPerUnit: float64(s.calls), counts: map[string]float64{}}
	var first *iterOutput
	clock := readClock()
	for n := 0; n < s.minWorlds || clock.wallSince() < e.seconds; n++ {
		recs, setup, err := s.runWorld(in, e.tr, fmt.Sprintf("world-%d", n))
		if err != nil {
			return nil, err
		}
		o.setups = append(o.setups, setup)
		for _, r := range recs {
			if first == nil {
				out := r.out
				first = &out
			}
			failed := r.failed
			if !haveDigest || !r.out.matches(want) {
				failed = s.calls
			}
			o.attempted += int64(s.calls)
			o.failed += int64(failed)
			o.units = append(o.units, r.wall)
			o.timedWall += r.wall
			o.timedCPU += r.cpu
			o.counts["events"] += float64(r.events)
			o.counts["gc_cpu"] += r.rt.gcCPU
			o.counts["total_cpu"] += r.rt.totalCPU
			o.counts["gc_cycles"] += r.rt.gcCycles
			o.counts["alloc_bytes"] += r.rt.allocBytes
			o.counts["allocs"] += r.rt.allocs
		}
	}
	o.peakRSSMB = peakRSSMB()
	if !haveDigest {
		logf("%s variant %d: no recorded digest; every call counts as failed", s.name, in.variant)
	} else if first != nil && !first.matches(want) {
		logf("%s variant %d: simulated output %+v differs from digest %+v", s.name, in.variant, *first, want)
	}
	if first != nil {
		o.simLatencyUs = float64(first.SimNs) / 1e3 / float64(s.calls)
		o.simEnergyJ = first.EnergyJ / float64(s.calls)
		o.counts["stats.messages"] = float64(first.Stats.Messages())
		o.counts["stats.control"] = float64(first.Stats.Control)
		o.counts["stats.net_bytes"] = float64(first.Stats.NetBytes)
		o.counts["stats.shm_bytes"] = float64(first.Stats.ShmBytes)
	}
	return o, nil
}

// runWorld builds one world, runs its warm-up and timed iterations, and
// returns the timed records and the set-up time.
func (s *simSpec) runWorld(in inputs, tr *tracer, trace string) ([]iterRecord, float64, error) {
	releaseMemory()
	setupClock := readClock()
	sw, err := s.build(in, tr, trace, nil)
	if err != nil {
		return nil, 0, err
	}
	if s.itersPerWorld == 0 {
		setup := setupClock.wallSince()
		rec, err := sw.timedRun()
		if err != nil {
			return nil, 0, err
		}
		rec.out = snapshot(sw.w)
		tr.end(sw.root)
		return []iterRecord{rec}, setup, nil
	}
	// Start the ranks (rank 0 pauses before the first barrier), then run
	// the untimed warm-up iteration, which fills the plan cache and pools.
	for i := 0; i < 2; i++ {
		if _, err := sw.run(); err != nil {
			return nil, 0, err
		}
	}
	setup := setupClock.wallSince()
	prev := snapshot(sw.w)
	recs := make([]iterRecord, 0, s.itersPerWorld)
	for k := 0; k < s.itersPerWorld; k++ {
		rec, err := sw.timedRun()
		if err != nil {
			return nil, 0, err
		}
		cur := snapshot(sw.w)
		rec.out = cur.sub(prev)
		prev = cur
		recs = append(recs, rec)
	}
	sw.ctl.done = true
	if _, err := sw.run(); err != nil {
		return nil, 0, err
	}
	tr.end(sw.root)
	return recs, setup, nil
}

// timedRun times one resumption of the engine, collecting the failed-call
// marks the ranks left; in a traced run it also samples the runtime
// counters.
func (sw *simWorld) timedRun() (iterRecord, error) {
	var rt0 runtimeStats
	if sw.tr != nil {
		rt0 = readRuntime()
	}
	c := readClock()
	n, err := sw.run()
	wall, cpu := c.since()
	if err != nil {
		return iterRecord{}, err
	}
	rec := iterRecord{wall: wall, cpu: cpu, events: n, failed: len(sw.ctl.failedCall)}
	if sw.tr != nil {
		rec.rt = readRuntime().sub(rt0)
	}
	clear(sw.ctl.failedCall)
	return rec, nil
}

// viewOf derives the plan-builder view of the whole world.
func viewOf(cfg mpi.Config) (plan.View, error) {
	cluster, err := topology.NewCluster(cfg.Topo)
	if err != nil {
		return plan.View{}, err
	}
	place, err := topology.NewPlacement(cluster, cfg.NProcs, cfg.PPN, cfg.Bind)
	if err != nil {
		return plan.View{}, err
	}
	v := plan.View{P: cfg.NProcs, NodeOf: make([]int, cfg.NProcs), SocketA: make([]bool, cfg.NProcs)}
	for r := 0; r < cfg.NProcs; r++ {
		v.NodeOf[r] = place.NodeOf(r)
		v.SocketA[r] = place.SocketOf(r) == topology.SocketA
	}
	return v, nil
}
