// Package collective implements MPI collective communication algorithms —
// the default MVAPICH2-style algorithms and the power-aware redesigns of
// Kandalla et al. (ICPP 2010).
//
// Every collective is an SPMD call: all members of the communicator call
// the same function with the same arguments (sizes, options), exactly like
// MPI collectives. Power behavior is selected per call through
// Options.Power:
//
//   - NoPower: run at whatever P/T-state the cores are in (fmax, T0 in a
//     default job) — the paper's "Default (No-Power)" scheme.
//   - FreqScaling: per-call DVFS — every core drops to fmin at the start
//     of the collective and returns to fmax at the end (§V, the scheme
//     the paper compares against, after [5], [6]).
//   - Proposed: the paper's algorithms, which add phased CPU throttling
//     on top of the per-call DVFS (§V-A for Alltoall, §V-B for the
//     shared-memory collectives).
package collective

import (
	"fmt"

	"pacc/internal/mpi"
	"pacc/internal/obs"
	"pacc/internal/power"
	"pacc/internal/simtime"
)

// PowerMode selects the power scheme for one collective call.
type PowerMode int

const (
	// NoPower runs the default algorithm with no power transitions.
	NoPower PowerMode = iota
	// FreqScaling brackets the call with DVFS to fmin and back.
	FreqScaling
	// Proposed runs the paper's power-aware algorithm: DVFS plus
	// phased CPU throttling.
	Proposed
)

func (m PowerMode) String() string {
	switch m {
	case NoPower:
		return "no-power"
	case FreqScaling:
		return "freq-scaling"
	case Proposed:
		return "proposed"
	default:
		return fmt.Sprintf("PowerMode(%d)", int(m))
	}
}

// Options tunes one collective call.
type Options struct {
	// Power selects the power scheme (default NoPower).
	Power PowerMode
	// Trace, when non-nil, receives this rank's per-phase timings.
	Trace *Trace
	// CoreGranularThrottle enables the ablation of §V-B/VI-B: a
	// future architecture that throttles per core rather than per
	// socket, keeping the leader core at T0 and all other cores at T7
	// during the network phase.
	CoreGranularThrottle bool
	// DeepThrottle overrides the T-state used for cores with no work
	// during a phase (the paper uses T7). Zero selects T7.
	DeepThrottle power.TState
	// PowerThreshold is the per-rank message size below which the
	// power-aware schemes pass through to the default algorithm at full
	// speed: for latency-bound collectives the DVFS and throttle
	// transition costs exceed any possible savings (the paper's methods
	// target the medium/large messages of Figures 7-8). Zero selects
	// DefaultPowerThreshold; negative applies the scheme at any size.
	PowerThreshold int64
	// Plan selects the schedule builder for plan-backed collectives:
	// empty runs the entry point's canonical schedule, PlanAuto selects
	// the cheapest registered candidate of the collective's family under
	// the analytical cost model, and any other value names a specific
	// builder (see plan.Builders). Entry points that are not plan-backed
	// ignore the field.
	Plan string
	// PlanObjective is the cost-model objective PlanAuto minimizes.
	PlanObjective PlanObjective
	// Verify turns on end-to-end ABFT verification where the call
	// supports it: plan-backed collectives append an OpVerify checksum
	// fold to each rank's schedule (allreduce builders), so memory-burst
	// corruption of a reduction accumulator surfaces as a typed
	// IntegrityError instead of escaping as a silently wrong result. The
	// scalar checked entry points (AllreduceSumChecked and friends) carry
	// verification unconditionally and ignore the field.
	Verify bool
	// refImperative forces the original imperative implementation of a
	// plan-backed entry point. Unexported: the differential tests use it
	// to prove the plan path bit-identical to the reference.
	refImperative bool
}

// PlanAuto is the Options.Plan value that turns on cost-based selection.
const PlanAuto = "auto"

// PlanObjective is the quantity PlanAuto selection minimizes.
type PlanObjective int

const (
	// SelectByLatency picks the candidate with the lowest predicted
	// completion time (the default).
	SelectByLatency PlanObjective = iota
	// SelectByEnergy picks the candidate with the lowest predicted
	// energy.
	SelectByEnergy
)

// DefaultPowerThreshold is the passthrough cutoff used when
// Options.PowerThreshold is zero.
const DefaultPowerThreshold = 16 << 10

// effectivePower resolves the scheme for a call moving bytes per rank.
func (o Options) effectivePower(bytes int64) PowerMode {
	if o.Power == NoPower {
		return NoPower
	}
	th := o.PowerThreshold
	if th == 0 {
		th = DefaultPowerThreshold
	}
	if th > 0 && bytes < th {
		return NoPower
	}
	return o.Power
}

// deepT returns the T-state for fully idled cores.
func (o Options) deepT() power.TState {
	if o.DeepThrottle == power.T0 {
		return power.T7
	}
	return o.DeepThrottle
}

// partialT is the T-state of the leader socket during the network phase
// of shared-memory collectives (the paper's T4).
const partialT = power.T4

// reduceBytesPerSec is the full-speed local reduction rate of
// Reduce/Allreduce (combining two buffers).
const reduceBytesPerSec = 3e9

// Trace accumulates per-phase wall-clock durations observed by one rank.
type Trace struct {
	phases map[string]simtime.Duration
}

// NewTrace returns an empty trace.
func NewTrace() *Trace { return &Trace{phases: map[string]simtime.Duration{}} }

// Add accrues d into the named phase.
func (t *Trace) Add(name string, d simtime.Duration) {
	if t == nil {
		return
	}
	if t.phases == nil {
		t.phases = map[string]simtime.Duration{}
	}
	t.phases[name] += d
}

// Phase returns the accumulated duration of a phase.
func (t *Trace) Phase(name string) simtime.Duration {
	if t == nil {
		return 0
	}
	return t.phases[name]
}

// timePhase runs fn and accrues its duration under name; with an
// observability bus that records a timeline it also emits the interval
// as a span on the calling rank's timeline.
func timePhase(c *mpi.Comm, tr *Trace, name string, fn func()) {
	r := c.Owner()
	start := r.Now()
	fn()
	end := r.Now()
	tr.Add(name, end.Sub(start))
	if b := r.World().Obs(); b.Tracing() {
		b.Span(r.ObsTrack(), "phase "+name, start, end, nil)
	}
}

// timeCollective wraps one top-level collective call: it accrues the
// total phase into opt.Trace and, with an observability bus attached,
// records per-call metrics — call count, rank 0's wall time, and the
// cluster energy drawn while rank 0 was inside the call — and, when the
// bus records a timeline, a per-rank span named after the operation.
// bytes < 0 means the per-pair size varies (the v variants); the span
// then omits the bytes arg.
func timeCollective(c *mpi.Comm, opt Options, op string, bytes int64, fn func()) {
	r := c.Owner()
	w := r.World()
	b := w.Obs()
	if b == nil {
		timePhase(c, opt.Trace, PhaseTotal, fn)
		return
	}
	rank0 := c.Rank() == 0
	var e0 float64
	if rank0 {
		e0 = w.Station().EnergyJoules()
	}
	start := r.Now()
	fn()
	end := r.Now()
	opt.Trace.Add(PhaseTotal, end.Sub(start))
	if b.Tracing() {
		args := map[string]any{"power": opt.Power.String()}
		if bytes >= 0 {
			args["bytes"] = bytes
		}
		b.Span(r.ObsTrack(), op, start, end, args)
	}
	if rank0 {
		b.Add(obs.CollectivePrefix+op+".calls", 1)
		b.SetHistBuckets(obs.CollectivePrefix+op+".energy_j", obs.EnergyBuckets)
		b.Observe(obs.CollectivePrefix+op+".energy_j", w.Station().EnergyJoules()-e0)
		b.SetHistBuckets(obs.CollectivePrefix+op+".seconds", obs.SpanDurationBuckets)
		b.Observe(obs.CollectivePrefix+op+".seconds", end.Sub(start).Seconds())
	}
}

// withFreqScaling brackets body with the per-call DVFS transitions used by
// both power-aware schemes: all cores to fmin before, back to fmax after.
func withFreqScaling(c *mpi.Comm, body func()) {
	r := c.Owner()
	r.ScaleDown()
	body()
	r.ScaleUp()
}

// Standard phase names used by the built-in collectives.
const (
	PhaseTotal   = "total"
	PhaseIntra   = "intra"
	PhaseNetwork = "network"
	PhasePhase2  = "phase2"
	PhasePhase3  = "phase3"
	PhasePhase4  = "phase4"
)
