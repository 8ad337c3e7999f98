// Package pacc (Power-Aware Collective Communication) reproduces, as a
// simulation-backed Go library, the system of Kandalla, Mancini, Sur and
// Panda, "Designing Power-Aware Collective Communication Algorithms for
// InfiniBand Clusters" (ICPP 2010).
//
// The library simulates an InfiniBand cluster — nodes, sockets, cores,
// a QDR-like switched fabric, per-core DVFS (P-states) and CPU throttling
// (T-states) — and runs MPI-style collective algorithms over it: the
// MVAPICH2 defaults and the paper's power-aware redesigns, which bracket
// every collective with DVFS and schedule socket-level throttling through
// the communication phases. Per-core energy is integrated exactly, so
// experiments report latency, power draw and energy for each scheme.
//
// Quick start:
//
//	cfg := pacc.DefaultConfig()             // 8 nodes x 2 sockets x 4 cores
//	w, _ := pacc.NewWorld(cfg)
//	w.Launch(func(r *pacc.Rank) {
//		c := pacc.CommWorld(r)
//		pacc.Alltoall(c, 256<<10, pacc.CollectiveOptions{Power: pacc.Proposed})
//	})
//	elapsed, _ := w.Run()
//	fmt.Println(elapsed, w.Station().EnergyJoules())
//
// The cmd/powercoll tool regenerates every figure and table of the
// paper's evaluation; see DESIGN.md and EXPERIMENTS.md.
package pacc

import (
	"io"

	"pacc/internal/analyze"
	"pacc/internal/collective"
	"pacc/internal/experiments"
	"pacc/internal/fault"
	"pacc/internal/model"
	"pacc/internal/mpi"
	"pacc/internal/network"
	"pacc/internal/plan"
	"pacc/internal/power"
	"pacc/internal/simtime"
	"pacc/internal/topology"
	"pacc/internal/workload"
)

// Core simulation types.
type (
	// Config assembles a simulated MPI job: topology, network, power
	// model, rank layout and progression mode.
	Config = mpi.Config
	// World is one simulated job.
	World = mpi.World
	// Rank is one MPI process.
	Rank = mpi.Rank
	// Comm is a communicator handle.
	Comm = mpi.Comm
	// Request is a nonblocking-operation handle.
	Request = mpi.Request
	// ProgressionMode selects polling or blocking waits.
	ProgressionMode = mpi.ProgressionMode
	// PowerModel holds the DVFS/throttling power calibration.
	PowerModel = power.Model
	// TState is a CPU throttling level (T0..T7).
	TState = power.TState
	// PowerMode selects a power scheme for one collective call.
	PowerMode = collective.PowerMode
	// CollectiveOptions tunes one collective call.
	CollectiveOptions = collective.Options
	// Trace accumulates per-phase timings of collective calls.
	Trace = collective.Trace
	// TopologyConfig describes the cluster shape.
	TopologyConfig = topology.Config
	// BindPolicy selects the rank-to-core binding.
	BindPolicy = topology.BindPolicy
	// App is a runnable application skeleton.
	App = workload.App
	// Report summarizes an application run.
	Report = workload.Report
	// ModelParams holds the paper's analytical model constants.
	ModelParams = model.Params
	// ExperimentSpec describes one registered paper experiment.
	ExperimentSpec = experiments.Spec
	// ExperimentResult is an experiment's output.
	ExperimentResult = experiments.Result
	// ExperimentOptions tunes an experiment run.
	ExperimentOptions = experiments.Options
	// FaultSpec declares a deterministic fault-injection schedule (set it
	// on Config.Fault, or parse one with ParseFaultSpec).
	FaultSpec = fault.Spec
	// LinkFault is one scheduled link degradation/down window.
	LinkFault = fault.LinkFault
	// Crash schedules a permanent crash-stop failure of one rank.
	Crash = fault.Crash
	// Straggler marks one rank as computing slower than its peers.
	Straggler = fault.Straggler
	// Slow schedules a windowed fail-slow (gray failure): the rank
	// computes Factor times slower inside [Start, Start+Duration) while
	// still making progress. A slow= clause arms the fail-slow detector
	// (see DESIGN.md §13).
	Slow = fault.Slow
	// MemBurst schedules a time-windowed memory-corruption burst: bit
	// flips in reduction buffers that the transport ICRC cannot see (only
	// the checked collectives catch them).
	MemBurst = fault.MemBurst
	// PeerFailedError reports an operation aborted because the peer rank
	// crashed (detected by the ack/heartbeat timeout).
	PeerFailedError = mpi.PeerFailedError
	// CommRevokedError reports an operation aborted because the
	// communicator was revoked during recovery.
	CommRevokedError = mpi.CommRevokedError
	// IntegrityError reports a protocol message that exhausted its retry
	// budget without a clean delivery (lost, or ICRC-rejected in flight).
	IntegrityError = mpi.IntegrityError
	// CanceledError reports a run aborted by its context (cancellation or
	// deadline; see World.RunContext). errors.Is against context.Canceled
	// or context.DeadlineExceeded classifies the cause.
	CanceledError = mpi.CanceledError
	// WatchdogError reports a run aborted by the no-progress watchdog
	// (Config.WatchdogTimeout): simulated time advanced past the limit
	// with no message delivered anywhere. Carries a per-rank diagnostic
	// dump of compute lag, progress beacons and in-flight state.
	WatchdogError = simtime.WatchdogError
	// VerificationError reports an ABFT checksum mismatch caught by a
	// checked collective — corruption that happened in memory, past the
	// transport's ICRC.
	VerificationError = collective.VerificationError
	// AnalysisReport is the post-run analytics report: critical paths,
	// per-rank slack, phase × power-state energy attribution (see
	// internal/analyze and DESIGN.md §10). Obtain with ObsSession.Report.
	AnalysisReport = analyze.Report
	// AnalysisOptions tunes one analysis run.
	AnalysisOptions = analyze.Options
	// AnalysisDiff is the outcome of comparing two analytics reports.
	AnalysisDiff = analyze.DiffResult
	// DiffThresholds are the regression gates of a report diff.
	DiffThresholds = analyze.Thresholds
)

// ReadAnalysisReport parses a report written by ObsSession.WriteReport
// (or cmd/paccprof).
func ReadAnalysisReport(r io.Reader) (*AnalysisReport, error) {
	return analyze.ReadReport(r)
}

// DiffReports compares two analytics reports under the given
// regression thresholds (see cmd/paccprof diff).
func DiffReports(base, next *AnalysisReport, th DiffThresholds) *AnalysisDiff {
	return analyze.Diff(base, next, th)
}

// Progression modes.
const (
	Polling  = mpi.Polling
	Blocking = mpi.Blocking
)

// Power schemes (the paper's three comparison points).
const (
	NoPower     = collective.NoPower
	FreqScaling = collective.FreqScaling
	Proposed    = collective.Proposed
)

// Binding policies.
const (
	BindBunch      = topology.BindBunch
	BindScatter    = topology.BindScatter
	BindSequential = topology.BindSequential
)

// DefaultConfig returns the paper's testbed: 8 Nehalem-style nodes of two
// quad-core sockets, InfiniBand QDR, 64 ranks bunch-bound, polling mode.
func DefaultConfig() Config { return mpi.DefaultConfig() }

// DefaultPowerModel returns the calibrated power model (≈2.3 KW loaded).
func DefaultPowerModel() *PowerModel { return power.DefaultModel() }

// LinkPowerConfig calibrates per-port network power and dynamic link
// sleep states (set it on Config.Net.LinkPower).
type LinkPowerConfig = network.LinkPowerConfig

// DefaultLinkPower returns QDR-era per-port power constants with dynamic
// sleep enabled.
func DefaultLinkPower() LinkPowerConfig { return network.DefaultLinkPower() }

// NewWorld validates cfg and builds the simulated job. Execute with
// World.Run, or World.RunContext to bound the run by a context —
// cancellation and deadlines abort cleanly with a typed *CanceledError.
func NewWorld(cfg Config) (*World, error) { return mpi.NewWorld(cfg) }

// ParseFaultSpec parses a -fault command-line spec: semicolon-separated
// key=value clauses, e.g.
//
//	"seed=7;msgloss=0.02;degrade=node0-up@0.3:200us+2ms;straggler=1@1.5;retry=7"
//	"crash=5@2ms;detect=200us"  // rank 5 dies at 2ms, detected 200µs later
//
// See the fault package (and DESIGN.md) for the full clause list. The
// returned spec validates clean and can be set on Config.Fault.
func ParseFaultSpec(src string) (*FaultSpec, error) { return fault.Parse(src) }

// LoadConfig reads and validates a JSON configuration file (a missing
// power model defaults).
func LoadConfig(path string) (Config, error) { return mpi.LoadConfig(path) }

// SaveConfig writes a configuration as indented JSON.
func SaveConfig(path string, cfg Config) error { return mpi.SaveConfig(path, cfg) }

// CommWorld returns the communicator over all ranks (call from a rank
// body).
func CommWorld(r *Rank) *Comm { return mpi.CommWorld(r) }

// WaitAll completes a set of requests in order (nil entries are skipped).
func WaitAll(reqs ...*Request) { mpi.WaitAll(reqs...) }

// NewTrace returns an empty phase-timing trace.
func NewTrace() *Trace { return collective.NewTrace() }

// Collective operations (SPMD: every rank of the communicator calls them
// with identical arguments). Every entry point validates its arguments
// (positive sizes, root in range) and returns an error for malformed
// calls; plan-backed entries also surface plan build/execution errors.

// Alltoall performs a personalized all-to-all exchange of bytes per pair.
func Alltoall(c *Comm, bytes int64, opt CollectiveOptions) error {
	return collective.Alltoall(c, bytes, opt)
}

// Alltoallv performs a personalized exchange with per-pair sizes
// (zero-size pairs are legal, negative sizes rejected).
func Alltoallv(c *Comm, sizeOf func(src, dst int) int64, opt CollectiveOptions) error {
	return collective.Alltoallv(c, sizeOf, opt)
}

// AlltoallPairwise forces the pairwise-exchange algorithm.
func AlltoallPairwise(c *Comm, bytes int64, opt CollectiveOptions) error {
	return collective.AlltoallPairwise(c, bytes, opt)
}

// AlltoallBruck forces the hypercube algorithm.
func AlltoallBruck(c *Comm, bytes int64, opt CollectiveOptions) error {
	return collective.AlltoallBruck(c, bytes, opt)
}

// Bcast broadcasts from root with the multi-core aware algorithm.
func Bcast(c *Comm, root int, bytes int64, opt CollectiveOptions) error {
	return collective.Bcast(c, root, bytes, opt)
}

// BcastBinomial broadcasts with the flat binomial tree.
func BcastBinomial(c *Comm, root int, bytes int64, opt CollectiveOptions) error {
	return collective.BcastBinomial(c, root, bytes, opt)
}

// Reduce combines onto root with the multi-core aware algorithm.
func Reduce(c *Comm, root int, bytes int64, opt CollectiveOptions) error {
	return collective.Reduce(c, root, bytes, opt)
}

// Allgather gathers bytes from every rank to every rank.
func Allgather(c *Comm, bytes int64, opt CollectiveOptions) error {
	return collective.Allgather(c, bytes, opt)
}

// AllgatherRing forces the flat ring allgather.
func AllgatherRing(c *Comm, bytes int64, opt CollectiveOptions) error {
	return collective.AllgatherRing(c, bytes, opt)
}

// AllgatherRD forces the recursive-doubling allgather.
func AllgatherRD(c *Comm, bytes int64, opt CollectiveOptions) error {
	return collective.AllgatherRD(c, bytes, opt)
}

// Allreduce combines bytes across all ranks, result everywhere.
func Allreduce(c *Comm, bytes int64, opt CollectiveOptions) error {
	return collective.Allreduce(c, bytes, opt)
}

// AllreduceRD forces the recursive-doubling allreduce.
func AllreduceRD(c *Comm, bytes int64, opt CollectiveOptions) error {
	return collective.AllreduceRD(c, bytes, opt)
}

// IsFailure reports whether err is a crash-stop failure (PeerFailedError
// or CommRevokedError) — the class of errors ULFM-style recovery consumes.
func IsFailure(err error) bool { return mpi.IsFailure(err) }

// IsIntegrity reports whether err stems from detected data corruption at
// any layer: a transport message undeliverable within its retry budget
// (IntegrityError), an ABFT checksum mismatch (VerificationError), or a
// tainted plan verification step. Resilient collectives consume these
// like failures; when one escapes, the data never did.
func IsIntegrity(err error) bool { return collective.IsIntegrity(err) }

// RunResilient runs body over c with ULFM-style crash recovery: on a
// failure every survivor revokes, agrees on the failed set, restores
// fmax/T0, shrinks the communicator and retries body on the survivor
// group. Returns the communicator of the successful round.
func RunResilient(c *Comm, body func(*Comm) error) (*Comm, error) {
	return collective.RunResilient(c, body)
}

// AllreduceSumFT is the fault-tolerant allreduce: every member
// contributes v and the survivors of any crash-stop failures converge on
// the sum over the final group, returned with the survivor communicator.
func AllreduceSumFT(c *Comm, bytes int64, v float64, opt CollectiveOptions) (float64, *Comm, error) {
	return collective.AllreduceSumFT(c, bytes, v, opt)
}

// AllreduceFT is the plan-backed fault-tolerant allreduce: every recovery
// round rebuilds, re-verifies and re-executes a schedule for the current
// survivor group.
func AllreduceFT(c *Comm, bytes int64, opt CollectiveOptions) (*Comm, error) {
	return collective.AllreduceFT(c, bytes, opt)
}

// AllreduceSumChecked is AllreduceSum with ABFT self-verification: a
// checksum shadow rides the same message schedule and the result is
// verified before it is returned — a corrupted value surfaces as a
// VerificationError, never as a silently wrong sum.
func AllreduceSumChecked(c *Comm, bytes int64, v float64, opt CollectiveOptions) (float64, error) {
	return collective.AllreduceSumChecked(c, bytes, v, opt)
}

// AllreduceSumFTChecked combines the checked allreduce with ULFM-style
// recovery: a verification failure is treated like a crashed round —
// revoke, agree, retry — so transient corruption costs retries, not
// correctness. The error after an exhausted budget stays classifiable
// with IsIntegrity.
func AllreduceSumFTChecked(c *Comm, bytes int64, v float64, opt CollectiveOptions) (float64, *Comm, error) {
	return collective.AllreduceSumFTChecked(c, bytes, v, opt)
}

// Gather collects per-rank blocks onto root.
func Gather(c *Comm, root int, bytes int64, opt CollectiveOptions) error {
	return collective.Gather(c, root, bytes, opt)
}

// Scatter distributes per-rank blocks from root.
func Scatter(c *Comm, root int, bytes int64, opt CollectiveOptions) error {
	return collective.Scatter(c, root, bytes, opt)
}

// Barrier synchronizes the communicator.
func Barrier(c *Comm) { collective.Barrier(c) }

// ScatterTopoAware distributes blocks through the rack hierarchy (the
// paper's §VIII topology-aware direction), optionally throttling whole
// racks during the inter-rack phase.
func ScatterTopoAware(c *Comm, root int, bytes int64, opt CollectiveOptions) error {
	return collective.ScatterTopoAware(c, root, bytes, opt)
}

// GatherTopoAware collects blocks through the rack hierarchy.
func GatherTopoAware(c *Comm, root int, bytes int64, opt CollectiveOptions) error {
	return collective.GatherTopoAware(c, root, bytes, opt)
}

// BcastTopoAware broadcasts through the rack hierarchy.
func BcastTopoAware(c *Comm, root int, bytes int64, opt CollectiveOptions) error {
	return collective.BcastTopoAware(c, root, bytes, opt)
}

// AllreduceTopoAware combines bytes through the node/rack hierarchy,
// falling back to a contention-minimal ring among leaders when the
// fabric reports degraded links (fault-aware jobs only).
func AllreduceTopoAware(c *Comm, bytes int64, opt CollectiveOptions) error {
	return collective.AllreduceTopoAware(c, bytes, opt)
}

// AllreduceSum is AllreduceTopoAware carrying a real float64 sum through
// the simulated message schedule: every rank contributes v and receives
// the global sum, so callers can verify end-to-end data correctness
// under injected faults.
func AllreduceSum(c *Comm, bytes int64, v float64, opt CollectiveOptions) (float64, error) {
	return collective.AllreduceSum(c, bytes, v, opt)
}

// Communication plans (the schedule IR behind the plan-backed
// collectives; see internal/plan and DESIGN.md §7).

// CommPlan is one built communication schedule.
type CommPlan = plan.Plan

// PlanBuilderSpec names one registered schedule builder and the
// collective family it implements.
type PlanBuilderSpec struct{ Name, Op string }

// PlanAuto selects the cheapest registered schedule by predicted cost
// when set as CollectiveOptions.Plan.
const PlanAuto = collective.PlanAuto

// Plan-selection objectives (CollectiveOptions.PlanObjective).
const (
	SelectByLatency = collective.SelectByLatency
	SelectByEnergy  = collective.SelectByEnergy
)

// PlanBuilders lists every registered schedule builder.
func PlanBuilders() []PlanBuilderSpec {
	var out []PlanBuilderSpec
	for _, b := range plan.Builders() {
		out = append(out, PlanBuilderSpec{Name: b.Name, Op: b.Op})
	}
	return out
}

// VerifyPlan statically checks a plan's invariants: tag/peer matching,
// deadlock-freedom under rendezvous semantics, declared data coverage,
// and power-state balance.
func VerifyPlan(p *CommPlan) error { return plan.Verify(p) }

// Workloads (the paper's applications).

// FTClassC is the NAS FT class C kernel skeleton.
func FTClassC() App { return workload.FT(workload.FTClassC) }

// ISClassC is the NAS IS class C kernel skeleton.
func ISClassC() App { return workload.IS(workload.ISClassC) }

// NASApp resolves any provided NPB kernel skeleton by its NPB name:
// ft/is (the paper's kernels) and cg/mg (library breadth), classes A-C,
// e.g. "ft.C" or "mg.B".
func NASApp(name string) (App, error) {
	if app, err := workload.NASApp(name); err == nil {
		return app, nil
	}
	return workload.NASExtraApp(name)
}

// CPMDApp returns the CPMD skeleton for one of the paper's datasets
// ("wat-32-inp-1", "wat-32-inp-2", "ta-inp-md").
func CPMDApp(dataset string) (App, error) {
	ds, err := workload.CPMDDatasetByName(dataset)
	if err != nil {
		return App{}, err
	}
	return workload.CPMD(ds), nil
}

// ClusterFor returns the paper's job configuration for 32 or 64 ranks.
func ClusterFor(procs int) (Config, error) { return workload.ClusterFor(procs) }

// RunApp executes an application skeleton under the given power scheme.
func RunApp(app App, cfg Config, mode PowerMode) (Report, error) {
	return workload.Run(app, cfg, mode)
}

// Analytical model.

// ModelFromConfig derives the paper's eq (1)-(8) parameters from a
// simulator configuration.
func ModelFromConfig(cfg Config) ModelParams { return model.FromConfig(cfg) }

// Experiments (the paper's figures and tables).

// Experiments lists every registered paper experiment in order.
func Experiments() []ExperimentSpec { return experiments.All() }

// RunExperiment runs one experiment by id ("fig2a" ... "table2",
// ablations) at the given scale (1.0 = paper fidelity).
func RunExperiment(id string, scale float64) (*ExperimentResult, error) {
	spec, ok := experiments.Lookup(id)
	if !ok {
		return nil, &UnknownExperimentError{ID: id}
	}
	return spec.Run(experiments.Options{Scale: scale})
}

// UnknownExperimentError reports an unregistered experiment id.
type UnknownExperimentError struct{ ID string }

func (e *UnknownExperimentError) Error() string {
	return "pacc: unknown experiment " + e.ID
}
