package mpi

import (
	"fmt"

	"pacc/internal/obs"
	"pacc/internal/power"
	"pacc/internal/simtime"
	"pacc/internal/topology"
)

// Rank is one MPI process: a simulated proc pinned to a core, with a
// mailbox for incoming messages. All methods must be called from the
// rank's own body (SPMD style), except where noted.
type Rank struct {
	world *World
	id    int
	proc  *simtime.Proc
	core  *power.Core
	box   mailbox
	// sendSeq numbers outgoing messages per destination. Its only
	// reader is the fault injector, which hashes (src, dst, seq,
	// attempt) to pick lost and corrupted attempts, so Isend counts only
	// while an injector is enabled and the map stays nil otherwise.
	// Sparse: a rank messages O(log P) peers in tree/dissemination
	// collectives, while a dense per-destination array would be O(P)
	// per rank — O(P²) for the job, gigabytes at 64k ranks.
	sendSeq map[int]uint64
	// commSeq counts communicator creations for congruent tag-space ids.
	commSeq int
	// wireBuf is the reusable lane buffer behind takeWires.
	wireBuf []float64
	// track is this rank's timeline in the observability bus.
	track obs.Track
	// wantFreq / wantT are the power state this rank last *asked* for.
	// They normally shadow the core's actual state; they diverge exactly
	// when a transition write is silently lost (fault stickfail=), which
	// is the signature of a power-management gray failure — the rank
	// believes it runs at wantFreq while the core grinds at something
	// slower. The fail-slow scoreboard measures lag against the intended
	// state, and RecoverPower re-issues it.
	wantFreq float64
	wantT    power.TState
	// The armed wait this rank is parked in (waitOn nil when none): its
	// future, the peer and communicator whose failure fails it (-1 for
	// none), and when it began (see awaitFT).
	waitOn             *simtime.Future
	waitPeer, waitComm int
	waitSeq            uint64
}

func newRank(w *World, id int, core *power.Core) *Rank {
	return &Rank{
		world:    w,
		id:       id,
		core:     core,
		track:    obs.RankTrack(w.place.NodeOf(id), id),
		wantFreq: core.FreqGHz(),
		wantT:    core.Throttle(),
	}
}

// ID returns the global rank number.
func (r *Rank) ID() int { return r.id }

// World returns the job this rank belongs to.
func (r *Rank) World() *World { return r.world }

// Core returns the power tracker of the core this rank is bound to.
func (r *Rank) Core() *power.Core { return r.core }

// Node returns the node index this rank runs on.
func (r *Rank) Node() int { return r.world.place.NodeOf(r.id) }

// ObsTrack returns this rank's timeline in the observability bus (used by
// the collective package for phase spans).
func (r *Rank) ObsTrack() obs.Track { return r.track }

// Socket returns the socket this rank's core sits on.
func (r *Rank) Socket() topology.SocketID { return r.world.place.SocketOf(r.id) }

// Now returns the current virtual time.
func (r *Rank) Now() simtime.Time { return r.proc.Now() }

// speed is the core's current effective execution speed for clock-bound
// work.
func (r *Rank) speed() float64 { return r.core.Speed() }

// copySpeed is the core's effective speed for streaming memory work.
func (r *Rank) copySpeed() float64 { return r.core.CopySpeed() }

// computeStretch is the injected multiplicative slowdown of one
// clock-bound call: the straggler factor (with jitter) times any covering
// fail-slow window. Exactly 1 for healthy calls — no float perturbation —
// and the slow-window lookup is skipped entirely for ranks with no
// windows, so fault-free timing is bit-identical.
func (r *Rank) computeStretch() float64 {
	s := r.world.inj.ComputeScale(r.id)
	if r.world.inj.HasSlow(r.id) {
		s *= r.world.inj.SlowScale(r.id, simtime.Duration(r.proc.Now()))
	}
	return s
}

// powerLag is the slowdown the rank's *intended* power state does not
// explain: intended-over-actual effective speed, 1 when the core is in
// the state the rank asked for. It diverges from 1 exactly after a lost
// transition write (fault stickfail=) — the measurable signature of a
// power-management gray failure.
func (r *Rank) powerLag() float64 {
	if r.wantFreq == r.core.FreqGHz() && r.wantT == r.core.Throttle() {
		return 1
	}
	want := r.world.cfg.Power.Speed(r.wantFreq, r.wantT)
	got := r.speed()
	if want <= 0 || got <= 0 {
		return 1
	}
	return want / got
}

// busySleep advances time by d scaled up by the core's current slowdown.
// The caller's core is busy throughout (ranks are busy by default). A
// straggler or fail-slow rank (fault injection) stretches further by its
// injected stretch; the multiply is skipped when the stretch is exactly 1.
// With fail-slow detection armed, the call also folds its observed/
// expected ratio into the rank's scoreboard EWMA — bookkeeping only, no
// virtual time.
func (r *Rank) busySleep(d simtime.Duration) {
	if d <= 0 {
		return
	}
	sec := d.Seconds() / r.speed()
	s := r.computeStretch()
	if s != 1 {
		sec *= s
	}
	if sb := r.world.sb; sb != nil {
		sb.note(r.id, s*r.powerLag())
	}
	r.proc.Sleep(simtime.DurationOf(sec))
}

// copySleep advances time by d scaled by the streaming-copy slowdown
// (and the injected stretch, as in busySleep).
func (r *Rank) copySleep(d simtime.Duration) {
	if d <= 0 {
		return
	}
	sec := d.Seconds() / r.copySpeed()
	s := r.computeStretch()
	if s != 1 {
		sec *= s
	}
	if sb := r.world.sb; sb != nil {
		sb.note(r.id, s*r.powerLag())
	}
	r.proc.Sleep(simtime.DurationOf(sec))
}

// transitionSleep pays one hardware-paced P/T-state transition latency
// plus any injected extra settle time (a slow or stuck transition).
func (r *Rank) transitionSleep(base simtime.Duration, dvfs bool) {
	if extra := r.core.TransitionDelay(dvfs); extra > 0 {
		base += extra
		if b := r.world.obs; b != nil {
			b.Add(obs.CtrFaultPowerDelays, 1)
			b.AddDuration(obs.DurFaultPowerDelay, extra)
		}
	}
	r.proc.Sleep(base)
}

// MemCopy charges the cost of one streaming copy of the given size
// through local memory (at the shared-memory channel's bandwidth),
// stretched by the core's copy slowdown. Collectives use it for
// self-blocks, buffer rotations, and shared-region reads/writes.
func (r *Rank) MemCopy(bytes int64) {
	r.copySleep(r.world.cfg.Shm.CopyTime(bytes, 1.0))
}

// StreamCompute models memory-streaming computation (e.g. reducing one
// buffer into another) that would take d at full speed.
func (r *Rank) StreamCompute(d simtime.Duration) {
	r.copySleep(d)
}

// Compute models CPU work that would take the given duration on an
// unthrottled core at fmax; it stretches with DVFS and throttling.
func (r *Rank) Compute(atFullSpeed simtime.Duration) {
	r.busySleep(atFullSpeed)
}

// ComputeSeconds is Compute with a float64 seconds argument.
func (r *Rank) ComputeSeconds(secs float64) {
	r.Compute(simtime.DurationOf(secs))
}

// await blocks on a future with the configured progression semantics:
// polling spins (core stays busy), blocking idles the core and pays the
// interrupt + reschedule latency on wakeup. With observability attached,
// the wait is accrued into the spin/block wait-time metric and, when the
// bus records a timeline, recorded as a span on the rank's timeline
// (carrying the peer rank being waited on, when known — the dependency
// edge the analytics engine's critical-path walk follows). peer < 0 (or
// self) records no edge. A failure-aware wait (armed) takes one more
// same-instant hop after it wakes, and one in place of parking when f is
// nil because its failure is already known, so it resumes exactly where
// a wait woken through a completion callback would.
func (r *Rank) await(f *simtime.Future, reason string, peer int, armed bool) {
	if f != nil && f.IsDone() {
		return
	}
	b := r.world.obs
	var start simtime.Time
	if b != nil {
		start = b.Now()
	}
	dur := obs.DurWaitSpin
	blocking := r.world.cfg.Mode == Blocking
	if blocking {
		dur = obs.DurWaitBlock
		r.core.SetBusy(false)
	}
	if f != nil {
		f.Await(r.proc, reason)
	} else {
		r.proc.Sleep(0)
	}
	if armed {
		r.proc.Sleep(0)
	}
	if blocking {
		r.core.SetBusy(true)
		r.busySleep(r.world.cfg.InterruptLatency)
	}
	if b == nil {
		return
	}
	end := b.Now()
	if b.Tracing() {
		var args map[string]any
		if peer >= 0 && peer != r.id {
			args = map[string]any{"peer": peer}
		}
		b.Span(r.track, "wait "+reason, start, end, args)
	}
	b.AddDuration(dur, end.Sub(start))
}

// SetFreq performs one DVFS transition on this rank's core, paying the
// model's Odvfs latency. The transition is hardware-paced (an MSR write
// plus PLL settle), so it does not stretch with the core's own slowdown.
// Under fault stickfail= the write may be silently lost after paying the
// latency: the core keeps its old frequency while the rank's intended
// state (wantFreq) moves on — see RecoverPower.
func (r *Rank) SetFreq(ghz float64) {
	target := r.world.cfg.Power.ClampFreq(ghz)
	r.wantFreq = target
	if r.core.FreqGHz() == target {
		return
	}
	r.transitionSleep(r.world.cfg.Power.ODVFS, true)
	if r.world.inj.TransitionLost(r.core.ID(), true) {
		if b := r.world.obs; b != nil {
			b.Add(obs.CtrFaultTransitionsLost, 1)
			if b.Tracing() {
				b.Instant(r.track, fmt.Sprintf("dvfs write lost (want %.1fGHz, stuck at %.1fGHz)",
					target, r.core.FreqGHz()), nil)
			}
		}
		return
	}
	r.core.SetFreq(ghz)
	if b := r.world.obs; b != nil {
		b.Add(obs.CtrDVFSTransitions, 1)
		b.AddDuration(obs.DurDVFSOverhead, r.world.cfg.Power.ODVFS)
		if b.Tracing() {
			b.Instant(r.track, fmt.Sprintf("dvfs %.1fGHz", r.core.FreqGHz()), nil)
		}
	}
}

// ScaleDown moves the core to fmin (start of a power-aware collective).
func (r *Rank) ScaleDown() { r.SetFreq(r.world.cfg.Power.FMinGHz) }

// ScaleUp restores the core to fmax (end of a power-aware collective).
func (r *Rank) ScaleUp() { r.SetFreq(r.world.cfg.Power.FMaxGHz) }

// SetThrottle performs one T-state transition, paying the hardware-paced
// Othrottle latency. Like SetFreq, the write may be silently lost under
// fault stickfail=.
func (r *Rank) SetThrottle(t power.TState) {
	r.wantT = t
	if r.core.Throttle() == t {
		return
	}
	r.transitionSleep(r.world.cfg.Power.OThrottle, false)
	if r.world.inj.TransitionLost(r.core.ID(), false) {
		if b := r.world.obs; b != nil {
			b.Add(obs.CtrFaultTransitionsLost, 1)
			if b.Tracing() {
				b.Instant(r.track, fmt.Sprintf("throttle write lost (want %v, stuck at %v)",
					t, r.core.Throttle()), nil)
			}
		}
		return
	}
	r.core.SetThrottle(t)
	if b := r.world.obs; b != nil {
		b.Add(obs.CtrThrottleTransitions, 1)
		b.AddDuration(obs.DurThrottleOverhead, r.world.cfg.Power.OThrottle)
		if b.Tracing() {
			b.Instant(r.track, fmt.Sprintf("throttle %v", t), nil)
		}
	}
}

// PowerSynced reports whether the core is in the power state this rank
// last asked for. It is false exactly while a lost transition write
// (fault stickfail=) leaves the rank running degraded.
func (r *Rank) PowerSynced() bool {
	return r.core.FreqGHz() == r.wantFreq && r.core.Throttle() == r.wantT
}

// DefaultPowerRecoveryRetries bounds RecoverPower's re-issue attempts
// when the caller passes attempts <= 0.
const DefaultPowerRecoveryRetries = 3

// RecoverPower re-issues the rank's intended P/T-state until the core
// confirms it, paying the usual transition latency per attempt, bounded
// by attempts (<= 0 selects DefaultPowerRecoveryRetries). It reports
// whether the core ended in sync. This is the first-line fail-slow
// mitigation: a rank whose only sickness is a lost DVFS/throttle write
// heals here and never needs demotion.
func (r *Rank) RecoverPower(attempts int) bool {
	if r.PowerSynced() {
		return true
	}
	if attempts <= 0 {
		attempts = DefaultPowerRecoveryRetries
	}
	for i := 0; i < attempts && !r.PowerSynced(); i++ {
		if r.core.FreqGHz() != r.wantFreq {
			r.SetFreq(r.wantFreq)
		}
		if r.core.Throttle() != r.wantT {
			r.SetThrottle(r.wantT)
		}
	}
	ok := r.PowerSynced()
	if b := r.world.obs; b != nil && ok {
		b.Add(obs.CtrFaultPowerRecoveries, 1)
		b.Instant(r.track, "power state recovered", nil)
	}
	return ok
}

// p2pScaleDown implements the PowerAwareP2P option: if enabled, the core
// is at fmax (no collective is managing it), and the wait is not already
// over, drop to fmin for the duration of an intra-node rendezvous wait.
// It reports whether it scaled down; the caller then restores fmax with
// ScaleUp when the wait is over.
func (r *Rank) p2pScaleDown(pending *simtime.Future) bool {
	cfg := &r.world.cfg
	if !cfg.PowerAwareP2P || pending.IsDone() || r.core.FreqGHz() < cfg.Power.FMaxGHz {
		return false
	}
	r.SetFreq(cfg.Power.FMinGHz)
	return true
}

// Idle parks the rank for d of virtual time with the core idle — used by
// workload skeletons for I/O or imbalance gaps, not by collectives.
func (r *Rank) Idle(d simtime.Duration) {
	r.core.SetBusy(false)
	r.proc.Sleep(d)
	r.core.SetBusy(true)
}
