package plan

import (
	"fmt"

	"pacc/internal/mpi"
	"pacc/internal/obs"
	"pacc/internal/simtime"
)

// Env is the execution environment of one plan run on one rank.
type Env struct {
	// Comm is the communicator the plan was built for; the executor runs
	// the schedule of rank Comm.Rank().
	Comm *mpi.Comm
	// ReduceBytesPerSec is the full-speed local reduction rate charged
	// by OpReduce steps (must be positive when the plan reduces).
	ReduceBytesPerSec float64
	// OnPhase, when non-nil, receives each closed phase's name and
	// duration (the per-phase trace accrual of the collective layer).
	OnPhase func(name string, d simtime.Duration)
}

// Execute runs the calling rank's schedule of a plan over the MPI layer.
// It must be called SPMD — every member of the communicator executes the
// same plan — and assumes the plan has been verified (Verify); malformed
// steps surface as errors, not panics.
//
// The executor owns the power annotations: OpPower steps apply the
// DVFS/throttle transitions that the imperative algorithms wove into
// their send/recv loops, so an algorithm ported to a plan carries its
// power schedule as data.
func Execute(p *Plan, env Env) error {
	c := env.Comm
	if p == nil || c == nil {
		return fmt.Errorf("plan: Execute needs a plan and a communicator")
	}
	me := c.Rank()
	if p.P != c.Size() {
		return fmt.Errorf("plan %q: built for %d ranks, executed on %d", p.Name, p.P, c.Size())
	}
	if me < 0 || me >= len(p.Steps) {
		return fmt.Errorf("plan %q: rank %d outside schedule", p.Name, me)
	}
	block := 0
	if p.NeedsTagBlock {
		block = c.TagBlock()
	}
	r := c.Owner()
	var bus *obs.Bus = r.World().Obs()
	in := r.World().Injector()
	// tainted marks this rank's reduction accumulator as hit by a memory-
	// corruption burst; the next OpVerify detects it (a plan carries no
	// values, so the taint bit is the IR-level image of the checked
	// collectives' sum != check comparison).
	tainted := false

	type openPhase struct {
		name  string
		start simtime.Time
	}
	var phases []openPhase

	for i, s := range p.Steps[me] {
		// A communication step that fails — a peer died mid-schedule, the
		// communicator was revoked — aborts the whole schedule: the
		// remaining steps would block on a schedule the group is no
		// longer executing. The error wraps the mpi failure so a
		// resilient runner can recognize it (mpi.IsFailure), agree,
		// shrink, rebuild and re-verify a plan for the survivors, and
		// re-execute.
		var opErr error
		switch s.Op {
		case OpSend:
			opErr = c.Send(s.Peer, s.Bytes, block+s.Tag)
		case OpRecv:
			opErr = c.Recv(s.Peer, s.Bytes, block+s.Tag)
		case OpSendRecv:
			opErr = c.Exchange(s.SendTo, s.SendBytes, block+s.SendTag,
				s.RecvFrom, s.RecvBytes, block+s.RecvTag)
		case OpReduce:
			if s.Bytes > 0 && env.ReduceBytesPerSec <= 0 {
				return fmt.Errorf("plan %q: rank %d step %d reduces with no rate configured", p.Name, me, i)
			}
			r.StreamCompute(simtime.DurationOf(float64(s.Bytes) / env.ReduceBytesPerSec))
			if s.Bytes > 0 {
				if _, hit := in.MemCorrupt(r.ID(), r.Now().Sub(simtime.Time(0))); hit {
					tainted = true
					if bus != nil {
						bus.Add(obs.CtrFaultMemCorruptions, 1)
						bus.Instant(r.ObsTrack(), "mem corrupt", nil)
					}
				}
			}
		case OpCopy:
			if s.Bytes > 0 {
				r.MemCopy(s.Bytes)
			}
		case OpCompute:
			r.Compute(simtime.DurationOf(s.Seconds))
		case OpPower:
			switch s.Power.Kind {
			case PowerFreqMin:
				r.ScaleDown()
			case PowerFreqMax:
				r.ScaleUp()
			case PowerThrottle:
				r.SetThrottle(s.Power.TState)
			default:
				return fmt.Errorf("plan %q: rank %d step %d has unknown power action %d", p.Name, me, i, s.Power.Kind)
			}
		case OpVerify:
			if s.Bytes > 0 {
				r.StreamCompute(simtime.DurationOf(float64(s.Bytes) / DefaultVerifyBytesPerSec))
			}
			if tainted {
				tainted = false
				if bus != nil {
					bus.Add(obs.CtrIntegrityVerifyFails, 1)
					bus.Instant(r.ObsTrack(), "abft verify failed", nil)
				}
				opErr = &IntegrityError{Plan: p.Name, Rank: me, Step: i}
			}
		case OpPhaseBegin:
			phases = append(phases, openPhase{name: s.Phase, start: r.Now()})
		case OpPhaseEnd:
			if len(phases) == 0 {
				return fmt.Errorf("plan %q: rank %d step %d closes a phase that was never opened", p.Name, me, i)
			}
			ph := phases[len(phases)-1]
			phases = phases[:len(phases)-1]
			end := r.Now()
			if env.OnPhase != nil {
				env.OnPhase(ph.name, end.Sub(ph.start))
			}
			if bus != nil {
				bus.Span(r.ObsTrack(), "phase "+ph.name, ph.start, end, nil)
			}
		default:
			return fmt.Errorf("plan %q: rank %d step %d has unknown op %v", p.Name, me, i, s.Op)
		}
		if opErr != nil {
			return fmt.Errorf("plan %q: rank %d step %d (%v): %w", p.Name, me, i, s.Op, opErr)
		}
	}
	if len(phases) != 0 {
		return fmt.Errorf("plan %q: rank %d finished with %d phase(s) open", p.Name, me, len(phases))
	}
	return nil
}
