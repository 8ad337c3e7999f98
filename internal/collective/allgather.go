package collective

import (
	"pacc/internal/mpi"
	"pacc/internal/power"
)

// Allgather gathers bytes from every rank to every rank using the
// multi-core aware scheme of [15]: intra-node gather to the leader, ring
// allgather of node-sized blocks across leaders, intra-node distribution.
// Proposed applies the §V-B throttle schedule during the leader phase.
func Allgather(c *mpi.Comm, bytes int64, opt Options) error {
	if err := checkBytes("allgather", bytes); err != nil {
		return err
	}
	opt.Power = opt.effectivePower(bytes)
	timeCollective(c, opt, "allgather", bytes, func() {
		switch opt.Power {
		case Proposed:
			withFreqScaling(c, func() { allgatherMC(c, bytes, opt, true) })
		case FreqScaling:
			withFreqScaling(c, func() { allgatherMC(c, bytes, opt, false) })
		default:
			allgatherMC(c, bytes, opt, false)
		}
	})
	return nil
}

// AllgatherRing runs the flat ring algorithm: P-1 steps, each forwarding
// one rank's block. Plan-backed: the call builds (or auto-selects, see
// Options.Plan) a verified schedule and runs it through the plan
// executor.
func AllgatherRing(c *mpi.Comm, bytes int64, opt Options) error {
	if err := checkBytes("allgather_ring", bytes); err != nil {
		return err
	}
	opt.Power = opt.effectivePower(bytes)
	var err error
	timeCollective(c, opt, "allgather_ring", bytes, func() {
		if opt.refImperative {
			run := func() { ringAllgather(c, bytes, c.TagBlock()) }
			if opt.Power == FreqScaling || opt.Power == Proposed {
				withFreqScaling(c, run)
				return
			}
			run()
			return
		}
		err = runPlanned(c, "allgather", "allgather_ring", planSpec(bytes, nil, opt), opt)
	})
	return err
}

// AllgatherRD runs the recursive-doubling algorithm (power-of-two sizes
// double the exchanged block each round); non-power-of-two communicators
// fall back to the ring. Plan-backed.
func AllgatherRD(c *mpi.Comm, bytes int64, opt Options) error {
	if err := checkBytes("allgather_rd", bytes); err != nil {
		return err
	}
	opt.Power = opt.effectivePower(bytes)
	var err error
	timeCollective(c, opt, "allgather_rd", bytes, func() {
		if opt.refImperative {
			run := func() {
				if !isPow2(c.Size()) {
					ringAllgather(c, bytes, c.TagBlock())
					return
				}
				recursiveDoublingAllgather(c, bytes, c.TagBlock())
			}
			if opt.Power == FreqScaling || opt.Power == Proposed {
				withFreqScaling(c, run)
				return
			}
			run()
			return
		}
		canonical := "allgather_rd"
		if !isPow2(c.Size()) {
			canonical = "allgather_ring"
		}
		err = runPlanned(c, "allgather", canonical, planSpec(bytes, nil, opt), opt)
	})
	return err
}

func recursiveDoublingAllgather(c *mpi.Comm, bytes int64, block int) {
	n, me := c.Size(), c.Rank()
	have := bytes
	for mask := 1; mask < n; mask <<= 1 {
		peer := me ^ mask
		tag := c.PairTag(block, me, peer) + (1<<17)*logOf(mask)
		c.Exchange(peer, have, tag, peer, have, tag)
		have *= 2
	}
}

func allgatherMC(c *mpi.Comm, bytes int64, opt Options, throttle bool) {
	r := c.Owner()
	me := c.Rank()
	if c.Size() == 1 {
		return
	}
	shmC, leadC := c.SplitByNode()
	block := c.TagBlock()
	isLeader := leadC != nil
	leaderSock := leaderSocketOf(shmC)
	ppn := int64(shmC.Size())

	// Intra gather: non-leaders deposit their block, leader collects.
	timePhase(c, opt.Trace, PhaseIntra, func() {
		if shmC.Rank() != 0 {
			localCopy(c, bytes)
			shmC.Send(0, 0, ctrlTag(block, shmC.Rank()))
		} else {
			for i := 1; i < shmC.Size(); i++ {
				shmC.Recv(i, 0, ctrlTag(block, i))
				localCopy(c, bytes)
			}
		}
	})

	if throttle {
		switch {
		case opt.CoreGranularThrottle && isLeader:
		case opt.CoreGranularThrottle:
			r.SetThrottle(opt.deepT())
		case c.SocketOf(me) == leaderSock:
			r.SetThrottle(partialT)
		default:
			r.SetThrottle(opt.deepT())
		}
	}

	// Network phase: ring allgather of node blocks (ppn * bytes each).
	timePhase(c, opt.Trace, PhaseNetwork, func() {
		if isLeader && leadC.Size() > 1 {
			ringAllgather(leadC, ppn*bytes, leadC.TagBlock())
		}
	})
	if throttle && isLeader {
		r.SetThrottle(power.T0)
	}

	// Intra distribution: leader publishes the full P*bytes result; the
	// others copy it out.
	timePhase(c, opt.Trace, PhaseIntra, func() {
		total := int64(c.Size()) * bytes
		nblock := shmC.TagBlock()
		if shmC.Rank() == 0 {
			localCopy(c, total)
			for i := 1; i < shmC.Size(); i++ {
				shmC.Send(i, 0, ctrlTag(nblock, i))
			}
		} else {
			shmC.Recv(0, 0, ctrlTag(nblock, shmC.Rank()))
			if throttle {
				r.SetThrottle(power.T0)
			}
			localCopy(c, total)
		}
	})
}
