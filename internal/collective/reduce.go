package collective

import (
	"pacc/internal/mpi"
	"pacc/internal/power"
	"pacc/internal/simtime"
)

// Reduce combines bytes from every rank onto communicator rank root using
// the multi-core aware scheme: node-local contributions are merged by the
// node leader through shared memory, then the leaders run a binomial
// reduce across the network. Options.Power selects the power schemes of
// §V-B (Proposed throttles the non-leader socket to T7 and the leader
// socket to T4 during the network phase).
func Reduce(c *mpi.Comm, root int, bytes int64, opt Options) error {
	if err := checkBytes("reduce", bytes); err != nil {
		return err
	}
	if err := checkRoot("reduce", root, c.Size()); err != nil {
		return err
	}
	opt.Power = opt.effectivePower(bytes)
	timeCollective(c, opt, "reduce", bytes, func() {
		switch opt.Power {
		case Proposed:
			withFreqScaling(c, func() { reduceMC(c, root, bytes, opt, true) })
		case FreqScaling:
			withFreqScaling(c, func() { reduceMC(c, root, bytes, opt, false) })
		default:
			reduceMC(c, root, bytes, opt, false)
		}
	})
	return nil
}

// ReduceBinomial reduces with the flat binomial tree, ignoring node
// topology.
func ReduceBinomial(c *mpi.Comm, root int, bytes int64, opt Options) error {
	if err := checkBytes("reduce_binomial", bytes); err != nil {
		return err
	}
	if err := checkRoot("reduce_binomial", root, c.Size()); err != nil {
		return err
	}
	opt.Power = opt.effectivePower(bytes)
	timeCollective(c, opt, "reduce_binomial", bytes, func() {
		if opt.Power == FreqScaling || opt.Power == Proposed {
			withFreqScaling(c, func() { binomialReduce(c, root, bytes, opt, c.TagBlock()) })
			return
		}
		binomialReduce(c, root, bytes, opt, c.TagBlock())
	})
	return nil
}

// reduceOp charges the cost of merging one buffer of the given size into
// the accumulator — streaming work, so it stretches with the copy
// slowdown rather than the full clock ratio.
func reduceOp(c *mpi.Comm, bytes int64, opt Options) {
	c.Owner().StreamCompute(simtime.DurationOf(float64(bytes) / reduceBytesPerSec))
}

func reduceMC(c *mpi.Comm, root int, bytes int64, opt Options, throttle bool) {
	r := c.Owner()
	me := c.Rank()
	if c.Size() == 1 {
		return
	}
	shmC, leadC := c.SplitByNode()
	block := c.TagBlock()
	isLeader := leadC != nil
	leaderSock := leaderSocketOf(shmC)

	// Intra-node phase: non-leaders write their contribution into the
	// shared region and notify; the leader merges them in.
	timePhase(c, opt.Trace, PhaseIntra, func() {
		if shmC.Rank() != 0 {
			localCopy(c, bytes)
			shmC.Send(0, 0, ctrlTag(block, shmC.Rank()))
		} else {
			for i := 1; i < shmC.Size(); i++ {
				shmC.Recv(i, 0, ctrlTag(block, i))
				localCopy(c, bytes)
				reduceOp(c, bytes, opt)
			}
		}
	})

	// §V-B throttle schedule for the network phase.
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

	// Network phase: binomial reduce across leaders to the root's
	// leader, then a hop to the root if it is not a leader.
	lay := layoutOf(c)
	rootLeader := lay.all[lay.idxOfNode[c.NodeOf(root)]][0]
	timePhase(c, opt.Trace, PhaseNetwork, func() {
		if isLeader && leadC.Size() > 1 {
			lr := 0
			for i := 0; i < leadC.Size(); i++ {
				if leadC.Global(i) == c.Global(rootLeader) {
					lr = i
					break
				}
			}
			binomialReduce(leadC, lr, bytes, opt, leadC.TagBlock())
		}
	})
	if throttle && isLeader {
		r.SetThrottle(power.T0)
	}
	if me == rootLeader && root != rootLeader {
		c.Send(root, bytes, ctrlTag(block, 1<<12))
	}
	if me == root && root != rootLeader {
		c.Recv(rootLeader, bytes, ctrlTag(block, 1<<12))
	}

	// Release: with throttling, non-leaders wait at T7 until the leader
	// finishes the network phase, then restore T0 (the paper's
	// "throttled up at the end of it").
	if throttle {
		nblock := shmC.TagBlock()
		if shmC.Rank() == 0 {
			for i := 1; i < shmC.Size(); i++ {
				shmC.Send(i, 0, ctrlTag(nblock, i))
			}
		} else {
			shmC.Recv(0, 0, ctrlTag(nblock, shmC.Rank()))
			r.SetThrottle(power.T0)
		}
	}
}

// binomialReduce runs the classic binomial reduction tree: in round k,
// ranks with bit k set send their partial result toward the root.
func binomialReduce(c *mpi.Comm, root int, bytes int64, opt Options, block int) {
	n, me := c.Size(), c.Rank()
	if n == 1 {
		return
	}
	vr := (me - root + n) % n
	for mask := 1; mask < n; mask <<= 1 {
		if vr&mask != 0 {
			parent := ((vr - mask) + root) % n
			c.Send(parent, bytes, c.PairTag(block, me, parent))
			return
		}
		peer := vr + mask
		if peer < n {
			child := (peer + root) % n
			c.Recv(child, bytes, c.PairTag(block, child, me))
			reduceOp(c, bytes, opt)
		}
	}
}
