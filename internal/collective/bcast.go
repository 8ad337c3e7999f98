package collective

import (
	"pacc/internal/mpi"
	"pacc/internal/power"
	"pacc/internal/topology"
)

// ctrlTag returns a control-message tag above the pair-tag region of a
// block (pair tags occupy [block, block+P^2), P <= 512).
func ctrlTag(block, k int) int { return block + (1 << 18) + k }

// Bcast broadcasts bytes from communicator rank root to all ranks using
// MVAPICH2's multi-core aware scheme (§II-D): an inter-leader
// scatter-allgather across nodes followed by a shared-memory distribution
// within each node. Options.Power selects the paper's power schemes;
// Proposed throttles the non-leader socket to T7 and the leader socket to
// T4 during the network phase (§V-B, Figure 4).
func Bcast(c *mpi.Comm, root int, bytes int64, opt Options) error {
	if err := checkBytes("bcast", bytes); err != nil {
		return err
	}
	if err := checkRoot("bcast", root, c.Size()); err != nil {
		return err
	}
	opt.Power = opt.effectivePower(bytes)
	timeCollective(c, opt, "bcast", bytes, func() {
		switch opt.Power {
		case Proposed:
			withFreqScaling(c, func() { bcastMC(c, root, bytes, opt, true) })
		case FreqScaling:
			withFreqScaling(c, func() { bcastMC(c, root, bytes, opt, false) })
		default:
			bcastMC(c, root, bytes, opt, false)
		}
	})
	return nil
}

// BcastBinomial broadcasts with the flat binomial tree [23], ignoring the
// node topology — the paper's §V-B contrast case in which every process
// participates in network communication and throttling cannot be applied
// without large penalties. Plan-backed.
func BcastBinomial(c *mpi.Comm, root int, bytes int64, opt Options) error {
	if err := checkBytes("bcast_binomial", bytes); err != nil {
		return err
	}
	if err := checkRoot("bcast_binomial", root, c.Size()); err != nil {
		return err
	}
	opt.Power = opt.effectivePower(bytes)
	var err error
	timeCollective(c, opt, "bcast_binomial", bytes, func() {
		if opt.refImperative {
			if opt.Power == FreqScaling || opt.Power == Proposed {
				withFreqScaling(c, func() { binomialBcast(c, root, bytes, c.TagBlock()) })
				return
			}
			binomialBcast(c, root, bytes, c.TagBlock())
			return
		}
		spec := planSpec(bytes, nil, opt)
		spec.Root = root
		err = runPlanned(c, "bcast", "bcast_binomial", spec, opt)
	})
	return err
}

// bcastMC is the multi-core aware broadcast; throttle selects the §V-B
// T-state schedule (callers pass true only for Proposed).
func bcastMC(c *mpi.Comm, root int, bytes int64, opt Options, throttle bool) {
	r := c.Owner()
	me := c.Rank()
	if c.Size() == 1 {
		return
	}
	shmC, leadC := c.SplitByNode()
	block := c.TagBlock()

	// If the root is not its node's leader, stage the payload to the
	// leader over shared memory first.
	lay := layoutOf(c)
	rootLeader := lay.all[lay.idxOfNode[c.NodeOf(root)]][0]
	if me == root && me != rootLeader {
		c.Send(rootLeader, bytes, ctrlTag(block, 0))
	}
	if me == rootLeader && root != rootLeader {
		c.Recv(root, bytes, ctrlTag(block, 0))
	}

	isLeader := leadC != nil
	leaderSock := shmC.SocketOf(0)

	// §V-B throttle schedule for the network phase.
	if throttle {
		switch {
		case opt.CoreGranularThrottle && isLeader:
			// Future-architecture mode: the leader core stays T0.
		case opt.CoreGranularThrottle:
			r.SetThrottle(opt.deepT())
		case c.SocketOf(me) == leaderSock:
			r.SetThrottle(partialT)
		default:
			r.SetThrottle(opt.deepT())
		}
	}

	// Network phase: scatter-allgather among node leaders.
	timePhase(c, opt.Trace, PhaseNetwork, func() {
		if isLeader && leadC.Size() > 1 {
			lr := 0
			for i := 0; i < leadC.Size(); i++ {
				if leadC.Global(i) == c.Global(rootLeader) {
					lr = i
					break
				}
			}
			scatterAllgather(leadC, lr, bytes)
		}
	})
	if throttle && isLeader {
		r.SetThrottle(power.T0)
	}

	// Intra-node phase: the leader writes the payload into the shared
	// region; the other ranks copy it out concurrently once notified.
	timePhase(c, opt.Trace, PhaseIntra, func() {
		nblock := shmC.TagBlock()
		if shmC.Rank() == 0 {
			localCopy(c, bytes)
			for i := 1; i < shmC.Size(); i++ {
				shmC.Send(i, 0, ctrlTag(nblock, i))
			}
		} else {
			shmC.Recv(0, 0, ctrlTag(nblock, shmC.Rank()))
			if throttle {
				r.SetThrottle(power.T0)
			}
			localCopy(c, bytes)
		}
	})
}

// binomialBcast is the classic binomial tree broadcast.
func binomialBcast(c *mpi.Comm, root int, bytes int64, block int) {
	n, me := c.Size(), c.Rank()
	if n == 1 {
		return
	}
	vr := (me - root + n) % n
	// Receive from the parent: vr with its lowest set bit cleared.
	mask := 1
	for mask < n && vr&mask == 0 {
		mask <<= 1
	}
	if vr != 0 {
		parent := ((vr - mask) + root) % n
		c.Recv(parent, bytes, c.PairTag(block, parent, me))
	} else {
		for mask < n {
			mask <<= 1
		}
	}
	// Forward to children at decreasing distances.
	for m := mask >> 1; m >= 1; m >>= 1 {
		if vr+m < n {
			child := (vr + m + root) % n
			c.Send(child, bytes, c.PairTag(block, me, child))
		}
	}
}

// scatterAllgather implements the large-message broadcast of §VI-A.1:
// binomial scatter of total/N chunks from root, then a ring allgather.
func scatterAllgather(c *mpi.Comm, root int, total int64) {
	n := c.Size()
	if n <= 1 {
		return
	}
	chunk := (total + int64(n) - 1) / int64(n)
	block := c.TagBlock()
	binomialScatter(c, root, chunk, block)
	ringAllgather(c, chunk, block)
}

// binomialScatter distributes per-rank chunks from root: the owner of a
// contiguous vrank range repeatedly ships the upper half's chunks to the
// upper half's first rank.
func binomialScatter(c *mpi.Comm, root int, chunk int64, block int) {
	n, me := c.Size(), c.Rank()
	vr := (me - root + n) % n
	lo, hi := 0, n
	for hi-lo > 1 {
		half := (hi - lo) / 2
		upper := hi - half
		if vr < upper {
			if vr == lo {
				dst := (upper + root) % n
				c.Send(dst, int64(hi-upper)*chunk, c.PairTag(block, me, dst))
			}
			hi = upper
		} else {
			if vr == upper {
				src := (lo + root) % n
				c.Recv(src, int64(hi-upper)*chunk, c.PairTag(block, src, me))
			}
			lo = upper
		}
	}
}

// ringAllgather circulates chunks around the ring for n-1 steps.
func ringAllgather(c *mpi.Comm, chunk int64, block int) {
	n, me := c.Size(), c.Rank()
	right := (me + 1) % n
	left := (me - 1 + n) % n
	for s := 0; s < n-1; s++ {
		tag := block + (1 << 17) + s
		c.Exchange(right, chunk, tag, left, chunk, tag)
	}
}

// leaderSocketOf reports the socket hosting the node leader (shm rank 0).
func leaderSocketOf(shmC *mpi.Comm) topology.SocketID { return shmC.SocketOf(0) }
