package collective

import (
	"math/bits"

	"pacc/internal/mpi"
	"pacc/internal/obs"
)

// Barrier synchronizes all members of the communicator with the
// dissemination algorithm: ceil(log2 P) rounds; in round k each rank
// signals (rank + 2^k) mod P and waits for (rank - 2^k) mod P.
func Barrier(c *mpi.Comm) {
	p := c.Size()
	if p <= 1 {
		return
	}
	r := c.Owner()
	if b := r.World().Obs(); b != nil {
		start := r.Now()
		defer func() {
			b.Span(r.ObsTrack(), "barrier", start, r.Now(), nil)
			if c.Rank() == 0 {
				b.Add(obs.CollectivePrefix+"barrier.calls", 1)
			}
		}()
	}
	// The rounds run as one exchange sequence, so the rank parks once
	// for the whole barrier; each round posts the receive, starts the
	// send and completes both, then recycles the two requests.
	c.ExchangeSteps(c.TagBlock(), disseminationRounds[:bits.Len(uint(p-1))])
}

// disseminationRounds are the barrier's rounds relative to the calling
// rank, shared read-only by every rank and every call: round k signals
// the rank 2^k places ahead and waits for the one 2^k places behind,
// with tag k of the call's block.
var disseminationRounds = func() []mpi.Step {
	steps := make([]mpi.Step, bits.UintSize-1)
	for k := range steps {
		steps[k] = mpi.Step{SendTo: 1 << k, SendTag: k, RecvFrom: -(1 << k), RecvTag: k}
	}
	return steps
}()
