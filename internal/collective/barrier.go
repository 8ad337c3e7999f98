package collective

import (
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
	me := c.Rank()
	block := c.TagBlock()
	round := 0
	for dist := 1; dist < p; dist <<= 1 {
		tag := block + round
		// Exchange posts the receive, starts the send and waits on
		// both, then recycles the two requests.
		c.Exchange((me+dist)%p, 0, tag, (me-dist+p)%p, 0, tag)
		round++
	}
}
