package mpi

import (
	"testing"

	"pacc/internal/fault"
	"pacc/internal/simtime"
)

// TestBlockingCallsParkOnce checks that every blocking message call
// switches into the rank's coroutine at most once, whatever waits it
// makes on the way: eager and rendezvous protocols over shared memory
// and the network, blocking-mode interrupt latency, power-aware p2p
// transitions and the crash-armed wait's hop. Each participating rank
// counts its blocking calls; the engine's switches may not exceed those
// calls plus every rank's first run.
func TestBlockingCallsParkOnce(t *testing.T) {
	cases := []struct {
		name  string
		peer  int // rank 0's partner: 1 shares its node, 2 does not
		bytes int64
	}{
		{"shm/eager", 1, 1 << 10},
		{"shm/rendezvous", 1, 64 << 10},
		{"net/eager", 2, 1 << 10},
		{"net/rendezvous", 2, 64 << 10},
	}
	configs := []struct {
		name  string
		setup func(t *testing.T, cfg *Config)
	}{
		{"polling", func(*testing.T, *Config) {}},
		{"blocking", func(_ *testing.T, cfg *Config) { cfg.Mode = Blocking }},
		{"p2p-power", func(_ *testing.T, cfg *Config) { cfg.PowerAwareP2P = true }},
		{"crash-armed", func(t *testing.T, cfg *Config) {
			spec, err := fault.Parse("seed=1;crash=3@1s")
			if err != nil {
				t.Fatal(err)
			}
			cfg.Fault = spec
		}},
	}
	for _, cc := range configs {
		for _, c := range cases {
			t.Run(cc.name+"/"+c.name, func(t *testing.T) {
				cfg := testConfig()
				cc.setup(t, &cfg)
				w := mustWorld(t, cfg)
				calls := 0
				w.Launch(func(r *Rank) {
					peer := -1
					switch r.ID() {
					case 0:
						peer = c.peer
					case c.peer:
						peer = 0
					}
					if peer < 0 {
						return
					}
					comm := CommWorld(r)
					check := func(err error) {
						calls++
						if err != nil {
							t.Error(err)
						}
					}
					for round := 0; round < 3; round++ {
						tag := 10 * round
						check(comm.SendRecv(peer, c.bytes, peer, c.bytes, tag))
						check(comm.Exchange(peer, c.bytes, tag+1, peer, c.bytes, tag+1))
						if r.ID() == 0 {
							check(comm.Send(peer, c.bytes, tag+2))
							check(comm.Recv(peer, c.bytes, tag+3))
							check(r.SendValue(peer, c.bytes, tag+4, 1.5))
						} else {
							check(comm.Recv(peer, c.bytes, tag+2))
							check(comm.Send(peer, c.bytes, tag+3))
							v, err := r.RecvValue(peer, c.bytes, tag+4)
							check(err)
							if v != 1.5 {
								t.Errorf("RecvValue = %v, want 1.5", v)
							}
						}
						rq := comm.Irecv(peer, c.bytes, tag+5)
						sq := comm.Isend(peer, c.bytes, tag+5)
						r.Compute(simtime.Microsecond)
						WaitAll(sq, rq)
						calls += 3 // Isend, Compute, WaitAll
						if err := rq.Err(); err != nil {
							t.Error(err)
						}
					}
				})
				if _, err := w.Run(); err != nil {
					t.Fatal(err)
				}
				if got, limit := w.Engine().Switches(), uint64(calls+cfg.NProcs); got > limit {
					t.Fatalf("%d switches for %d blocking calls on %d ranks, want at most %d",
						got, calls, cfg.NProcs, limit)
				}
			})
		}
	}
}

// TestExchangeStepsMatchesExchangeLoop checks that one ExchangeSteps call
// over a shared relative step list — negative offsets, offsets past the
// communicator size, mixed protocols — progresses exactly as a loop of
// Exchange calls over the same steps made absolute: same elapsed time,
// same message counts and same energy.
func TestExchangeStepsMatchesExchangeLoop(t *testing.T) {
	steps := []Step{
		{SendTo: 1, SendBytes: 1 << 10, SendTag: 0, RecvFrom: -1, RecvBytes: 1 << 10, RecvTag: 0},
		{SendTo: 2, SendBytes: 64 << 10, SendTag: 1, RecvFrom: -2, RecvBytes: 64 << 10, RecvTag: 1},
		{SendTo: -1, SendBytes: 0, SendTag: 2, RecvFrom: 1, RecvBytes: 0, RecvTag: 2},
		{SendTo: 70, SendBytes: 100, SendTag: 3, RecvFrom: -70, RecvBytes: 100, RecvTag: 3},
	}
	run := func(seq bool) (simtime.Duration, MsgStats, float64) {
		cfg := DefaultConfig()
		w := mustWorld(t, cfg)
		w.Launch(func(r *Rank) {
			c := CommWorld(r)
			r.Compute(simtime.Duration(r.ID()%3) * simtime.Microsecond)
			base := c.TagBlock()
			if seq {
				if err := c.ExchangeSteps(base, steps); err != nil {
					t.Error(err)
				}
				return
			}
			p, me := c.Size(), c.Rank()
			for _, s := range steps {
				to, from := ((me+s.SendTo)%p+p)%p, ((me+s.RecvFrom)%p+p)%p
				if err := c.Exchange(to, s.SendBytes, base+s.SendTag, from, s.RecvBytes, base+s.RecvTag); err != nil {
					t.Error(err)
				}
			}
		})
		el, err := w.Run()
		if err != nil {
			t.Fatal(err)
		}
		return el, w.Stats(), w.Station().EnergyJoules()
	}
	el1, st1, e1 := run(false)
	el2, st2, e2 := run(true)
	if el1 != el2 || st1 != st2 || e1 != e2 {
		t.Fatalf("ExchangeSteps: %v %+v %v J; Exchange loop: %v %+v %v J", el2, st2, e2, el1, st1, e1)
	}
}
