package mpi

import (
	"testing"

	"pacc/internal/fault"
	"pacc/internal/network"
	"pacc/internal/obs"
	"pacc/internal/simtime"
)

// TestMessagePathAllocFree pins the pooled message path: once the
// mailbox, request, rendezvous-state, future and flow pools are warm,
// exchanging messages allocates nothing, for every protocol (eager and
// rendezvous, shared memory and network, zero and positive bytes, and
// the power-aware shared-memory rendezvous) with no bus and with the
// metrics-only bus, on a healthy world, on one whose crash schedule arms
// the failure-aware wait (the crash lies beyond the measured windows),
// and on one whose ports sleep when idle. Two ranks exchange over the
// world communicator in an endless loop; each measured cycle runs the
// engine through a further window of virtual time, several rounds long.
func TestMessagePathAllocFree(t *testing.T) {
	cases := []struct {
		name  string
		peer  int // rank 0's partner: 1 shares its node, 2 does not
		bytes int64
		p2p   bool // Config.PowerAwareP2P
	}{
		{"shm/zero", 1, 0, false},
		{"shm/eager", 1, 1 << 10, false},
		{"shm/rendezvous", 1, 64 << 10, false},
		{"shm/rendezvous-p2p-power", 1, 64 << 10, true},
		{"net/zero", 2, 0, false},
		{"net/eager", 2, 1 << 10, false},
		{"net/rendezvous", 2, 64 << 10, false},
	}
	buses := []struct {
		name string
		bus  func(*simtime.Engine) *obs.Bus
	}{
		{"nobus", func(*simtime.Engine) *obs.Bus { return nil }},
		{"metricsbus", obs.NewMetricsBus},
	}
	// A healthy world's subtests carry no world prefix.
	worlds := []struct {
		prefix string
		setup  func(t *testing.T, cfg *Config)
	}{
		{"", func(*testing.T, *Config) {}},
		{"crash-armed/", func(t *testing.T, cfg *Config) {
			spec, err := fault.Parse("seed=1;crash=3@1s")
			if err != nil {
				t.Fatal(err)
			}
			cfg.Fault = spec
		}},
		{"link-power/", func(_ *testing.T, cfg *Config) { cfg.Net.LinkPower = network.DefaultLinkPower() }},
	}
	for _, wc := range worlds {
		for _, bc := range buses {
			for _, c := range cases {
				t.Run(wc.prefix+bc.name+"/"+c.name, func(t *testing.T) {
					cfg := testConfig()
					cfg.PowerAwareP2P = c.p2p
					wc.setup(t, &cfg)
					w := mustWorld(t, cfg)
					if b := bc.bus(w.Engine()); b != nil {
						w.AttachObs(b)
					}
					var rounds int
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
						for tag := 0; ; tag++ {
							if err := comm.SendRecv(peer, c.bytes, peer, c.bytes, tag); err != nil {
								t.Error(err)
								return
							}
							if r.ID() == 0 {
								rounds++
							}
						}
					})
					defer w.Engine().KillLive()
					var limit simtime.Time
					cycle := func() {
						limit = limit.Add(200 * simtime.Microsecond)
						if _, err := w.Engine().Run(limit); err != nil {
							t.Fatal(err)
						}
					}
					for i := 0; i < 3; i++ {
						cycle() // fill the pools and slice capacities
					}
					before := rounds
					allocs := testing.AllocsPerRun(1, cycle)
					if rounds-before < 4 {
						t.Fatalf("only %d rounds in the measured windows; widen them", rounds-before)
					}
					if allocs != 0 {
						t.Fatalf("%d warm rounds allocated %.0f times, want 0", rounds-before, allocs)
					}
				})
			}
		}
	}
}
