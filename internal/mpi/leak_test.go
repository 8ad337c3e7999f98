package mpi

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"runtime"
	"testing"
	"time"

	"pacc/internal/simtime"
	"pacc/internal/topology"
)

// config64 is an 8x8 job: 8 nodes x 8 ranks.
func config64() Config {
	cfg := DefaultConfig()
	cfg.Topo = topology.Config{Nodes: 8, SocketsPerNode: 2, CoresPerSocket: 4, Interleaved: true}
	cfg.NProcs = 64
	cfg.PPN = 8
	return cfg
}

// recvFromSilentPeer parks the rank on a receive nobody will ever match.
func recvFromSilentPeer(r *Rank) {
	r.Recv((r.ID()+1)%r.World().Size(), 1024, 7)
}

// waitGoroutines polls until the goroutine count is back to base; a
// retiring coroutine may take a moment to leave the scheduler's count.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutine(s) left behind by the failed run", runtime.NumGoroutine()-base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFailedRunUnwindsRanks: a run that fails with ranks still parked —
// deadlock, watchdog, rank panic — unwinds every rank before returning,
// and its error keeps the type and text it had before the unwind was
// added (SHA-256 of Error(), recorded at that commit).
func TestFailedRunUnwindsRanks(t *testing.T) {
	cases := []struct {
		name   string
		cfg    func(*Config)
		body   func(r *Rank)
		typeOK func(error) bool
		digest string
	}{
		{
			name: "deadlock",
			body: recvFromSilentPeer,
			typeOK: func(err error) bool {
				var dl *simtime.DeadlockError
				return errors.As(err, &dl)
			},
			digest: "02a359217970475fd24efaf9983c4e0599f108fa5de18028ac49835299a1ea78",
		},
		{
			name: "watchdog",
			cfg:  func(c *Config) { c.WatchdogTimeout = 100 * simtime.Microsecond },
			body: func(r *Rank) {
				if r.ID() == 0 {
					r.Compute(50 * simtime.Millisecond)
				}
				recvFromSilentPeer(r)
			},
			typeOK: func(err error) bool {
				var we *simtime.WatchdogError
				return errors.As(err, &we)
			},
			digest: "eef8031226ae8f38373008c19ba4f9efa790e1fd463cf5feab86b1fc39b6d902",
		},
		{
			name: "rank panic",
			body: func(r *Rank) {
				if r.ID() == 5 {
					r.Compute(simtime.Microsecond)
					panic("rank 5 gave up")
				}
				recvFromSilentPeer(r)
			},
			typeOK: func(err error) bool {
				var pe *simtime.ProcPanicError
				return errors.As(err, &pe)
			},
			digest: "22aa423f726514a1a7e0b50b51fd247bb51d91f0bccc43be30ec00932527efa0",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			cfg := config64()
			if tc.cfg != nil {
				tc.cfg(&cfg)
			}
			w := mustWorld(t, cfg)
			w.Launch(tc.body)
			_, err := w.Run()
			if err == nil || !tc.typeOK(err) {
				t.Fatalf("Run err = %v, want the %s error type", err, tc.name)
			}
			sum := sha256.Sum256([]byte(err.Error()))
			if got := hex.EncodeToString(sum[:]); got != tc.digest {
				t.Errorf("error text changed (sha256 %s, want %s): %.300s", got, tc.digest, err)
			}
			waitGoroutines(t, base)
		})
	}
}
