package mpi

import (
	"errors"
	"sort"
	"testing"

	"pacc/internal/fault"
	"pacc/internal/simtime"
)

func crashConfig(crashes ...fault.Crash) Config {
	cfg := testConfig()
	cfg.Fault = &fault.Spec{Crashes: crashes}
	return cfg
}

// A receiver blocked on a rank that dies must observe a PeerFailedError
// once the detection timeout elapses, not hang forever.
func TestCrashDetectedOnBlockedRecv(t *testing.T) {
	crashAt := 10 * simtime.Microsecond
	cfg := crashConfig(fault.Crash{Rank: 1, At: crashAt})
	w := mustWorld(t, cfg)
	var recvErr error
	var at simtime.Time
	w.Launch(func(r *Rank) {
		if r.ID() != 0 {
			return
		}
		recvErr = r.Recv(1, 4096, 7)
		at = r.Now()
	})
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	var pf *PeerFailedError
	if !errors.As(recvErr, &pf) || pf.Peer != 1 {
		t.Fatalf("recv returned %v, want PeerFailedError{Peer: 1}", recvErr)
	}
	if !IsFailure(recvErr) {
		t.Fatal("PeerFailedError must classify as a failure")
	}
	want := simtime.Time(0).Add(crashAt).Add(cfg.Fault.Detect())
	if at < want {
		t.Fatalf("failure observed at %v, before detection deadline %v", at, want)
	}
}

// Sends to a dead rank must fail too: eager frames are dropped at
// delivery and rendezvous clear-to-sends never arrive, so the sender's
// wait trips the failure detector instead of blocking.
func TestCrashDetectedOnBlockedSend(t *testing.T) {
	cfg := crashConfig(fault.Crash{Rank: 1, At: 5 * simtime.Microsecond})
	w := mustWorld(t, cfg)
	var sendErr error
	w.Launch(func(r *Rank) {
		if r.ID() != 0 {
			return
		}
		r.Compute(20 * simtime.Microsecond) // send strictly after the death
		sendErr = r.Send(1, 1<<20, 7)       // rendezvous-sized
	})
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	var pf *PeerFailedError
	if !errors.As(sendErr, &pf) || pf.Peer != 1 {
		t.Fatalf("send returned %v, want PeerFailedError{Peer: 1}", sendErr)
	}
}

// Revoking a communicator must wake ranks blocked on operations over it —
// even ones whose peer is alive and simply never going to answer.
func TestRevokeWakesBlockedWaiters(t *testing.T) {
	cfg := crashConfig(fault.Crash{Rank: 3, At: 10 * simtime.Microsecond})
	w := mustWorld(t, cfg)
	errs := make([]error, cfg.NProcs)
	w.Launch(func(r *Rank) {
		c := CommWorld(r)
		switch r.ID() {
		case 0:
			// Blocked on alive rank 1, which never sends: only the revoke
			// can release this wait.
			errs[0] = c.Recv(1, 4096, 9)
		case 1:
			// Observes rank 3's death and revokes.
			errs[1] = c.Recv(3, 4096, 9)
			if IsFailure(errs[1]) {
				c.Revoke()
			}
		}
	})
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	var rev *CommRevokedError
	if !errors.As(errs[0], &rev) {
		t.Fatalf("rank 0 got %v, want CommRevokedError", errs[0])
	}
	if !IsFailure(errs[0]) {
		t.Fatal("CommRevokedError must classify as a failure")
	}
	var pf *PeerFailedError
	if !errors.As(errs[1], &pf) || pf.Peer != 3 {
		t.Fatalf("rank 1 got %v, want PeerFailedError{Peer: 3}", errs[1])
	}
}

// All survivors of an agreement must converge on the same failed set, and
// a Shrink over it must produce the same survivor group everywhere.
func TestAgreeFailuresConverges(t *testing.T) {
	cfg := crashConfig(
		fault.Crash{Rank: 1, At: 5 * simtime.Microsecond},
		fault.Crash{Rank: 2, At: 8 * simtime.Microsecond},
	)
	w := mustWorld(t, cfg)
	failed := make([][]int, cfg.NProcs)
	shrunk := make([]int, cfg.NProcs)
	w.Launch(func(r *Rank) {
		c := CommWorld(r)
		r.Compute(20 * simtime.Microsecond) // both deaths are in the past
		f := c.AgreeFailures()
		failed[r.ID()] = f
		s := c.Shrink(f)
		if s != nil {
			shrunk[r.ID()] = s.Size()
		}
	})
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	for _, g := range []int{0, 3} {
		got := failed[g]
		if !sort.IntsAreSorted(got) || len(got) != 2 || got[0] != 1 || got[1] != 2 {
			t.Fatalf("rank %d agreed on %v, want [1 2]", g, got)
		}
		if shrunk[g] != 2 {
			t.Fatalf("rank %d shrunk to %d ranks, want 2", g, shrunk[g])
		}
	}
	if dead := w.DeadRanks(); len(dead) != 2 || dead[0] != 1 || dead[1] != 2 {
		t.Fatalf("DeadRanks() = %v, want [1 2]", dead)
	}
}

// An agreement started before a crash must still resolve: the crash event
// sweeps pending agreements so the dead rank's missing join stops
// blocking the survivors.
func TestAgreementResolvesWhenMemberDiesMidAgreement(t *testing.T) {
	cfg := crashConfig(fault.Crash{Rank: 2, At: 50 * simtime.Microsecond})
	w := mustWorld(t, cfg)
	failed := make([][]int, cfg.NProcs)
	w.Launch(func(r *Rank) {
		c := CommWorld(r)
		if r.ID() == 2 {
			// Never joins: parked until the crash kills it.
			r.Compute(time999(t))
			return
		}
		failed[r.ID()] = c.AgreeFailures()
	})
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	for _, g := range []int{0, 1, 3} {
		if len(failed[g]) != 1 || failed[g][0] != 2 {
			t.Fatalf("rank %d agreed on %v, want [2]", g, failed[g])
		}
	}
}

func time999(t *testing.T) simtime.Duration {
	t.Helper()
	return 999 * simtime.Millisecond
}

// A crashed rank's Launch body must not start if it is dead at t=0, and a
// healthy world must keep the failure machinery disarmed entirely.
func TestCrashAtZeroAndDisarmedHealthy(t *testing.T) {
	cfg := crashConfig(fault.Crash{Rank: 0, At: 0})
	w := mustWorld(t, cfg)
	started := make([]bool, cfg.NProcs)
	w.Launch(func(r *Rank) {
		started[r.ID()] = true
		if r.ID() == 1 {
			if err := r.Recv(0, 64, 3); !IsFailure(err) {
				t.Errorf("recv from rank dead at t=0 returned %v", err)
			}
		}
	})
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if started[0] {
		t.Fatal("rank dead at t=0 still ran its body")
	}

	healthy := mustWorld(t, testConfig())
	healthy.Launch(func(r *Rank) {})
	if _, err := healthy.Run(); err != nil {
		t.Fatal(err)
	}
	if dead := healthy.DeadRanks(); dead != nil {
		t.Fatalf("healthy world reports dead ranks %v", dead)
	}
}

// Shrink must translate group membership: survivors keep their relative
// order and the shrunken communicator excludes exactly the failed set.
func TestShrinkMembership(t *testing.T) {
	cfg := crashConfig(fault.Crash{Rank: 1, At: 5 * simtime.Microsecond})
	w := mustWorld(t, cfg)
	ranks := make([]int, cfg.NProcs)
	w.Launch(func(r *Rank) {
		c := CommWorld(r)
		r.Compute(10 * simtime.Microsecond)
		s := c.Shrink(c.AgreeFailures())
		if s == nil {
			t.Errorf("rank %d: Shrink returned nil for a survivor", r.ID())
			return
		}
		ranks[r.ID()] = s.Rank()
	})
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	want := map[int]int{0: 0, 2: 1, 3: 2}
	for g, cr := range want {
		if ranks[g] != cr {
			t.Fatalf("global %d got shrunken rank %d, want %d", g, ranks[g], cr)
		}
	}
}

// pingPongUntilFailure runs rank 0 and peer in an endless SendRecv loop
// over the world communicator; rank 0 stops at its first failure.
func pingPongUntilFailure(w *World, peer int, bytes int64) *error {
	var failure error
	w.Launch(func(r *Rank) {
		other := -1
		switch r.ID() {
		case 0:
			other = peer
		case peer:
			other = 0
		}
		if other < 0 {
			return
		}
		c := CommWorld(r)
		for tag := 0; ; tag++ {
			if err := c.SendRecv(other, bytes, other, bytes, tag); err != nil {
				if r.ID() == 0 {
					failure = err
				}
				return
			}
		}
	})
	return &failure
}

// The detection instant must cost the same whatever ran before it: a
// partner that dies after ten times as many rounds releases its waiting
// partner with the same number of events, because finished waits leave
// nothing behind for the detector to fire.
func TestFailureWaitDetectionCostFlat(t *testing.T) {
	for _, tc := range []struct {
		name string
		peer int
	}{{"shm", 1}, {"net", 2}} {
		t.Run(tc.name, func(t *testing.T) {
			var counts []int
			for _, crashAt := range []simtime.Duration{simtime.Millisecond, 10 * simtime.Millisecond} {
				cfg := crashConfig(fault.Crash{Rank: tc.peer, At: crashAt})
				w := mustWorld(t, cfg)
				failure := pingPongUntilFailure(w, tc.peer, 1<<10)
				detectAt := simtime.Time(0).Add(crashAt).Add(cfg.Fault.Detect())
				if _, err := w.Engine().Run(detectAt - 1); err != nil {
					t.Fatal(err)
				}
				n, err := w.Engine().Run(detectAt)
				if err != nil {
					t.Fatal(err)
				}
				if !IsFailure(*failure) {
					t.Fatalf("crash at %v: rank 0 not released at %v (got %v)", crashAt, detectAt, *failure)
				}
				counts = append(counts, n)
			}
			if counts[0] != counts[1] {
				t.Fatalf("detection instant ran %d events after a 1 ms run and %d after a 10 ms run",
					counts[0], counts[1])
			}
		})
	}
}

// A wait that begins after the failure was detected fails at once, at
// the instant it began.
func TestFailureWaitAfterDetection(t *testing.T) {
	cfg := crashConfig(fault.Crash{Rank: 1, At: 10 * simtime.Microsecond})
	w := mustWorld(t, cfg)
	var err error
	var began, ended simtime.Time
	w.Launch(func(r *Rank) {
		if r.ID() != 0 {
			return
		}
		r.Compute(10*simtime.Microsecond + 2*cfg.Fault.Detect())
		began = r.Now()
		err = CommWorld(r).Recv(1, 4096, 7)
		ended = r.Now()
	})
	if _, runErr := w.Run(); runErr != nil {
		t.Fatal(runErr)
	}
	var pf *PeerFailedError
	if !errors.As(err, &pf) || pf.Peer != 1 {
		t.Fatalf("late recv returned %v, want PeerFailedError{Peer: 1}", err)
	}
	if ended != began {
		t.Fatalf("late recv began at %v and failed at %v, want the same instant", began, ended)
	}
}

// An operation that completes at the very instant its peer's failure is
// detected succeeds: the completed operation wins.
func TestFailureWaitCompletionBeatsDetection(t *testing.T) {
	// A healthy twin times the eager message: when the sender is done
	// with it and when it lands at the receiver.
	var sent, landed simtime.Time
	body := func(r *Rank) {
		switch r.ID() {
		case 0:
			if err := r.Recv(2, 1024, 7); err != nil {
				t.Error(err)
			}
			landed = r.Now()
		case 2:
			if err := r.Send(0, 1024, 7); err != nil {
				t.Error(err)
			}
			sent = r.Now()
			r.Compute(time999(t))
		}
	}
	twin := mustWorld(t, testConfig())
	twin.Launch(body)
	if _, err := twin.Run(); err != nil {
		t.Fatal(err)
	}
	if landed <= sent+1 {
		t.Fatalf("message landed at %v, sender done at %v: no room for a crash in flight", landed, sent)
	}
	// The sender dies while its message is in flight, with the detection
	// timeout chosen so the failure is detected exactly as it lands.
	crashAt := simtime.Duration(sent + (landed-sent)/2)
	cfg := crashConfig(fault.Crash{Rank: 2, At: crashAt})
	cfg.Fault.DetectTimeout = simtime.Duration(landed) - crashAt
	w := mustWorld(t, cfg)
	var recvErr error
	var at simtime.Time
	w.Launch(func(r *Rank) {
		switch r.ID() {
		case 0:
			recvErr = r.Recv(2, 1024, 7)
			at = r.Now()
		case 2:
			body(r)
		}
	})
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if recvErr != nil || at != landed {
		t.Fatalf("recv returned %v at %v, want success at %v", recvErr, at, landed)
	}
	if dead := w.DeadRanks(); len(dead) != 1 || dead[0] != 2 {
		t.Fatalf("DeadRanks() = %v, want [2]", dead)
	}
}

// Revoking a communicator releases a wait parked on it at the revoke
// instant, and a wait on the same communicator that begins afterwards
// fails at once.
func TestFailureWaitRevokeReleasesAndFailsLater(t *testing.T) {
	// The late crash only arms the failure machinery.
	cfg := crashConfig(fault.Crash{Rank: 3, At: simtime.Second})
	w := mustWorld(t, cfg)
	revokeAt := simtime.Time(0).Add(30 * simtime.Microsecond)
	var errs [2]error
	var at [2]simtime.Time
	w.Launch(func(r *Rank) {
		c := CommWorld(r)
		switch r.ID() {
		case 0:
			// Rank 1 never sends: only the revoke ends these waits.
			first := c.Irecv(1, 4096, 1)
			second := c.Irecv(1, 4096, 2)
			first.Wait()
			errs[0], at[0] = first.Err(), r.Now()
			second.Wait()
			errs[1], at[1] = second.Err(), r.Now()
		case 1:
			r.Compute(simtime.Duration(revokeAt))
			c.Revoke()
		}
	})
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	for i, err := range errs {
		var rev *CommRevokedError
		if !errors.As(err, &rev) {
			t.Fatalf("wait %d returned %v, want CommRevokedError", i, err)
		}
		if at[i] != revokeAt {
			t.Fatalf("wait %d failed at %v, want the revoke instant %v", i, at[i], revokeAt)
		}
	}
}
