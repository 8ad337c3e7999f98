package collective

import (
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"

	"pacc/internal/mpi"
	"pacc/internal/simtime"
)

// TestBarrierParksOnce checks that a 1024-rank barrier switches into
// each rank's coroutine twice: its first run and the barrier's return.
// Every dissemination round progresses in event context.
func TestBarrierParksOnce(t *testing.T) {
	const procs = 1024
	w, err := mpi.NewWorld(perfConfig(procs, 8))
	if err != nil {
		t.Fatal(err)
	}
	w.Launch(func(r *mpi.Rank) { Barrier(mpi.CommWorld(r)) })
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if got := w.Engine().Switches(); got > 2*procs {
		t.Fatalf("%d-rank barrier switched into rank coroutines %d times (%.1f per rank), want at most 2 per rank",
			procs, got, float64(got)/procs)
	}
}

// TestBarrierStackPerRank checks that a rank parked in a barrier holds
// no more than the minimum 2 KiB goroutine stack: the barrier's rounds
// run on the engine's stack, so a rank's coroutine never grows past the
// call that parks it. It stops a 4096-rank world mid-barrier and reads
// the stack memory in use.
//
// The runtime starts new goroutines at the average stack size it saw at
// the last GC, which depends on the tests run before this one, so the
// measurement runs in a child test process with that adaptation off:
// every coroutine starts at the minimum, and only its own call depth
// can grow it.
func TestBarrierStackPerRank(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments every call and deepens each stack")
	}
	const fixedStart = "adaptivestackstart=0"
	if !strings.Contains(os.Getenv("GODEBUG"), fixedStart) {
		cmd := exec.Command(os.Args[0], "-test.run=^TestBarrierStackPerRank$", "-test.v")
		cmd.Env = append(os.Environ(), "GODEBUG="+os.Getenv("GODEBUG")+","+fixedStart)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("child test: %v\n%s", err, out)
		}
		return
	}
	const procs = 4096
	var before, during runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	w, err := mpi.NewWorld(perfConfig(procs, 8))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Engine().KillLive()
	entered, left := 0, 0
	w.Launch(func(r *mpi.Rank) {
		entered++
		Barrier(mpi.CommWorld(r))
		left++
	})
	if _, err := w.Engine().Run(simtime.Time(0).Add(5 * simtime.Microsecond)); err != nil {
		t.Fatal(err)
	}
	if entered != procs || left != 0 {
		t.Fatalf("%d ranks entered the barrier and %d left; want all %d inside", entered, left, procs)
	}
	runtime.GC()
	runtime.ReadMemStats(&during)
	// The slack covers stack spans the runtime's own goroutines take
	// meanwhile: a few 32 KiB spans, under 32 B a rank.
	const slack = 128 << 10
	grown := int64(during.StackInuse) - int64(before.StackInuse)
	if grown > procs*2048+slack {
		t.Fatalf("%d ranks parked mid-barrier hold %d B of stack each, want at most 2048", procs, grown/procs)
	}
}
