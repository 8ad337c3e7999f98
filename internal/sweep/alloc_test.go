package sweep

import (
	"context"
	"testing"
)

// Allocation ceilings for one sweep.Simulate request, per canonical cell.
// Counts are deterministic, so each ceiling sits ~5% above the measured
// count and only absorbs runtime and compiler drift; a request that
// starts recording a timeline again, or builds span names and args for a
// bus that drops them, blows through it. Regenerate on a known-good
// checkout by running
//
//	go test ./internal/sweep -run TestSimulateAllocBudget -v -count 1
//
// and setting each ceiling ~5% above the logged allocs/run.
var simulateAllocBudget = []struct {
	req       Request
	maxAllocs float64
}{
	{Request{Op: "allreduce", Procs: 16, PPN: 8, Bytes: 64 << 10, Mode: "proposed"}, 2200},
	{Request{Op: "alltoall", Procs: 16, PPN: 8, Bytes: 4 << 10, Mode: "no-power"}, 990},
	{Request{Op: "bcast", Procs: 16, PPN: 8, Bytes: 1 << 20, Mode: "freq-scaling"}, 1550},
}

// TestSimulateAllocBudget holds each canonical request to its allocation
// ceiling.
func TestSimulateAllocBudget(t *testing.T) {
	for _, c := range simulateAllocBudget {
		var err error
		allocs := testing.AllocsPerRun(3, func() {
			_, err = Simulate(context.Background(), c.req)
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s/%s/%d: %.0f allocs/run (ceiling %.0f)", c.req.Op, c.req.Mode, c.req.Bytes, allocs, c.maxAllocs)
		if allocs > c.maxAllocs {
			t.Errorf("%s/%s/%d: %.0f allocs/run, ceiling %.0f", c.req.Op, c.req.Mode, c.req.Bytes, allocs, c.maxAllocs)
		}
	}
}
