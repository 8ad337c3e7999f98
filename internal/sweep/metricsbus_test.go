package sweep

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"testing"

	"pacc/internal/obs"
	"pacc/internal/simtime"
)

// equivalenceRequests are the cells TestMetricsBusEquivalence runs: every
// op under every power mode at 16 nodes x 8 ranks, at an eager size
// (below the power threshold, so power modes pass through) and a
// rendezvous size (power modes active), plus one cell per fault family.
// want names a counter the fault must move, so a cell that silently
// stopped exercising its rare path fails instead of passing vacuously.
func equivalenceRequests() map[string]struct {
	req  Request
	want string
} {
	cells := map[string]struct {
		req  Request
		want string
	}{}
	ops := make([]string, 0, len(opTable))
	for op := range opTable {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		for _, mode := range []string{"no-power", "freq-scaling", "proposed"} {
			for _, size := range []int64{4 << 10, 64 << 10} {
				name := fmt.Sprintf("%s/%s/%s", op, mode, obs.SizeLabel(size))
				cells[name] = struct {
					req  Request
					want string
				}{req: Request{Op: op, Procs: 128, PPN: 8, Bytes: size, Mode: mode}}
			}
		}
	}
	faulted := []struct {
		name, op, mode, spec, want string
	}{
		{"degrade+slow", "allreduce_topo", "proposed",
			"seed=7;slow=3@4x:20us+2ms;degrade=node1-up@0.5:10us+5ms", obs.CtrFaultLinkEvents},
		{"msgloss+retry", "alltoall", "freq-scaling",
			"seed=3;msgloss=0.05;retry=7", obs.CtrFaultMsgRetransmits},
		{"corrupt", "allreduce_ft", "proposed",
			"seed=5;corrupt=0.02;memburst=*@0.3:0s+1ms", obs.CtrFaultMsgCorruptions},
		{"crash", "allreduce_ft", "no-power",
			"seed=9;crash=5@30us", obs.CtrFaultRankCrashes},
	}
	for _, f := range faulted {
		cells["fault/"+f.name] = struct {
			req  Request
			want string
		}{req: Request{Op: f.op, Procs: 128, PPN: 8, Bytes: 64 << 10, Mode: f.mode,
			Fault: f.spec, Iters: 2}, want: f.want}
	}
	return cells
}

// TestMetricsBusEquivalence runs each cell once on a full bus (NewBus)
// and once on a metrics-only bus (NewMetricsBus, what Simulate uses) and
// requires byte-identical payloads — elapsed time, energy and the
// WriteMetricsJSON snapshot — while the metrics-only bus records no
// timeline at all. Skipping the timeline must change nothing a payload
// reads.
func TestMetricsBusEquivalence(t *testing.T) {
	for name, cell := range equivalenceRequests() {
		cell := cell
		t.Run(name, func(t *testing.T) {
			var full, lean *obs.Bus
			fullPayload, err := simulate(context.Background(), cell.req, func(e *simtime.Engine) *obs.Bus {
				full = obs.NewBus(e)
				return full
			})
			if err != nil {
				t.Fatal(err)
			}
			leanPayload, err := simulate(context.Background(), cell.req, func(e *simtime.Engine) *obs.Bus {
				lean = obs.NewMetricsBus(e)
				return lean
			})
			if err != nil {
				t.Fatal(err)
			}
			if full.Events() == 0 {
				t.Fatal("full bus recorded no events; the comparison is vacuous")
			}
			if n := lean.Events(); n != 0 {
				t.Fatalf("metrics-only bus recorded %d events, want 0", n)
			}
			if cell.want != "" && lean.Counter(cell.want) == 0 {
				t.Fatalf("fault cell never moved %s; its rare path went unexercised", cell.want)
			}
			if bytes.Equal(fullPayload, leanPayload) {
				return
			}
			a, errA := DecodeResult(fullPayload)
			b, errB := DecodeResult(leanPayload)
			if errA != nil || errB != nil {
				t.Fatalf("payloads differ and do not decode: %v, %v", errA, errB)
			}
			if a.ElapsedUs != b.ElapsedUs || a.EnergyJ != b.EnergyJ {
				t.Fatalf("full bus: %v us, %v J; metrics-only bus: %v us, %v J",
					a.ElapsedUs, a.EnergyJ, b.ElapsedUs, b.EnergyJ)
			}
			t.Fatalf("metrics snapshots differ:\nfull:\n%s\nmetrics-only:\n%s", a.Metrics, b.Metrics)
		})
	}
}
