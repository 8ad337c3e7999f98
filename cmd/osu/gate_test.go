package main

import (
	"context"
	"os"
	"slices"
	"strings"
	"testing"

	"pacc"
)

// TestCanonicalRunGates holds three perf gates on the canonical run,
// `osu -op allreduce_topo -procs 64 -ppn 8 -size 1M -iters 5`:
//
//   - the ABFT checksum lane (-verify) costs at most 3% simulated latency;
//   - the run's analytics report stays within 2% mean latency, 2% p99
//     latency and 2% total energy of testdata/bench_baseline.json;
//   - fail-slow detection (-detect) costs at most 1% simulated latency,
//     and is expected to cost exactly 0: the scoreboard is bookkeeping
//     that never advances virtual time.
//
// The simulation is deterministic, so any drift is a real behavioural
// change. Regenerate the baseline only from a known-good checkout, by
// rerunning the canonical run with -report testdata/bench_baseline.json.
func TestCanonicalRunGates(t *testing.T) {
	canonical := func(cfg pacc.Config, call func(*pacc.Comm, int64, pacc.CollectiveOptions) error,
		wantReport bool) (float64, *pacc.ObsSession) {
		t.Helper()
		lat, _, sess, err := measure(context.Background(), cfg, call, 1<<20, 64, 8, pacc.NoPower,
			pacc.CollectiveOptions{}, "polling", 5, wantReport, wantReport, false)
		if err != nil {
			t.Fatal(err)
		}
		return lat, sess
	}
	plain, sess := canonical(pacc.DefaultConfig(), ops["allreduce_topo"], true)
	checked, _ := canonical(pacc.DefaultConfig(), verifiedOps["allreduce_topo"], false)
	detectCfg := pacc.DefaultConfig()
	detectCfg.FailSlowDetect = true
	detected, _ := canonical(detectCfg, ops["allreduce_topo"], false)

	for _, g := range []struct {
		name        string
		lat, budget float64
	}{
		{"checksum lane (-verify)", checked, 0.03},
		{"fail-slow detection (-detect)", detected, 0.01},
	} {
		if o := g.lat/plain - 1; o < 0 || o > g.budget {
			t.Errorf("%s overhead %.4f outside [0, %.2f] (plain %.2fus, gated %.2fus)",
				g.name, o, g.budget, plain, g.lat)
		}
	}

	f, err := os.Open("../../testdata/bench_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	base, err := pacc.ReadAnalysisReport(f)
	if err != nil {
		t.Fatal(err)
	}
	d := pacc.DiffReports(base, sess.Report(), pacc.DiffThresholds{MeanPct: 2, P99Pct: 2, EnergyPct: 2})
	// Diff skips ops missing from either side, so a renamed or dropped op
	// would compare nothing and pass: pin what was compared.
	var compared []string
	for _, e := range d.Entries {
		compared = append(compared, e.Metric)
	}
	want := []string{
		"allreduce_topo.latency.mean_us", "allreduce_topo.latency.p99_us",
		"barrier.latency.mean_us", "barrier.latency.p99_us",
		"energy.total_j",
	}
	if !slices.Equal(compared, want) {
		t.Errorf("diff against the baseline compared %q, want %q", compared, want)
	}
	if d.Regressions != 0 {
		var table strings.Builder
		d.Write(&table)
		t.Errorf("report diff against testdata/bench_baseline.json:\n%s", table.String())
	}
}
