package analyze_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"pacc"
	"pacc/internal/analyze"
	"pacc/internal/simtime"
)

// cfg8 is an 8-node × 1-rank layout: the world ring runs over the
// network, one rank per node.
func cfg8() pacc.Config {
	cfg := pacc.DefaultConfig()
	cfg.NProcs = 8
	cfg.PPN = 1
	return cfg
}

// runRingAllgather runs one ring allgather over cfg with every rank
// computing for preUs µs first, and returns the session.
func runRingAllgather(t *testing.T, cfg pacc.Config, preUs float64, streaming bool) *pacc.ObsSession {
	t.Helper()
	w, err := pacc.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess := pacc.AttachObs(w)
	if streaming {
		sess.EnableAnalytics()
	}
	w.Launch(func(r *pacc.Rank) {
		r.Compute(simtime.DurationOf(preUs / 1e6))
		c := pacc.CommWorld(r)
		if err := pacc.AllgatherRing(c, 64<<10, pacc.CollectiveOptions{}); err != nil {
			t.Errorf("rank %d: %v", r.ID(), err)
		}
	})
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	return sess
}

// TestStragglerCriticalPath is the acceptance scenario: an 8-rank ring
// allgather with one injected straggler. The analysis must identify the
// straggler as the critical-path rank and report slack at least the
// straggler's delay on every other rank.
func TestStragglerCriticalPath(t *testing.T) {
	const (
		straggler = 3
		slowdown  = 4.0
		preUs     = 200.0
	)
	cfg := cfg8()
	cfg.Fault = &pacc.FaultSpec{
		Seed:       1,
		Stragglers: []pacc.Straggler{{Rank: straggler, Slowdown: slowdown}},
	}
	sess := runRingAllgather(t, cfg, preUs, true)
	rep := sess.Report()

	found := false
	for _, c := range rep.Collectives {
		if c.Op != "allgather_ring" {
			continue
		}
		found = true
		if c.Calls != 1 {
			t.Fatalf("calls = %d, want 1", c.Calls)
		}
		if c.CriticalRank != straggler {
			t.Errorf("critical rank = %d, want straggler %d\ncritical shares: %+v",
				c.CriticalRank, straggler, c.Critical)
		}
		// The straggler enters the collective (slowdown-1)×pre later than
		// everyone else; the ring cannot complete without its block, so
		// every other rank idles at least that long.
		delayUs := (slowdown - 1) * preUs
		if len(c.Slack) != 8 {
			t.Fatalf("slack entries = %d, want 8", len(c.Slack))
		}
		for _, rs := range c.Slack {
			if rs.Rank == straggler {
				continue
			}
			if rs.SlackUs < delayUs {
				t.Errorf("rank %d slack = %.3fµs, want ≥ %.3fµs (straggler delay)",
					rs.Rank, rs.SlackUs, delayUs)
			}
			if rs.HarvestDVFSUs <= 0 || rs.HarvestDVFSUs >= rs.SlackUs {
				t.Errorf("rank %d harvestable-by-DVFS slack = %.3f, want in (0, %.3f)",
					rs.Rank, rs.HarvestDVFSUs, rs.SlackUs)
			}
		}
	}
	if !found {
		t.Fatalf("no allgather_ring in report: %+v", rep.Collectives)
	}
	if rep.RunCriticalRank != straggler {
		t.Errorf("run critical rank = %d, want %d", rep.RunCriticalRank, straggler)
	}
	if rep.Ranks != 8 {
		t.Errorf("ranks = %d, want 8", rep.Ranks)
	}
}

// TestReportDeterminismAndIngestionParity checks that (a) two identical
// runs produce byte-identical reports, and (b) the three ingestion
// paths — live streaming collector, post-run bus replay, and parsing
// the exported trace file — agree byte-for-byte.
func TestReportDeterminismAndIngestionParity(t *testing.T) {
	render := func(rep *pacc.AnalysisReport) string {
		var b bytes.Buffer
		if err := rep.Write(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}

	s1 := runRingAllgather(t, cfg8(), 50, true) // streaming collector
	s2 := runRingAllgather(t, cfg8(), 50, true)
	r1, r2 := render(s1.Report()), render(s2.Report())
	if r1 != r2 {
		t.Fatalf("same-seed runs produced different reports:\n%s\n---\n%s", r1, r2)
	}

	s3 := runRingAllgather(t, cfg8(), 50, false) // post-run replay
	if r3 := render(s3.Report()); r3 != r1 {
		t.Fatalf("replay-path report differs from streaming-path report")
	}

	// File path: export the trace, parse it back, analyze with the same
	// switch costs the live path used.
	var trace bytes.Buffer
	if err := s3.WriteTrace(&trace); err != nil {
		t.Fatal(err)
	}
	m, err := analyze.ParseChromeTrace(&trace)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cfg8()
	a := m.Analyze(analyze.Options{
		ODVFSUs:     cfg.Power.ODVFS.Micros(),
		OThrottleUs: cfg.Power.OThrottle.Micros(),
	})
	if r4 := render(a.Report); r4 != r1 {
		t.Fatalf("file-path report differs from live-path report")
	}
}

// TestEnergyAttribution checks the phase × power-state split: per-phase
// by-state entries sum to the phase total, the run draws nonzero
// energy, and a power-aware call attributes energy to throttled states.
func TestEnergyAttribution(t *testing.T) {
	cfg := pacc.DefaultConfig()
	cfg.NProcs = 16
	cfg.PPN = 8
	w, err := pacc.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess := pacc.AttachObs(w)
	sess.EnableAnalytics()
	w.Launch(func(r *pacc.Rank) {
		c := pacc.CommWorld(r)
		if err := pacc.Alltoall(c, 256<<10, pacc.CollectiveOptions{Power: pacc.Proposed}); err != nil {
			t.Errorf("rank %d: %v", r.ID(), err)
		}
	})
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	rep := sess.Report()
	if rep.TotalJoules <= 0 {
		t.Fatalf("total joules = %g, want > 0", rep.TotalJoules)
	}
	states := map[string]bool{}
	for _, pe := range rep.Energy {
		sum := 0.0
		for _, se := range pe.ByState {
			sum += se.Joules
			states[se.State] = true
		}
		if diff := sum - pe.TotalJ; diff > 1e-6 || diff < -1e-6 {
			t.Errorf("phase %q: by-state sum %.9f != total %.9f", pe.Phase, sum, pe.TotalJ)
		}
	}
	throttled := false
	for s := range states {
		if !strings.Contains(s, "T0") {
			throttled = true
		}
	}
	if !throttled {
		t.Errorf("proposed-scheme run attributed no energy to throttled states: %v", states)
	}
}

// TestAnnotatedTrace checks the annotated export: valid Chrome JSON,
// same event count as the plain trace plus no loss, critical spans
// flagged, wait spans carrying slack.
func TestAnnotatedTrace(t *testing.T) {
	cfg := cfg8()
	cfg.Fault = &pacc.FaultSpec{Seed: 1, Stragglers: []pacc.Straggler{{Rank: 2, Slowdown: 3}}}
	sess := runRingAllgather(t, cfg, 100, true)

	var plain, annotated bytes.Buffer
	if err := sess.WriteTrace(&plain); err != nil {
		t.Fatal(err)
	}
	if err := sess.WriteAnnotatedTrace(&annotated); err != nil {
		t.Fatal(err)
	}
	var plainEvs, annEvs []map[string]any
	if err := json.Unmarshal(plain.Bytes(), &plainEvs); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(annotated.Bytes(), &annEvs); err != nil {
		t.Fatalf("annotated trace is not valid JSON: %v", err)
	}
	if len(annEvs) != len(plainEvs) {
		t.Fatalf("annotated trace has %d events, plain has %d", len(annEvs), len(plainEvs))
	}
	crit, slack := 0, 0
	for _, e := range annEvs {
		args, _ := e["args"].(map[string]any)
		if args == nil {
			continue
		}
		if args["crit"] == true {
			crit++
		}
		if _, ok := args["slack_us"]; ok {
			slack++
			name, _ := e["name"].(string)
			if !strings.HasPrefix(name, "wait ") {
				t.Errorf("slack_us on non-wait span %q", name)
			}
		}
	}
	if crit == 0 {
		t.Error("no spans flagged critical")
	}
	if slack == 0 {
		t.Error("no wait spans annotated with slack")
	}
}

// TestDiffThresholds checks the regression gate: a report diffed
// against itself is clean, and a run moving 4× the bytes regresses
// mean latency past the default thresholds.
func TestDiffThresholds(t *testing.T) {
	base := runRingAllgather(t, cfg8(), 0, true).Report()
	if d := pacc.DiffReports(base, base, pacc.DiffThresholds{MeanPct: 5, P99Pct: 10, EnergyPct: 5}); d.Regressions != 0 {
		t.Fatalf("self-diff found %d regressions: %+v", d.Regressions, d.Entries)
	}

	cfg := cfg8()
	w, err := pacc.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess := pacc.AttachObs(w)
	sess.EnableAnalytics()
	w.Launch(func(r *pacc.Rank) {
		c := pacc.CommWorld(r)
		if err := pacc.AllgatherRing(c, 256<<10, pacc.CollectiveOptions{}); err != nil {
			t.Errorf("rank %d: %v", r.ID(), err)
		}
	})
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	next := sess.Report()
	d := pacc.DiffReports(base, next, pacc.DiffThresholds{MeanPct: 5, P99Pct: 10, EnergyPct: 5})
	if d.Regressions == 0 {
		t.Fatalf("4× message size did not regress any gate: %+v", d.Entries)
	}
	var out bytes.Buffer
	if err := d.Write(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "regression(s)") {
		t.Errorf("diff rendering missing summary: %q", out.String())
	}
}

// TestReadReportSchema checks that ReadReport accepts a written report
// and rejects a missing or foreign schema, naming both values.
func TestReadReportSchema(t *testing.T) {
	var buf bytes.Buffer
	if err := (&analyze.Report{Schema: analyze.SchemaVersion, Ranks: 8}).Write(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := analyze.ReadReport(&buf); err != nil {
		t.Fatalf("written report rejected: %v", err)
	}
	for _, tc := range []struct{ doc, got string }{
		{`{"ranks": 8}`, `""`},
		{`{"schema": "pacc.analyze.report/v0", "ranks": 8}`, `"pacc.analyze.report/v0"`},
	} {
		_, err := analyze.ReadReport(strings.NewReader(tc.doc))
		if err == nil || !strings.Contains(err.Error(), tc.got) || !strings.Contains(err.Error(), analyze.SchemaVersion) {
			t.Errorf("ReadReport(%s) = %v, want an error naming %s and %q", tc.doc, err, tc.got, analyze.SchemaVersion)
		}
	}
}

// TestSlackSwitchCostFilter pins the harvestable-slack arithmetic on a
// hand-built event stream: one wait of 100µs with 12µs switch costs
// leaves 76µs harvestable by either mechanism; a 20µs wait clears
// neither round trip fully (20-24 < 0 → nothing).
func TestSlackSwitchCostFilter(t *testing.T) {
	c := analyze.NewCollector()
	rankEv := func(name string, ts, dur float64, args map[string]any) analyze.Event {
		return analyze.Event{Name: name, Ph: "X", Ts: ts, Dur: dur, PID: 0, TID: 1<<12 + 0, Args: args}
	}
	c.Add(rankEv("op", 0, 200, map[string]any{"power": "no-power"}))
	c.Add(rankEv("wait recv match", 10, 100, map[string]any{"peer": 1}))
	c.Add(rankEv("wait recv match", 150, 20, map[string]any{"peer": 1}))
	a := c.Model().Analyze(analyze.Options{ODVFSUs: 12, OThrottleUs: 12})
	rs := a.Report.RankSlack
	if len(rs) != 1 {
		t.Fatalf("rank slack entries = %d, want 1", len(rs))
	}
	if rs[0].SlackUs != 120 {
		t.Errorf("slack = %.3f, want 120", rs[0].SlackUs)
	}
	if rs[0].HarvestDVFSUs != 76 {
		t.Errorf("harvestable = %.3f, want 76 (100-24)", rs[0].HarvestDVFSUs)
	}
}
