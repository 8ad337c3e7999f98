// Command paccprof is the post-run analytics CLI: it turns exported
// Chrome traces into critical-path / slack / energy reports and diffs
// two reports as a structured performance-regression gate.
//
// Usage:
//
//	paccprof analyze trace.json                      # report JSON on stdout
//	paccprof analyze -o report.json -check trace.json
//	paccprof analyze -annotate colored.json trace.json
//	paccprof diff base.json new.json                 # gate with default thresholds
//	paccprof diff -mean-pct 3 -p99-pct 8 -energy-pct 5 base.json new.json
//
// Exit codes: 0 clean, 1 regression or failed -check, 2 usage/input
// error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"pacc/internal/analyze"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "analyze":
		runAnalyze(os.Args[2:])
	case "diff":
		runDiff(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: paccprof analyze [flags] trace.json | paccprof diff [flags] base.json new.json")
	os.Exit(2)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "paccprof:", err)
	os.Exit(2)
}

func runAnalyze(args []string) {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	var (
		out       = fs.String("o", "", "write the report to this file (default stdout)")
		annotate  = fs.String("annotate", "", "also write the trace re-colored by critical-path membership and annotated with slack to this file")
		check     = fs.Bool("check", false, "validate the analysis (ranks seen, schema set, nonzero slack recorded); exit 1 on failure")
		perCall   = fs.Bool("per-call", false, "include per-call detail records in the report")
		odvfs     = fs.Float64("odvfs-us", 0, "one-way DVFS switch latency in µs for the harvestable-slack filter (0 = default model)")
		othrottle = fs.Float64("othrottle-us", 0, "one-way throttle switch latency in µs for the harvestable-slack filter (0 = default model)")
	)
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		fail(err)
	}
	m, err := analyze.ParseChromeTrace(f)
	f.Close()
	if err != nil {
		fail(err)
	}
	a := m.Analyze(analyze.Options{ODVFSUs: *odvfs, OThrottleUs: *othrottle, PerCall: *perCall})
	rep := a.Report

	var w io.Writer = os.Stdout
	if *out != "" {
		of, err := os.Create(*out)
		if err != nil {
			fail(err)
		}
		defer of.Close()
		w = of
	}
	if err := rep.Write(w); err != nil {
		fail(err)
	}
	if *annotate != "" {
		af, err := os.Create(*annotate)
		if err != nil {
			fail(err)
		}
		if err := a.WriteAnnotatedTrace(af); err != nil {
			af.Close()
			fail(err)
		}
		if err := af.Close(); err != nil {
			fail(err)
		}
	}
	if *check {
		if err := checkReport(rep); err != nil {
			fmt.Fprintln(os.Stderr, "paccprof: check failed:", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "paccprof: check passed")
	}
}

// checkReport validates the invariants the CI soak gates assert: a
// well-formed schema, observed ranks, and recorded (nonzero) slack —
// a trace of a real run always has some rank waiting somewhere.
func checkReport(r *analyze.Report) error {
	if r.Schema != analyze.SchemaVersion {
		return fmt.Errorf("schema %q, want %q", r.Schema, analyze.SchemaVersion)
	}
	if r.Ranks <= 0 {
		return fmt.Errorf("no ranks observed")
	}
	if r.SpanUs <= 0 {
		return fmt.Errorf("empty trace span")
	}
	total := 0.0
	for _, rs := range r.RankSlack {
		total += rs.SlackUs
	}
	if total <= 0 {
		return fmt.Errorf("zero total slack across %d ranks", r.Ranks)
	}
	return nil
}

func runDiff(args []string) {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	def := analyze.DefaultThresholds()
	var (
		meanPct   = fs.Float64("mean-pct", def.MeanPct, "max allowed per-collective mean-latency growth in % (0 disables)")
		p99Pct    = fs.Float64("p99-pct", def.P99Pct, "max allowed per-collective p99-latency growth in % (0 disables)")
		energyPct = fs.Float64("energy-pct", def.EnergyPct, "max allowed total-energy growth in % (0 disables)")
	)
	fs.Parse(args)
	if fs.NArg() != 2 {
		usage()
	}
	base, err := readReport(fs.Arg(0))
	if err != nil {
		fail(err)
	}
	next, err := readReport(fs.Arg(1))
	if err != nil {
		fail(err)
	}
	d := analyze.Diff(base, next, analyze.Thresholds{
		MeanPct: *meanPct, P99Pct: *p99Pct, EnergyPct: *energyPct,
	})
	if err := d.Write(os.Stdout); err != nil {
		fail(err)
	}
	if d.Regressions > 0 {
		os.Exit(1)
	}
}

func readReport(path string) (*analyze.Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r, err := analyze.ReadReport(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}
