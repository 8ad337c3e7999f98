package pacc

import (
	"io"
	"os"

	"pacc/internal/analyze"
	"pacc/internal/obs"
)

// ObsSession bundles the cross-layer observability of one simulated job:
// an event bus collecting MPI message lifecycles, network flow and
// link-busy spans, per-rank collective phases, and wait/transition
// metrics, plus every core's power-state timeline, exported as per-core
// spans and state residencies. Obtain one with AttachObs before Launch;
// export with WriteTrace / WriteMetrics after Run.
type ObsSession struct {
	w   *World
	bus *obs.Bus
	// collector, when non-nil, streams events as they are emitted (see
	// EnableAnalytics); Report falls back to a post-run replay otherwise.
	collector *analyze.Collector
}

// AttachObs instruments a world for tracing and metrics collection. Call
// before Launch. Observability is off unless attached; when off, every
// instrumentation point is a nil-receiver no-op.
func AttachObs(w *World) *ObsSession {
	bus := obs.NewBus(w.Engine())
	w.AttachObs(bus)
	bus.RecordPower(w.Station(), w.Config().Topo.CoresPerNode())
	return &ObsSession{w: w, bus: bus}
}

// Bus exposes the underlying event bus (for custom instrumentation or
// metric queries in tests).
func (s *ObsSession) Bus() *obs.Bus { return s.bus }

// WriteTrace exports the merged Chrome trace-event JSON — power-state
// spans per core interleaved with message, flow, wait, and collective
// phase spans — viewable in chrome://tracing or https://ui.perfetto.dev.
// Call after Run.
func (s *ObsSession) WriteTrace(w io.Writer) error {
	return s.bus.WriteChromeTrace(w)
}

// WriteMetrics exports the metrics snapshot (counters, accumulated
// durations in seconds — including per-core power-state residency —
// and histograms) as indented JSON. Call after Run.
func (s *ObsSession) WriteMetrics(w io.Writer) error {
	return s.bus.WriteMetricsJSON(w)
}

// WriteTraceFile writes the merged trace to a file path.
func (s *ObsSession) WriteTraceFile(path string) error {
	return writeFileWith(path, s.WriteTrace)
}

// WriteMetricsFile writes the metrics snapshot to a file path.
func (s *ObsSession) WriteMetricsFile(path string) error {
	return writeFileWith(path, s.WriteMetrics)
}

// EnableAnalytics attaches a streaming analytics collector to the bus:
// every subsequently emitted timeline event is normalized and retained
// by the analyzer as it happens, so Report needs no post-run replay.
// Call right after AttachObs (idempotent). The per-event cost is one
// append, held to 250ns of CPU time by BenchmarkAnalyticsOverheadBudget
// in internal/analyze.
func (s *ObsSession) EnableAnalytics() {
	if s.collector == nil {
		s.collector = analyze.NewCollector()
		s.collector.Attach(s.bus)
	}
}

// Analyze runs the post-run analytics engine — critical paths, per-rank
// slack, energy attribution — over this session's event stream and
// returns the full analysis (report plus trace annotations). Call after
// Run. The switch-cost slack filter defaults to this world's power
// model.
func (s *ObsSession) Analyze(opt AnalysisOptions) *analyze.Analysis {
	s.bus.EmitPowerSpans()
	if opt.ODVFSUs == 0 {
		opt.ODVFSUs = s.w.Config().Power.ODVFS.Micros()
	}
	if opt.OThrottleUs == 0 {
		opt.OThrottleUs = s.w.Config().Power.OThrottle.Micros()
	}
	c := s.collector
	if c == nil {
		c = analyze.NewCollector()
		s.bus.EachEvent(c.AddObs)
	}
	return c.Model().Analyze(opt)
}

// Report computes and returns the analytics report with default
// options. Call after Run.
func (s *ObsSession) Report() *AnalysisReport {
	return s.Analyze(AnalysisOptions{}).Report
}

// WriteReport writes the analytics report as deterministic JSON.
func (s *ObsSession) WriteReport(w io.Writer) error {
	return s.Report().Write(w)
}

// WriteReportFile writes the analytics report to a file path.
func (s *ObsSession) WriteReportFile(path string) error {
	return writeFileWith(path, s.WriteReport)
}

// WriteAnnotatedTrace writes the Chrome trace with the analysis folded
// in: critical-path spans colored and flagged (args.crit), wait spans
// annotated with their slack. The stream is round-tripped through the
// standard exporter first, so metadata rows and event order match
// WriteTrace exactly.
func (s *ObsSession) WriteAnnotatedTrace(w io.Writer) error {
	pr, pw := io.Pipe()
	go func() { pw.CloseWithError(s.WriteTrace(pw)) }()
	m, err := analyze.ParseChromeTrace(pr)
	if err != nil {
		return err
	}
	opt := AnalysisOptions{
		ODVFSUs:     s.w.Config().Power.ODVFS.Micros(),
		OThrottleUs: s.w.Config().Power.OThrottle.Micros(),
	}
	return m.Analyze(opt).WriteAnnotatedTrace(w)
}

// WriteAnnotatedTraceFile writes the annotated trace to a file path.
func (s *ObsSession) WriteAnnotatedTraceFile(path string) error {
	return writeFileWith(path, s.WriteAnnotatedTrace)
}

func writeFileWith(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
