// Command perfbench is the pacc benchmark: it runs one named workload for
// a fixed host-time budget, checks every simulated output against recorded
// digests (or, for the sweep service, against a serial re-simulation), and
// prints one JSON result line. With -trace 1 it instead reports per-layer
// metrics from a traced run: spans around each layer's public calls, the
// counters the program keeps, and a CPU profile folded by package.
//
// Run it through run.py, which builds this package inside the checkout:
//
//	python3 perfbench/run.py --workload testbed_8x8 --seed 1 --seconds 20 --trace 0
//
// See README.md for the workloads, the metrics and what each layer metric
// is expected to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what every workload receives: its generated inputs and budget.
type env struct {
	seed    uint64
	seconds float64
	// work is a scratch directory inside the checkout, removed at exit.
	work string
	// tr is non-nil in a traced run.
	tr *tracer
}

// workload runs one named workload. measure performs the timed run;
// layers, called only in a traced run, adds the per-layer metrics of the
// untraced (plain) and traced measurements and of passes of its own.
type workload struct {
	name    string
	measure func(e *env) (*outcome, error)
	layers  func(e *env, plain, traced *outcome, m map[string]metric) error
}

// outcome is what one measured run produced.
type outcome struct {
	attempted, failed int64
	// setups are host seconds of each set-up: a world build plus warm-up,
	// or a daemon restart.
	setups []float64
	// units are host seconds of each timed unit of work: an iteration, a
	// barrier world, or a request's submit→result. timedWall and timedCPU
	// are the host wall and process CPU seconds of all timed sections, and
	// opsPerUnit the ops (collective calls or requests) in one unit.
	units               []float64
	timedWall, timedCPU float64
	opsPerUnit          float64
	// peakRSSMB is read when the timed sections end, before any check.
	peakRSSMB    float64
	simLatencyUs float64
	simEnergyJ   float64
	// counts are layer-level tallies gathered during the run.
	counts map[string]float64
	// sweep is the service run sweep_service leaves for its layer metrics.
	sweep *sweepRun
}

// ops is the number of ops the timed sections completed.
func (o *outcome) ops() float64 { return float64(len(o.units)) * o.opsPerUnit }

// wallPerUnit is the mean host wall seconds per unit.
func (o *outcome) wallPerUnit() float64 { return o.timedWall / float64(len(o.units)) }

var workloads = []workload{testbed8x8, scale4096, barrier64k, sweepService}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "host seconds to measure")
	trace := flag.Int("trace", 0, "1 for the traced per-layer run")
	buildDir := flag.String("build-dir", ".bench_build", "scratch directory inside the checkout")
	record := flag.String("record-digests", "", "recompute the simulated-output digests and write them to this file")
	flag.Parse()

	if *record != "" {
		if err := recordDigests(*record); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of %v), -seconds > 0 and -trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	res, err := run(wl, *seed, *seconds, *trace == 1, *buildDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// run executes one workload and assembles its result line.
func run(wl *workload, seed uint64, seconds float64, traced bool, buildDir string) (*result, error) {
	workRoot := filepath.Join(buildDir, "work")
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(workRoot, wl.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	e := &env{seed: seed, seconds: seconds, work: work}

	if !traced {
		o, err := wl.measure(e)
		if err != nil {
			return nil, err
		}
		m, err := conform(endToEnd(o), endToEndMetrics)
		if err != nil {
			return nil, err
		}
		logf("%s seed %d: %d timed units, %d set-ups, %d/%d ops failed",
			wl.name, seed, len(o.units), len(o.setups), o.failed, o.attempted)
		return &result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: m}, nil
	}

	// Traced run: an untraced measurement first, then the same
	// measurement under spans and the CPU profile, then the layer passes.
	plain, err := wl.measure(e)
	if err != nil {
		return nil, err
	}
	tr, err := startTracer(filepath.Join(buildDir, "trace"), wl.name, seed)
	if err != nil {
		return nil, err
	}
	e.tr = tr
	o, err := wl.measure(e)
	if stopErr := tr.stopProfile(); err == nil {
		err = stopErr
	}
	if err != nil {
		return nil, err
	}
	m := map[string]metric{}
	tr.overhead(m, plain, o)
	if err := wl.layers(e, plain, o, m); err != nil {
		return nil, err
	}
	if err := tr.finish(m); err != nil {
		return nil, err
	}
	if m, err = conform(m, perLayerMetrics); err != nil {
		return nil, err
	}
	attempted, failed := plain.attempted+o.attempted, plain.failed+o.failed
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// endToEnd derives the untraced metrics of one measured run. Host times
// are totals over the timed sections divided by the units done, so every
// stall and every garbage collection is counted.
func endToEnd(o *outcome) map[string]metric {
	return map[string]metric{
		"setup_s":          {median(o.setups), "s"},
		"wall_s":           {o.wallPerUnit(), "s"},
		"cpu_s":            {o.timedCPU / float64(len(o.units)), "s"},
		"throughput_per_s": {o.ops() / o.timedWall, "1/s"},
		"peak_rss_mb":      {o.peakRSSMB, "MB"},
		"latency_p50_s":    {quantile(o.units, 0.50), "s"},
		"latency_p99_s":    {quantile(o.units, 0.99), "s"},
		"sim_latency_us":   {o.simLatencyUs, "us"},
		"sim_energy_j":     {o.simEnergyJ, "J"},
	}
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// hostClock is a host wall and process CPU reading.
type hostClock struct {
	wall time.Time
	cpu  float64
}

func readClock() hostClock { return hostClock{wall: time.Now(), cpu: processCPU()} }

// wallSince returns wall seconds elapsed since c.
func (c hostClock) wallSince() float64 { return time.Since(c.wall).Seconds() }

// since returns wall and CPU seconds elapsed since c.
func (c hostClock) since() (wall, cpu float64) {
	n := readClock()
	return n.wall.Sub(c.wall).Seconds(), n.cpu - c.cpu
}

// processCPU is the process's user+system CPU seconds so far.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// peakRSSMB is the process's peak resident set so far, in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// releaseMemory collects garbage from the previous set-up so each world
// starts from the same heap; it runs outside every timed section.
func releaseMemory() {
	runtime.GC()
}

// median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates the q-th quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// runtimeStats samples the Go runtime counters the traced run reports.
type runtimeStats struct {
	gcCPU, totalCPU float64
	gcCycles        float64
	allocBytes      float64
	allocs          float64
}

var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
}

func readRuntime() runtimeStats {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return runtimeStats{gcCPU: v(0), totalCPU: v(1), gcCycles: v(2), allocBytes: v(3), allocs: v(4)}
}

func (a runtimeStats) sub(b runtimeStats) runtimeStats {
	return runtimeStats{
		gcCPU: a.gcCPU - b.gcCPU, totalCPU: a.totalCPU - b.totalCPU,
		gcCycles: a.gcCycles - b.gcCycles, allocBytes: a.allocBytes - b.allocBytes,
		allocs: a.allocs - b.allocs,
	}
}

// splitmix64 is the generator behind every seeded input.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// rng is a splitmix64 stream.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return splitmix64(r.s)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }
