package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"sync"
	"time"
)

// tracer records spans around the calls the benchmark makes into each
// layer, keeps them in memory, and writes them out with the folded CPU
// profile when the run ends. A nil *tracer records nothing.
type tracer struct {
	dir, base string
	t0        time.Time
	mu        sync.Mutex
	spans     []spanRec
	prof      *os.File
}

// spanRec is one recorded span. Spans of one world or one request share a
// trace id; times are nanoseconds since the tracer started.
type spanRec struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Trace   string `json:"trace"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func startTracer(dir, name string, seed uint64) (*tracer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	t := &tracer{dir: dir, base: fmt.Sprintf("%s-seed%d", name, seed), t0: time.Now()}
	f, err := os.Create(filepath.Join(dir, t.base+".cpu.pprof"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	t.prof = f
	return t, nil
}

func (t *tracer) stopProfile() error {
	pprof.StopCPUProfile()
	return t.prof.Close()
}

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(trace, name string) int { return t.child(trace, name, 0) }

// child opens a span under parent.
func (t *tracer) child(trace, name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, spanRec{ID: len(t.spans) + 1, Parent: parent, Trace: trace, Name: name, StartNs: now, EndNs: -1})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNs = now
	t.mu.Unlock()
}

// spanSeconds returns the durations, in seconds, of the closed spans
// named name.
func (t *tracer) spanSeconds(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.EndNs >= 0 {
			out = append(out, float64(s.EndNs-s.StartNs)/1e9)
		}
	}
	return out
}

// overhead reports what tracing cost: traced minus untraced wall_s.
func (t *tracer) overhead(m map[string]metric, plain, traced *outcome) {
	p, q := plain.wallPerUnit(), traced.wallPerUnit()
	m["trace.overhead_s"] = metric{q - p, "s"}
	m["trace.overhead_frac"] = metric{(q - p) / p, "ratio"}
}

// finish writes the spans out, folds the CPU profile into per-layer
// shares, and adds the span- and profile-derived metrics.
func (t *tracer) finish(m map[string]metric) error {
	t.mu.Lock()
	spans, err := json.Marshal(t.spans)
	nSpans := len(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(t.dir, t.base+".spans.json"), spans, 0o644); err != nil {
		return err
	}
	m["trace.spans"] = metric{float64(nSpans), "count"}
	shares, err := foldProfile(filepath.Join(t.dir, t.base+".cpu.pprof"))
	if err != nil {
		return err
	}
	for _, l := range layerNames {
		m[l+".cpu_frac"] = metric{shares[l], "ratio"}
	}
	m["simtime.handoff_cpu_frac"] = metric{shares["handoff"], "ratio"}
	m["network.arm_cpu_frac"] = metric{shares["arm"], "ratio"}
	m["trace.profile_s"] = metric{shares["total_s"], "s"}
	return nil
}

// layerNames are the layers a CPU sample can be charged to.
var layerNames = []string{"simtime", "network", "mpi", "collective", "plan", "power", "obs", "sweep", "runtime", "bench"}

// layerOf maps a package path onto its layer, or "" for code that is not
// one of the program's own layers.
func layerOf(pkg string) string {
	switch strings.TrimPrefix(pkg, "pacc/internal/") {
	case "simtime":
		return "simtime"
	case "network":
		return "network"
	case "mpi", "shm", "topology", "fault":
		return "mpi"
	case "collective", "model":
		return "collective"
	case "plan":
		return "plan"
	case "power":
		return "power"
	case "obs":
		return "obs"
	case "sweep":
		return "sweep"
	case "main":
		return "bench"
	}
	return ""
}

// pkgOf extracts the package path of a symbolized function name, such as
// "pacc/internal/network.(*Fabric).armNext"; closures of package main
// read "main".
func pkgOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// Functions whose own time is the rank park/resume handoff, and the
// fabric's completion-arming scans.
var (
	handoffFuncs = map[string]bool{
		"pacc/internal/simtime.(*Engine).runProc":     true,
		"pacc/internal/simtime.(*Proc).yield":         true,
		"pacc/internal/simtime.(*Engine).Spawn.func1": true,
	}
	armFuncs = map[string]bool{
		"pacc/internal/network.(*Fabric).armNext":      true,
		"pacc/internal/network.(*Fabric).advance":      true,
		"pacc/internal/network.(*Fabric).onCompletion": true,
	}
	// gcFrames mark samples of the collector's own goroutines.
	gcFrames = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcStart", "runtime.markroot"}
)

// foldProfile charges each CPU sample to the innermost frame that belongs
// to one of the program's layers, so the runtime and library code a layer
// calls counts as that layer's time. Samples with no such frame are Go
// runtime work (scheduler, collector). Scheduler samples outside the collector count as
// rank handoff, as do samples charged to the engine's park/resume
// functions. It reads the profile with `go tool pprof -traces`.
func foldProfile(path string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return foldTraces(out)
}

// foldTraces folds the text of `go tool pprof -traces`: sample blocks
// separated by dashed lines, each a weight and leaf function followed by
// its callers, one per line.
func foldTraces(out []byte) (map[string]float64, error) {
	acc := map[string]float64{}
	var total float64
	var weight float64
	var stack []string
	flush := func() {
		if len(stack) == 0 {
			return
		}
		total += weight
		layer, owner := "", ""
		for _, fn := range stack {
			if l := layerOf(pkgOf(fn)); l != "" {
				layer, owner = l, fn
				break
			}
		}
		if layer == "" {
			layer = "runtime"
		}
		acc[layer] += weight
		switch {
		case handoffFuncs[owner]:
			acc["handoff"] += weight
		case armFuncs[owner]:
			acc["arm"] += weight
		case owner == "" && isScheduler(stack):
			acc["handoff"] += weight
		}
		stack = stack[:0]
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	inTraces := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inTraces = true
			continue
		}
		if !inTraces || strings.TrimSpace(line) == "" {
			continue
		}
		fields := strings.Fields(line)
		if !strings.HasPrefix(line, " ") || len(fields) == 0 {
			continue
		}
		if len(stack) == 0 {
			if len(fields) < 2 {
				continue
			}
			w, err := parseSampleValue(fields[0])
			if err != nil {
				return nil, err
			}
			weight = w
			stack = append(stack, fields[1])
			continue
		}
		stack = append(stack, fields[0])
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if total == 0 {
		return map[string]float64{}, nil
	}
	shares := map[string]float64{"total_s": total}
	for k, v := range acc {
		shares[k] = v / total
	}
	return shares, nil
}

// isScheduler reports a sample in goroutine scheduling outside the
// collector: with ranks parking and resuming on every simulated event,
// nearly all of it is rank handoff.
func isScheduler(stack []string) bool {
	sched := false
	for _, fn := range stack {
		for _, g := range gcFrames {
			if fn == g {
				return false
			}
		}
		switch fn {
		case "runtime.schedule", "runtime.park_m", "runtime.mcall", "runtime.goready", "runtime.ready",
			"runtime.findRunnable", "runtime.futex", "runtime.wakep", "runtime.stopm", "runtime.startm",
			"runtime.gogo", "runtime.goexit0", "runtime.notesleep", "runtime.notewakeup":
			sched = true
		}
	}
	return sched
}

// parseSampleValue parses a pprof -traces sample weight such as "10ms" or
// "1.20s" into seconds.
func parseSampleValue(s string) (float64, error) {
	s = strings.Replace(s, "mins", "m", 1)
	s = strings.Replace(s, "hrs", "h", 1)
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("pprof sample value %q: %w", s, err)
	}
	return d.Seconds(), nil
}
