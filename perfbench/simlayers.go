package main

import (
	"io"
	"time"

	"pacc/internal/mpi"
	"pacc/internal/obs"
	"pacc/internal/plan"
)

// layers adds a simulation workload's per-layer metrics: counts from the
// traced measurement, span durations, plan build/verify timings at the
// workload's shape, and the bus-only counts of a separate counting pass.
func (s *simSpec) layers(e *env, plain, o *outcome, m map[string]metric) error {
	in := s.gen(variantOf(e.seed))
	ops := o.ops()
	m["simtime.events"] = metric{o.counts["events"] / ops, "count/op"}
	m["simtime.run_s"] = metric{o.wallPerUnit(), "s"}
	m["simtime.ns_per_event"] = metric{o.timedWall / o.counts["events"] * 1e9, "ns"}
	m["simtime.launch_s"] = metric{median(e.tr.spanSeconds("simtime.Launch")), "s"}
	m["mpi.new_world_s"] = metric{median(e.tr.spanSeconds("mpi.NewWorld")), "s"}
	// Message statistics are per iteration; spread them over its calls.
	calls := float64(s.calls)
	m["mpi.messages"] = metric{o.counts["stats.messages"] / calls, "count/op"}
	m["mpi.control_msgs"] = metric{o.counts["stats.control"] / calls, "count/op"}
	m["mpi.net_bytes"] = metric{o.counts["stats.net_bytes"] / calls, "B/op"}
	m["mpi.shm_bytes"] = metric{o.counts["stats.shm_bytes"] / calls, "B/op"}
	m["collective.calls"] = metric{ops, "count"}
	m["collective.host_us_per_call"] = metric{o.timedWall / ops * 1e6, "us"}
	runtimeLayer(m, o.counts, ops)

	build, verify, err := timePlans(e.tr, s.plans(in), s.config())
	if err != nil {
		return err
	}
	m["plan.build_us"] = metric{build, "us"}
	m["plan.verify_us"] = metric{verify, "us"}

	c, err := s.countingPass(in)
	if err != nil {
		return err
	}
	m["network.flows"] = metric{c.flows / calls, "count/op"}
	m["power.dvfs_transitions"] = metric{c.dvfs / calls, "count/op"}
	m["power.throttle_transitions"] = metric{c.throttle / calls, "count/op"}
	m["obs.events"] = metric{c.events / calls, "count/op"}
	base := plain.wallPerUnit()
	m["obs.overhead_frac"] = metric{(c.wall - base) / base, "ratio"}
	m["obs.export_us"] = metric{c.exportUs, "us"}
	return nil
}

// runtimeLayer adds the Go runtime metrics sampled over timed sections.
func runtimeLayer(m map[string]metric, counts map[string]float64, ops float64) {
	if counts["total_cpu"] > 0 {
		m["runtime.gc_cpu_frac"] = metric{counts["gc_cpu"] / counts["total_cpu"], "ratio"}
	}
	m["runtime.gc_cycles"] = metric{counts["gc_cycles"] / ops, "count/op"}
	m["runtime.alloc_mb"] = metric{counts["alloc_bytes"] / ops / (1 << 20), "MB/op"}
	m["runtime.allocs_per_call"] = metric{counts["allocs"] / ops, "count/op"}
}

// timePlans times plan.BuildNamed and plan.Verify on each build at cfg's
// shape, repeating each until it has run for a tenth of a second, and
// returns the sums over builds of the median microseconds.
func timePlans(tr *tracer, builds []planBuild, cfg mpi.Config) (buildUs, verifyUs float64, err error) {
	if len(builds) == 0 {
		return 0, 0, nil
	}
	v, err := viewOf(cfg)
	if err != nil {
		return 0, 0, err
	}
	for _, b := range builds {
		var p *plan.Plan
		bt, err := repeatTimed(tr, "plan.BuildNamed", func() error {
			p, err = plan.BuildNamed(b.name, v, b.spec)
			return err
		})
		if err != nil {
			return 0, 0, err
		}
		vt, err := repeatTimed(tr, "plan.Verify", func() error { return plan.Verify(p) })
		if err != nil {
			return 0, 0, err
		}
		buildUs += bt * 1e6
		verifyUs += vt * 1e6
	}
	return buildUs, verifyUs, nil
}

// repeatTimed runs fn at least 5 times and for at least 100 ms, each
// under a span, and returns the median seconds per call.
func repeatTimed(tr *tracer, span string, fn func() error) (float64, error) {
	var ds []float64
	start := time.Now()
	for len(ds) < 5 || time.Since(start) < 100*time.Millisecond {
		sp := tr.begin("microbench", span)
		t0 := time.Now()
		err := fn()
		ds = append(ds, time.Since(t0).Seconds())
		tr.end(sp)
		if err != nil {
			return 0, err
		}
	}
	return median(ds), nil
}

// busCounts are the counts only an attached obs bus keeps, over one
// iteration, with the iteration's host time under the bus.
type busCounts struct {
	flows, dvfs, throttle, events float64
	wall                          float64
	exportUs                      float64
}

func readBus(b *obs.Bus) busCounts {
	return busCounts{
		flows:    float64(b.Counter(obs.CtrNetFlows)),
		dvfs:     float64(b.Counter(obs.CtrDVFSTransitions)),
		throttle: float64(b.Counter(obs.CtrThrottleTransitions)),
		events:   float64(b.Events()),
	}
}

// countingPass runs one world with a bus attached — warm-up plus one
// counted iteration, or the single iteration — and returns the counted
// iteration's bus counts, its host time, and the metrics export time.
func (s *simSpec) countingPass(in inputs) (busCounts, error) {
	releaseMemory()
	var bus *obs.Bus
	sw, err := s.build(in, nil, "", func(w *mpi.World) *obs.Bus {
		bus = obs.NewBus(w.Engine())
		return bus
	})
	if err != nil {
		return busCounts{}, err
	}
	if s.itersPerWorld > 0 {
		for i := 0; i < 2; i++ {
			if _, err := sw.run(); err != nil {
				return busCounts{}, err
			}
		}
	}
	before := readBus(bus)
	t0 := time.Now()
	if _, err := sw.run(); err != nil {
		return busCounts{}, err
	}
	wall := time.Since(t0).Seconds()
	after := readBus(bus)
	if s.itersPerWorld > 0 {
		sw.ctl.done = true
		if _, err := sw.run(); err != nil {
			return busCounts{}, err
		}
	}
	t0 = time.Now()
	if err := bus.WriteMetricsJSON(io.Discard); err != nil {
		return busCounts{}, err
	}
	return busCounts{
		flows:    after.flows - before.flows,
		dvfs:     after.dvfs - before.dvfs,
		throttle: after.throttle - before.throttle,
		events:   after.events - before.events,
		wall:     wall,
		exportUs: time.Since(t0).Seconds() * 1e6,
	}, nil
}
