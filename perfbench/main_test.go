package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"testing"

	"pacc/internal/sweep"
)

func TestStreamIsSeeded(t *testing.T) {
	const n = 2000
	a, b, c := newStream(7, 0, "t"), newStream(7, 0, "t"), newStream(8, 0, "t")
	differs := false
	for i := 0; i < n; i++ {
		if !reflect.DeepEqual(a.at(i), b.at(i)) {
			t.Fatalf("seed 7 entry %d differs between two streams: %+v vs %+v", i, a.at(i), b.at(i))
		}
		if !reflect.DeepEqual(a.at(i), c.at(i)) {
			differs = true
		}
	}
	if !differs {
		t.Fatal("seeds 7 and 8 produced the same sweep_service stream")
	}
}

func TestStreamShape(t *testing.T) {
	st := newStream(3, 0, "t")
	const n = 4000
	seen := map[sweep.Key]bool{}
	repeats := 0
	cells := map[string]int{}
	for i := 0; i < n; i++ {
		req := st.at(i)
		if err := req.Validate(); err != nil {
			t.Fatalf("entry %d invalid: %v", i, err)
		}
		if k := req.Key(); seen[k] {
			repeats++
		} else {
			seen[k] = true
			cells[fmt.Sprintf("%s/%s/%d", req.Op, req.Mode, req.Bytes)]++
		}
	}
	if share := float64(repeats) / n; math.Abs(share-0.25) > 0.03 {
		t.Errorf("repeat share %.3f, want about 1/4", share)
	}
	if len(cells) != gridSize() {
		t.Errorf("fresh requests cover %d grid cells, want %d", len(cells), gridSize())
	}
	// Prefill requests must never collide with the stream's.
	pre := newStream(3, 1<<62, "prefill")
	for i := 0; i < 500; i++ {
		if seen[pre.at(i).Key()] {
			t.Fatalf("prefill entry %d repeats a stream request", i)
		}
	}
}

func TestSweepResultsAreDeterministic(t *testing.T) {
	st := newStream(11, 0, "t")
	for i := 0; i < 3; i++ {
		req := st.at(i)
		a, err := sweep.Simulate(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		b, err := sweep.Simulate(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Fatalf("request %+v: two simulations differ", req)
		}
	}
}

func TestVariantsAreSeeded(t *testing.T) {
	seen := map[int]bool{}
	for seed := uint64(0); seed < 64; seed++ {
		if variantOf(seed) != variantOf(seed) {
			t.Fatal("variantOf is not a function of the seed")
		}
		seen[variantOf(seed)] = true
	}
	if len(seen) != nVariants {
		t.Errorf("64 seeds reach %d of %d variants", len(seen), nVariants)
	}
	for _, s := range simSpecs {
		if got := len(digests[s.name]); got != nVariants {
			t.Errorf("%s: %d recorded digests, want %d", s.name, got, nVariants)
		}
	}
}

// TestTestbedMatchesDigest simulates two iterations of every testbed_8x8
// variant and checks them against the recorded digests.
func TestTestbedMatchesDigest(t *testing.T) {
	s := *testbedSpec
	s.itersPerWorld = 2
	for v := 0; v < nVariants; v++ {
		recs, _, err := s.runWorld(s.gen(v), nil, "test")
		if err != nil {
			t.Fatal(err)
		}
		want, ok := lookupDigest(s.name, v)
		for _, r := range recs {
			if !ok || !r.out.matches(want) || r.failed != 0 {
				t.Fatalf("variant %d: output %+v (failed calls %d), digest %+v", v, r.out, r.failed, want)
			}
		}
	}
}

// TestMetricsMatchBenchmarkJSON checks that every metric the benchmark
// prints is declared, with the same unit, in BENCHMARK.json, and that a
// run prints every declared metric.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, declared []struct{ Name, Unit string }, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark prints %d", kind, len(declared), len(defs))
			return
		}
		for i, d := range defs {
			if declared[i].Name != d.name || declared[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the benchmark prints %s [%s]",
					kind, i, declared[i].Name, declared[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", bench.EndToEnd, endToEndMetrics)
	same("per_layer", bench.PerLayer, perLayerMetrics)
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bench.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bench.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %s, benchmark %s", i, bench.Workloads[i].Name, w.name)
		}
	}

	o := &outcome{setups: []float64{1}, units: []float64{1, 2}, timedWall: 3, timedCPU: 3, opsPerUnit: 3, peakRSSMB: 1, simLatencyUs: 1, simEnergyJ: 1}
	m, err := conform(endToEnd(o), endToEndMetrics)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range endToEndMetrics {
		if got, ok := m[d.name]; !ok || got.Unit != d.unit || got.Value <= 0 {
			t.Errorf("end-to-end metric %s printed as %+v", d.name, got)
		}
	}
	if _, err := conform(map[string]metric{"no.such": {1, "s"}}, perLayerMetrics); err == nil {
		t.Error("conform accepted a metric outside the schema")
	}
}

func TestFoldTraces(t *testing.T) {
	out := []byte(`File: perfbench
Type: cpu
-----------+-------------------------------------------------------
      30ms   runtime.chansend1
             pacc/internal/simtime.(*Engine).runProc
             pacc/internal/simtime.(*Engine).Run
             main.main
-----------+-------------------------------------------------------
      20ms   runtime.mapaccess2
             pacc/internal/network.(*Fabric).armNext
             pacc/internal/network.(*Fabric).onCompletion
-----------+-------------------------------------------------------
      40ms   runtime.futex
             runtime.findRunnable
             runtime.schedule
             runtime.park_m
             runtime.mcall
-----------+-------------------------------------------------------
      10ms   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
`)
	got, err := foldTraces(out)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"total_s": 0.1, "simtime": 0.3, "network": 0.2, "runtime": 0.5,
		"handoff": 0.7, "arm": 0.2,
	}
	for k, w := range want {
		if math.Abs(got[k]-w) > 1e-9 {
			t.Errorf("%s = %g, want %g", k, got[k], w)
		}
	}
}
