package network

import (
	"errors"
	"strings"
	"testing"

	"pacc/internal/simtime"
)

// splitmixTest is a local SplitMix64 step for deterministic fuzz
// schedules (the fault package keeps its own copy unexported).
func splitmixTest(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// FuzzIncrementalMaxMin drives a racked fabric through a seeded random
// storm of overlapping flows and link-fault windows with the
// incremental-vs-full proof harness armed: after every component-scoped
// solve the fabric re-solves everything and fails the run on any exact
// rate mismatch, and every completion armed from the earliest-completion
// heap is checked against a full scan. Any seed that finds a divergence
// is a bug in the incremental fairness math or the completion index. The
// checked-in corpus holds seeds whose same-instant bursts arm from the
// heap while flows are stalled behind down links.
func FuzzIncrementalMaxMin(f *testing.F) {
	for _, seed := range []uint64{1, 7, 42, 0xdeadbeef, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		eng := simtime.NewEngine()
		cfg := DefaultConfig()
		// Racks force 4-hop paths so components span rack uplinks;
		// a modest uplink keeps them contended.
		cfg.NodesPerRack = 4
		cfg.RackUplinkBytesPerSec = cfg.LinkBytesPerSec / 2
		const nodes = 12
		fab, err := NewFabric(eng, nodes, cfg)
		if err != nil {
			t.Fatal(err)
		}
		fab.SetCheckIncremental(true)

		h := seed
		next := func(mod uint64) uint64 {
			h = splitmixTest(h)
			return h % mod
		}
		// A few fault windows: degraded and fully-down links with
		// overlapping spans, so cap changes hit busy components.
		names := fab.LinkNames()
		type window struct{ start, dur simtime.Duration }
		var windows [4]window
		for i := range windows {
			name := names[next(uint64(len(names)))]
			factor := float64(next(3)) * 0.35 // 0, 0.35, or 0.70
			start := simtime.Duration(next(400)) * simtime.Micros(1)
			dur := simtime.Duration(1+next(300)) * simtime.Micros(1)
			if err := fab.ScheduleLinkFault(name, factor, start, dur); err != nil {
				t.Fatal(err)
			}
			windows[i] = window{start, dur}
		}
		// Random flow injections across the run. Zero-size and
		// self-loops included; sizes span sub-byte-residue to multi-MB.
		for i := 0; i < 60; i++ {
			src := int(next(nodes))
			dst := int(next(nodes))
			bytes := int64(next(1 << 22))
			at := simtime.Time(next(600)) * simtime.Time(simtime.Micros(1))
			eng.At(at, func() { fab.StartFlow(src, dst, bytes) })
		}
		// Bursts of flows sharing one instant: after the first arm of
		// an instant rebuilds the completion heap, the rest read it. Every
		// other burst lands on a fault window's opening or closing edge
		// or inside it.
		for b := 0; b < 8; b++ {
			at := simtime.Duration(next(600)) * simtime.Micros(1)
			if b%2 == 0 {
				w := windows[next(uint64(len(windows)))]
				switch next(3) {
				case 0:
					at = w.start
				case 1:
					at = w.start + w.dur
				default:
					at = w.start + simtime.Duration(next(uint64(w.dur)))
				}
			}
			for n := 2 + next(6); n > 0; n-- {
				src := int(next(nodes))
				dst := int(next(nodes))
				bytes := int64(next(1 << 22))
				eng.At(simtime.Time(0).Add(at), func() { fab.StartFlow(src, dst, bytes) })
			}
		}
		if _, err := eng.Run(simtime.Infinity); err != nil {
			var mism *IncrementalMismatchError
			if errors.As(err, &mism) {
				t.Fatalf("incremental solve diverged from full solve: %v", err)
			}
			var cm *CompletionMismatchError
			if errors.As(err, &cm) {
				t.Fatalf("completion heap diverged from full scan: %v", err)
			}
			// Flows stalled behind a down link when the queue drained
			// are not an error of the solver; anything else is.
			t.Fatalf("run failed: %v", err)
		}
	})
}

// TestIncrementalEquivalenceAfterFaults pins the non-fuzz case: a fixed
// busy pattern with fault edges mid-flight runs clean under the checker.
func TestIncrementalEquivalenceAfterFaults(t *testing.T) {
	eng := simtime.NewEngine()
	cfg := DefaultConfig()
	cfg.NodesPerRack = 2
	cfg.RackUplinkBytesPerSec = cfg.LinkBytesPerSec
	fab, err := NewFabric(eng, 8, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fab.SetCheckIncremental(true)
	if err := fab.ScheduleLinkFault("node1-up", 0.5, simtime.Micros(10), simtime.Micros(200)); err != nil {
		t.Fatal(err)
	}
	if err := fab.ScheduleLinkFault("rack1-down", 0, simtime.Micros(50), simtime.Micros(100)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			if i == j {
				continue
			}
			src, dst := i, j
			eng.At(simtime.Time(i)*simtime.Time(simtime.Micros(5)),
				func() { fab.StartFlow(src, dst, 1<<18) })
		}
	}
	if _, err := eng.Run(simtime.Infinity); err != nil {
		t.Fatalf("run failed under incremental checker: %v", err)
	}
	if fab.ActiveFlows() != 0 {
		t.Fatalf("%d flows still active after drain", fab.ActiveFlows())
	}
}

// TestRecomputeAllocFree: the full re-solve + re-arm cycle on a warm
// fabric allocates at most the one completion-event closure it arms —
// the water-fill itself (component walk, freeze rounds, scratch) must
// not touch the heap.
func TestRecomputeAllocFree(t *testing.T) {
	eng := simtime.NewEngine()
	fab, err := NewFabric(eng, 16, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		fab.StartFlow(i, (i+5)%16, 1<<20)
	}
	// Warm the solver scratch.
	fab.advance()
	fab.reschedule()
	allocs := testing.AllocsPerRun(50, func() {
		fab.advance()
		fab.reschedule()
	})
	if allocs > 1 {
		t.Fatalf("full recompute allocated %.1f times per cycle, want <= 1 (the armed event closure)", allocs)
	}
}

// TestIncrementalSolveAllocFree: injecting a flow into a warm, busy
// fabric — component walk, incremental water-fill, re-arm — stays
// within the small fixed budget of one flow object, its future, and the
// armed completion closure.
func TestIncrementalSolveAllocFree(t *testing.T) {
	eng := simtime.NewEngine()
	fab, err := NewFabric(eng, 16, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		fab.StartFlow(i, (i+3)%16, 1<<24)
	}
	fab.StartFlow(0, 1, 1<<10) // warm scratch for the measured shape
	allocs := testing.AllocsPerRun(20, func() {
		fab.StartFlow(0, 1, 1<<10)
	})
	// Flow struct + Future + completion closure, plus slack for the
	// growing per-link/fabric flow lists (amortized appends).
	if allocs > 5 {
		t.Fatalf("StartFlow on a warm fabric allocated %.1f times, want <= 5", allocs)
	}
}

// TestCompletionCheckCatchesCorruptDelay: under the proof harness an arm
// that reads the earliest-completion heap is checked against a full
// scan, so one cached delay off by a nanosecond fails the run with a
// CompletionMismatchError naming both durations.
func TestCompletionCheckCatchesCorruptDelay(t *testing.T) {
	eng, fab := newTestFabric(t, 4)
	at := simtime.Time(simtime.Micros(1))
	eng.At(at, func() {
		// The clock moved, so this arm rebuilds the heap.
		fab.StartFlow(0, 1, 1<<20)
		// Still the minimum one nanosecond earlier, so heap order
		// holds and only the value is wrong.
		fab.heap[0].delay--
		// A disjoint, slower flow at the same instant: this arm
		// refreshes only its own component and reads the heap.
		fab.StartFlow(2, 3, 1<<21)
	})
	_, err := eng.Run(simtime.Infinity)
	var cm *CompletionMismatchError
	if !errors.As(err, &cm) {
		t.Fatalf("Run returned %v, want a CompletionMismatchError", err)
	}
	if cm.At != at || cm.Full <= 0 || cm.Indexed != cm.Full-1 {
		t.Errorf("mismatch = %+v, want indexed one ns below full at %v", cm, at)
	}
	msg := cm.Error()
	for _, want := range []string{cm.Indexed.String(), cm.Full.String()} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
}

// TestStarvedFlowReportedInFlowOrder: when one component solve starves
// several flows, the run names the first of them in the fabric's flow
// order, as a full scan always has, not the first the component walk
// reached.
func TestStarvedFlowReportedInFlowOrder(t *testing.T) {
	eng, fab := newTestFabric(t, 6)
	fab.StartFlow(4, 5, 1<<20) // unrelated, keeps the heap non-trivial
	fab.StartFlow(0, 2, 1<<20) // will starve on node2-down
	fab.StartFlow(3, 1, 1<<20) // will starve on node3-up
	// Corrupt two capacities (adminFactor stays 1, so the paths count
	// as healthy). The next flow joins both starving flows into one
	// component at the same instant; the walk from its path reaches
	// 3->1 before 0->2.
	fab.up[3].cap = 0
	fab.down[2].cap = 0
	fab.StartFlow(3, 2, 1<<20)
	_, err := eng.Run(simtime.Infinity)
	var sf *StarvedFlowError
	if !errors.As(err, &sf) {
		t.Fatalf("Run returned %v, want a StarvedFlowError", err)
	}
	if sf.Src != 0 || sf.Dst != 2 || sf.At != 0 {
		t.Errorf("starved flow = %+v, want 0->2 at 0", sf)
	}
}
