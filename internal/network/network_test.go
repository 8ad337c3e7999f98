package network

import (
	"math"
	"testing"
	"testing/quick"

	"pacc/internal/simtime"
)

// newTestFabric builds a default fabric with the incremental proof
// harness on, so every test that drives it also checks the component
// solves and the earliest-completion heap against full recomputation.
func newTestFabric(t *testing.T, nodes int) (*simtime.Engine, *Fabric) {
	t.Helper()
	eng := simtime.NewEngine()
	f, err := NewFabric(eng, nodes, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	f.SetCheckIncremental(true)
	return eng, f
}

func runAll(t *testing.T, eng *simtime.Engine) {
	t.Helper()
	if _, err := eng.Run(simtime.Infinity); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{LinkBytesPerSec: 0, LoopbackBytesPerSec: 1},
		{LinkBytesPerSec: 1, LoopbackBytesPerSec: 0},
		{LinkBytesPerSec: 1, LoopbackBytesPerSec: 1, BaseLatency: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d validated", i)
		}
	}
	eng := simtime.NewEngine()
	if _, err := NewFabric(eng, 0, good); err == nil {
		t.Error("zero-node fabric accepted")
	}
	if _, err := NewFabric(eng, 2, bad[0]); err == nil {
		t.Error("bad config accepted")
	}
}

func TestSingleFlowTime(t *testing.T) {
	eng, f := newTestFabric(t, 2)
	const bytes = 1 << 20
	var doneAt simtime.Time
	fl := f.StartFlow(0, 1, bytes)
	eng.Spawn("w", func(p *simtime.Proc) {
		fl.Done().Await(p, "flow")
		doneAt = p.Now()
	})
	runAll(t, eng)
	want := f.IdealTransferTime(bytes)
	got := simtime.Duration(doneAt)
	if math.Abs(got.Seconds()-want.Seconds()) > 1e-7 {
		t.Fatalf("1MiB flow took %v, want %v", got, want)
	}
}

func TestZeroByteFlow(t *testing.T) {
	eng, f := newTestFabric(t, 2)
	fl := f.StartFlow(0, 1, 0)
	var doneAt simtime.Time
	eng.Spawn("w", func(p *simtime.Proc) {
		fl.Done().Await(p, "flow")
		doneAt = p.Now()
	})
	runAll(t, eng)
	if simtime.Duration(doneAt) != f.Config().BaseLatency {
		t.Fatalf("zero-byte flow done at %v, want %v", doneAt, f.Config().BaseLatency)
	}
}

// TestUplinkSharing: two flows out of the same node halve each other's
// bandwidth; total time doubles versus one flow.
func TestUplinkSharing(t *testing.T) {
	eng, f := newTestFabric(t, 3)
	const bytes = 8 << 20
	fl1 := f.StartFlow(0, 1, bytes)
	fl2 := f.StartFlow(0, 2, bytes)
	var t1, t2 simtime.Time
	eng.Spawn("w1", func(p *simtime.Proc) { fl1.Done().Await(p, "f1"); t1 = p.Now() })
	eng.Spawn("w2", func(p *simtime.Proc) { fl2.Done().Await(p, "f2"); t2 = p.Now() })
	runAll(t, eng)
	solo := float64(bytes) / f.Config().LinkBytesPerSec
	if math.Abs(t1.Seconds()-2*solo) > 0.01*2*solo+1e-5 {
		t.Fatalf("shared flow 1 took %.6fs, want ≈%.6fs", t1.Seconds(), 2*solo)
	}
	if math.Abs(t1.Seconds()-t2.Seconds()) > 1e-6 {
		t.Fatalf("equal flows finished at different times: %v vs %v", t1, t2)
	}
}

// TestDisjointFlowsDoNotInterfere: flows on separate node pairs run at
// full bandwidth concurrently (non-blocking crossbar).
func TestDisjointFlowsDoNotInterfere(t *testing.T) {
	eng, f := newTestFabric(t, 4)
	const bytes = 4 << 20
	fl1 := f.StartFlow(0, 1, bytes)
	fl2 := f.StartFlow(2, 3, bytes)
	var t1, t2 simtime.Time
	eng.Spawn("w1", func(p *simtime.Proc) { fl1.Done().Await(p, "f1"); t1 = p.Now() })
	eng.Spawn("w2", func(p *simtime.Proc) { fl2.Done().Await(p, "f2"); t2 = p.Now() })
	runAll(t, eng)
	want := f.IdealTransferTime(bytes).Seconds()
	for i, got := range []float64{t1.Seconds(), t2.Seconds()} {
		if math.Abs(got-want) > 1e-7 {
			t.Fatalf("disjoint flow %d took %.6fs, want %.6fs", i+1, got, want)
		}
	}
}

// TestDownlinkContention: two senders into one receiver share the
// receiver's downlink.
func TestDownlinkContention(t *testing.T) {
	eng, f := newTestFabric(t, 3)
	const bytes = 4 << 20
	fl1 := f.StartFlow(0, 2, bytes)
	fl2 := f.StartFlow(1, 2, bytes)
	var t1 simtime.Time
	eng.Spawn("w", func(p *simtime.Proc) {
		fl1.Done().Await(p, "f1")
		fl2.Done().Await(p, "f2")
		t1 = p.Now()
	})
	runAll(t, eng)
	solo := float64(bytes) / f.Config().LinkBytesPerSec
	if t1.Seconds() < 2*solo-1e-6 {
		t.Fatalf("incast finished in %.6fs, faster than shared-link bound %.6fs", t1.Seconds(), 2*solo)
	}
}

// TestLateFlowMaxMin: a flow arriving midway slows the first one from
// that point; the first flow's completion reflects both regimes.
func TestLateFlowMaxMin(t *testing.T) {
	eng, f := newTestFabric(t, 3)
	bw := f.Config().LinkBytesPerSec
	// Flow 1: 2 MB. After 1 MB has drained (t=1MB/bw), inject flow 2.
	b1 := int64(2 << 20)
	half := simtime.DurationOf(float64(1<<20) / bw)
	fl1 := f.StartFlow(0, 1, b1)
	var t1 simtime.Time
	eng.Spawn("injector", func(p *simtime.Proc) {
		p.Sleep(half)
		f.StartFlow(0, 2, 4<<20)
	})
	eng.Spawn("w", func(p *simtime.Proc) { fl1.Done().Await(p, "f1"); t1 = p.Now() })
	runAll(t, eng)
	// Remaining 1 MB of flow 1 drains at bw/2: total = 1MB/bw + 1MB/(bw/2).
	want := half.Seconds() + 2*half.Seconds() + f.Config().BaseLatency.Seconds()
	if math.Abs(t1.Seconds()-want) > 1e-6 {
		t.Fatalf("flow1 done at %.6fs, want %.6fs", t1.Seconds(), want)
	}
}

func TestLoopbackPath(t *testing.T) {
	eng, f := newTestFabric(t, 2)
	const bytes = 2 << 20
	fl := f.StartFlow(1, 1, bytes)
	var t1 simtime.Time
	eng.Spawn("w", func(p *simtime.Proc) { fl.Done().Await(p, "lb"); t1 = p.Now() })
	runAll(t, eng)
	want := float64(bytes)/f.Config().LoopbackBytesPerSec + f.Config().BaseLatency.Seconds()
	if math.Abs(t1.Seconds()-want) > 1e-7 {
		t.Fatalf("loopback took %.6fs, want %.6fs", t1.Seconds(), want)
	}
	// Loopback does not contend with the node's switch links.
	if f.ActiveFlows() != 0 {
		t.Fatalf("flows still active: %d", f.ActiveFlows())
	}
}

func TestBadEndpointsPanic(t *testing.T) {
	eng, f := newTestFabric(t, 2)
	_ = eng
	for _, c := range []struct{ src, dst int }{{-1, 0}, {0, 5}, {2, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("StartFlow(%d,%d) did not panic", c.src, c.dst)
				}
			}()
			f.StartFlow(c.src, c.dst, 1)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("negative size did not panic")
			}
		}()
		f.StartFlow(0, 1, -1)
	}()
}

func TestBytesMovedAccounting(t *testing.T) {
	eng, f := newTestFabric(t, 2)
	f.StartFlow(0, 1, 1000)
	f.StartFlow(1, 0, 500)
	runAll(t, eng)
	if got := f.BytesMoved(); got != 1500 {
		t.Fatalf("BytesMoved = %d, want 1500", got)
	}
}

// TestAlltoallStepContention reproduces the mechanism behind Figure 2(a):
// with k concurrent senders per node, per-flow bandwidth is bw/k, so a
// fully-loaded exchange step takes k times the solo transfer time.
func TestAlltoallStepContention(t *testing.T) {
	for _, k := range []int{1, 2, 4, 8} {
		eng := simtime.NewEngine()
		f, err := NewFabric(eng, 2, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		const bytes = 1 << 20
		var last simtime.Time
		for i := 0; i < k; i++ {
			fl := f.StartFlow(0, 1, bytes)
			eng.Spawn("w", func(p *simtime.Proc) {
				fl.Done().Await(p, "f")
				if p.Now() > last {
					last = p.Now()
				}
			})
		}
		if _, err := eng.Run(simtime.Infinity); err != nil {
			t.Fatal(err)
		}
		want := float64(k)*float64(bytes)/f.Config().LinkBytesPerSec + f.Config().BaseLatency.Seconds()
		if math.Abs(last.Seconds()-want) > 1e-6 {
			t.Fatalf("k=%d: step took %.6fs, want %.6fs", k, last.Seconds(), want)
		}
	}
}

// Property: work conservation — n equal flows over one link finish in n
// times the solo duration, regardless of n and size.
func TestWorkConservationProperty(t *testing.T) {
	prop := func(nSel, sizeSel uint8) bool {
		n := int(nSel%6) + 1
		bytes := int64(sizeSel%16+1) << 16
		eng := simtime.NewEngine()
		f, err := NewFabric(eng, 2, DefaultConfig())
		if err != nil {
			return false
		}
		var last simtime.Time
		for i := 0; i < n; i++ {
			fl := f.StartFlow(0, 1, bytes)
			eng.Spawn("w", func(p *simtime.Proc) {
				fl.Done().Await(p, "f")
				if p.Now() > last {
					last = p.Now()
				}
			})
		}
		if _, err := eng.Run(simtime.Infinity); err != nil {
			return false
		}
		want := float64(n)*float64(bytes)/f.Config().LinkBytesPerSec + f.Config().BaseLatency.Seconds()
		return math.Abs(last.Seconds()-want) < 1e-5
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: determinism — the same flow schedule yields identical
// completion times across runs.
func TestFabricDeterminismProperty(t *testing.T) {
	run := func(seed uint8) []simtime.Time {
		eng := simtime.NewEngine()
		f, _ := NewFabric(eng, 4, DefaultConfig())
		var times []simtime.Time
		for i := 0; i < 6; i++ {
			src := (int(seed) + i) % 4
			dst := (src + 1 + i%3) % 4
			bytes := int64((int(seed)%7+1)*(i+1)) << 14
			delay := simtime.Duration(i) * 10 * simtime.Microsecond
			idx := i
			_ = idx
			eng.Spawn("inj", func(p *simtime.Proc) {
				p.Sleep(delay)
				fl := f.StartFlow(src, dst, bytes)
				fl.Done().Await(p, "f")
				times = append(times, p.Now())
			})
		}
		if _, err := eng.Run(simtime.Infinity); err != nil {
			t.Fatal(err)
		}
		return times
	}
	prop := func(seed uint8) bool {
		a := run(seed)
		b := run(seed)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
