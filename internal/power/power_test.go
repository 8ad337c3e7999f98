package power

import (
	"math"
	"testing"
	"testing/quick"

	"pacc/internal/simtime"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDefaultModelValid(t *testing.T) {
	m := DefaultModel()
	if err := m.Validate(); err != nil {
		t.Fatalf("default model invalid: %v", err)
	}
	if !almost(m.Duty[0], 1.0, 1e-12) {
		t.Errorf("Duty[T0] = %v, want 1.0", m.Duty[0])
	}
	if !almost(m.Duty[7], 0.12, 1e-12) {
		t.Errorf("Duty[T7] = %v, want 0.12 (CPU 12%% active in T7)", m.Duty[7])
	}
}

func TestModelValidateRejectsBadValues(t *testing.T) {
	mk := func(mutate func(*Model)) *Model {
		m := DefaultModel()
		mutate(m)
		return m
	}
	bad := []*Model{
		mk(func(m *Model) { m.FMinGHz = -1 }),
		mk(func(m *Model) { m.FMaxGHz = m.FMinGHz - 0.1 }),
		mk(func(m *Model) { m.VoltAtFMin = 0 }),
		mk(func(m *Model) { m.DynWattsAtFMax = -5 }),
		mk(func(m *Model) { m.IdleActivity = 1.5 }),
		mk(func(m *Model) { m.Duty[3] = 1.2 }),
		mk(func(m *Model) { m.Duty[5] = m.Duty[4] + 0.1 }),
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: bad model validated", i)
		}
	}
}

func TestVoltInterpolation(t *testing.T) {
	m := DefaultModel()
	if v := m.VoltAt(m.FMaxGHz); !almost(v, m.VoltAtFMax, 1e-12) {
		t.Errorf("V(fmax) = %v", v)
	}
	if v := m.VoltAt(m.FMinGHz); !almost(v, m.VoltAtFMin, 1e-12) {
		t.Errorf("V(fmin) = %v", v)
	}
	mid := (m.FMinGHz + m.FMaxGHz) / 2
	if v := m.VoltAt(mid); !almost(v, (m.VoltAtFMin+m.VoltAtFMax)/2, 1e-12) {
		t.Errorf("V(mid) = %v", v)
	}
	// Clamping.
	if v := m.VoltAt(100); !almost(v, m.VoltAtFMax, 1e-12) {
		t.Errorf("V(100GHz) = %v, want clamp to Vmax", v)
	}
}

func TestDynWattsMonotonicInFreq(t *testing.T) {
	m := DefaultModel()
	prev := -1.0
	for f := m.FMinGHz; f <= m.FMaxGHz+1e-9; f += 0.1 {
		w := m.DynWatts(f)
		if w <= prev {
			t.Fatalf("DynWatts not strictly increasing at %v GHz: %v <= %v", f, w, prev)
		}
		prev = w
	}
	if !almost(m.DynWatts(m.FMaxGHz), m.DynWattsAtFMax, 1e-9) {
		t.Errorf("DynWatts(fmax) = %v, want %v", m.DynWatts(m.FMaxGHz), m.DynWattsAtFMax)
	}
}

// TestClusterCalibration checks the headline power levels of Figures 6(b),
// 7(b), 8(b): ≈2.3 KW all-busy at fmax, ≈1.8 KW all-busy at fmin, ≈1.6 KW
// with the proposed scheme (fmin, half the cores at T7).
func TestClusterCalibration(t *testing.T) {
	m := DefaultModel()
	nodes, cpn := 8, 8
	cluster := func(f float64, tA, tB TState, busy bool) float64 {
		w := float64(nodes) * m.NodeBaseWatts
		for n := 0; n < nodes; n++ {
			for c := 0; c < cpn; c++ {
				ts := tA
				if c >= cpn/2 {
					ts = tB
				}
				w += m.CoreWatts(f, ts, busy)
			}
		}
		return w
	}
	noPower := cluster(m.FMaxGHz, T0, T0, true)
	dvfs := cluster(m.FMinGHz, T0, T0, true)
	proposed := cluster(m.FMinGHz, T0, T7, true)
	if !almost(noPower, 2300, 120) {
		t.Errorf("no-power cluster draw = %.0f W, want ≈2300", noPower)
	}
	if !almost(dvfs, 1800, 120) {
		t.Errorf("freq-scaling cluster draw = %.0f W, want ≈1800", dvfs)
	}
	if !almost(proposed, 1600, 120) {
		t.Errorf("proposed cluster draw = %.0f W, want ≈1600", proposed)
	}
	if !(noPower > dvfs && dvfs > proposed) {
		t.Errorf("ordering violated: %v, %v, %v", noPower, dvfs, proposed)
	}
}

func TestSpeedFactors(t *testing.T) {
	m := DefaultModel()
	if s := m.Speed(m.FMaxGHz, T0); !almost(s, 1.0, 1e-12) {
		t.Errorf("Speed(fmax,T0) = %v", s)
	}
	if s := m.Speed(m.FMinGHz, T0); !almost(s, m.FMinGHz/m.FMaxGHz, 1e-12) {
		t.Errorf("Speed(fmin,T0) = %v", s)
	}
	sT7 := m.Speed(m.FMinGHz, T7)
	if !almost(sT7, (m.FMinGHz/m.FMaxGHz)*0.12, 1e-9) {
		t.Errorf("Speed(fmin,T7) = %v", sT7)
	}
}

// Property: power is non-increasing in throttle level and non-decreasing
// in frequency, busy >= idle.
func TestCoreWattsMonotonicityProperty(t *testing.T) {
	m := DefaultModel()
	f := func(fSel uint8, tSel uint8) bool {
		fGHz := m.FMinGHz + (m.FMaxGHz-m.FMinGHz)*float64(fSel)/255
		ts := TState(int(tSel) % NumTStates)
		w := m.CoreWatts(fGHz, ts, true)
		if ts < T7 && m.CoreWatts(fGHz, ts+1, true) > w+1e-12 {
			return false
		}
		if m.CoreWatts(fGHz, ts, false) > w+1e-12 {
			return false
		}
		if fGHz < m.FMaxGHz && m.CoreWatts(m.FMaxGHz, ts, true) < w-1e-12 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCoreEnergyIntegration(t *testing.T) {
	eng := simtime.NewEngine()
	m := DefaultModel()
	c := NewCore(eng, m, 0)
	eng.Spawn("driver", func(p *simtime.Proc) {
		c.SetBusy(true)
		p.Sleep(simtime.Second) // 1 s busy at fmax T0
		c.SetFreq(m.FMinGHz)
		p.Sleep(simtime.Second) // 1 s busy at fmin T0
		c.SetThrottle(T7)
		p.Sleep(simtime.Second) // 1 s busy at fmin T7
		c.SetBusy(false)
		p.Sleep(simtime.Second) // 1 s idle at fmin T7
	})
	if _, err := eng.Run(simtime.Infinity); err != nil {
		t.Fatal(err)
	}
	want := m.CoreWatts(m.FMaxGHz, T0, true) +
		m.CoreWatts(m.FMinGHz, T0, true) +
		m.CoreWatts(m.FMinGHz, T7, true) +
		m.CoreWatts(m.FMinGHz, T7, false)
	if got := c.EnergyJoules(); !almost(got, want, 1e-6) {
		t.Fatalf("energy = %v J, want %v J", got, want)
	}
}

func TestCoreNoopTransitionsDoNotAccrueTwice(t *testing.T) {
	eng := simtime.NewEngine()
	c := NewCore(eng, DefaultModel(), 0)
	eng.Spawn("d", func(p *simtime.Proc) {
		c.SetBusy(true)
		p.Sleep(100 * simtime.Millisecond)
		c.SetBusy(true)        // no-op
		c.SetFreq(c.FreqGHz()) // no-op
		c.SetThrottle(T0)      // no-op
		p.Sleep(100 * simtime.Millisecond)
	})
	if _, err := eng.Run(simtime.Infinity); err != nil {
		t.Fatal(err)
	}
	want := c.Model().CoreWatts(c.Model().FMaxGHz, T0, true) * 0.2
	if got := c.EnergyJoules(); !almost(got, want, 1e-9) {
		t.Fatalf("energy = %v, want %v", got, want)
	}
}

func TestInvalidThrottlePanics(t *testing.T) {
	eng := simtime.NewEngine()
	c := NewCore(eng, DefaultModel(), 0)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for invalid T-state")
		}
	}()
	c.SetThrottle(TState(9))
}

func TestCoreSpeedFloor(t *testing.T) {
	m := DefaultModel()
	m.Duty[7] = 0 // hypothetical fully-stopped throttle
	eng := simtime.NewEngine()
	c := NewCore(eng, m, 0)
	c.SetThrottle(T7)
	if s := c.Speed(); s <= 0 {
		t.Fatalf("speed must stay positive, got %v", s)
	}
}

func TestStationAggregation(t *testing.T) {
	eng := simtime.NewEngine()
	m := DefaultModel()
	st := NewStation(eng, m, 2, 4)
	if len(st.Cores()) != 8 {
		t.Fatalf("cores = %d, want 8", len(st.Cores()))
	}
	idle := st.Watts()
	wantIdle := 2*m.NodeBaseWatts + 8*m.CoreWatts(m.FMaxGHz, T0, false)
	if !almost(idle, wantIdle, 1e-9) {
		t.Fatalf("idle watts = %v, want %v", idle, wantIdle)
	}
	for _, c := range st.Cores() {
		c.SetBusy(true)
	}
	busy := st.Watts()
	if busy <= idle {
		t.Fatalf("busy (%v) should exceed idle (%v)", busy, idle)
	}
}

func TestStationEnergyIncludesNodeBase(t *testing.T) {
	eng := simtime.NewEngine()
	m := DefaultModel()
	st := NewStation(eng, m, 1, 1)
	eng.Spawn("d", func(p *simtime.Proc) { p.Sleep(2 * simtime.Second) })
	if _, err := eng.Run(simtime.Infinity); err != nil {
		t.Fatal(err)
	}
	want := 2*m.NodeBaseWatts + 2*m.CoreWatts(m.FMaxGHz, T0, false)
	if got := st.EnergyJoules(); !almost(got, want, 1e-6) {
		t.Fatalf("station energy = %v, want %v", got, want)
	}
}

func TestMeterSampling(t *testing.T) {
	eng := simtime.NewEngine()
	st := NewStation(eng, DefaultModel(), 1, 2)
	meter := NewMeter(st, 500*simtime.Millisecond)
	meter.Start()
	eng.Spawn("load", func(p *simtime.Proc) {
		p.Sleep(simtime.Second)
		st.Core(0).SetBusy(true)
		st.Core(1).SetBusy(true)
		p.Sleep(simtime.Second)
		meter.Stop()
	})
	if _, err := eng.Run(simtime.Infinity); err != nil {
		t.Fatal(err)
	}
	samples := meter.Samples()
	if len(samples) < 4 {
		t.Fatalf("got %d samples, want >= 4", len(samples))
	}
	if samples[0].At != 0 {
		t.Errorf("first sample at %v, want 0", samples[0].At)
	}
	if samples[1].At != simtime.Time(500*simtime.Millisecond) {
		t.Errorf("second sample at %v, want 0.5 s", samples[1].At)
	}
	// Later samples (busy) must exceed earlier (idle) ones.
	if !(samples[len(samples)-1].Watts > samples[0].Watts) {
		t.Errorf("busy sample %v not above idle %v", samples[len(samples)-1].Watts, samples[0].Watts)
	}
	if meter.MeanWatts() <= 0 {
		t.Error("mean watts should be positive")
	}
}

func TestMeterDefaultInterval(t *testing.T) {
	eng := simtime.NewEngine()
	st := NewStation(eng, DefaultModel(), 1, 1)
	m := NewMeter(st, 0)
	if m.interval != 500*simtime.Millisecond {
		t.Fatalf("default interval = %v", m.interval)
	}
}

func TestLedgerAttribution(t *testing.T) {
	eng := simtime.NewEngine()
	m := DefaultModel()
	c := NewCore(eng, m, 0)
	led := NewLedger()
	c.AttachLedger(led)
	eng.Spawn("d", func(p *simtime.Proc) {
		led.SetPhase("compute")
		c.SetBusy(true)
		p.Sleep(simtime.Second)
		c.SetBusy(false) // closes the compute interval
		led.SetPhase("comm")
		c.SetBusy(true)
		p.Sleep(2 * simtime.Second)
		c.SetBusy(false)
	})
	if _, err := eng.Run(simtime.Infinity); err != nil {
		t.Fatal(err)
	}
	busyW := m.CoreWatts(m.FMaxGHz, T0, true)
	if got := led.Joules("compute"); !almost(got, busyW, 1e-6) {
		t.Errorf("compute joules = %v, want %v", got, busyW)
	}
	if got := led.Joules("comm"); !almost(got, 2*busyW, 1e-6) {
		t.Errorf("comm joules = %v, want %v", got, 2*busyW)
	}
	if got := led.Joules("idle"); got != 0 {
		t.Errorf("unseen phase joules = %v, want 0", got)
	}
}

// Property: energy integration is additive — splitting an interval with
// redundant state rewrites never changes the total.
func TestEnergyAdditivityProperty(t *testing.T) {
	m := DefaultModel()
	f := func(splits uint8) bool {
		total := simtime.Duration(1) * simtime.Second
		// One go: single interval.
		e1 := simtime.NewEngine()
		c1 := NewCore(e1, m, 0)
		e1.Spawn("d", func(p *simtime.Proc) {
			c1.SetBusy(true)
			p.Sleep(total)
		})
		if _, err := e1.Run(simtime.Infinity); err != nil {
			return false
		}
		// Split into k pieces with forced accruals between.
		k := int(splits%7) + 2
		e2 := simtime.NewEngine()
		c2 := NewCore(e2, m, 0)
		e2.Spawn("d", func(p *simtime.Proc) {
			c2.SetBusy(true)
			for i := 0; i < k; i++ {
				p.Sleep(total / simtime.Duration(k))
				c2.EnergyJoules() // forces accrue
			}
			// Make up rounding remainder.
			rem := total - (total/simtime.Duration(k))*simtime.Duration(k)
			p.Sleep(rem)
		})
		if _, err := e2.Run(simtime.Infinity); err != nil {
			return false
		}
		return almost(c1.EnergyJoules(), c2.EnergyJoules(), 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
