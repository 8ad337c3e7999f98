package power

import "pacc/internal/simtime"

// Station aggregates the cores of a cluster into one measurable power
// domain, the way the paper's clamp meter saw the whole testbed.
type Station struct {
	eng   *simtime.Engine
	model *Model
	cores []*Core
	nodes int
}

// NewStation creates per-core trackers for a cluster of nodes×coresPerNode
// cores.
func NewStation(eng *simtime.Engine, m *Model, nodes, coresPerNode int) *Station {
	s := &Station{eng: eng, model: m, nodes: nodes}
	total := nodes * coresPerNode
	s.cores = make([]*Core, total)
	for i := range s.cores {
		s.cores[i] = NewCore(eng, m, i)
	}
	return s
}

// Core returns the tracker for the given global core index.
func (s *Station) Core(global int) *Core { return s.cores[global] }

// Cores returns all core trackers in global order.
func (s *Station) Cores() []*Core { return s.cores }

// NumNodes returns the node count of the domain.
func (s *Station) NumNodes() int { return s.nodes }

// Now returns the current virtual time of the station's engine.
func (s *Station) Now() simtime.Time { return s.eng.Now() }

// Watts returns the instantaneous draw of the whole cluster: all cores
// plus the per-node base power.
func (s *Station) Watts() float64 {
	w := float64(s.nodes) * s.model.NodeBaseWatts
	for _, c := range s.cores {
		w += c.Watts()
	}
	return w
}

// EnergyJoules returns cluster energy consumed up to now: the integral of
// core power plus node base power over elapsed time.
func (s *Station) EnergyJoules() float64 {
	j := float64(s.nodes) * s.model.NodeBaseWatts * s.eng.Now().Seconds()
	for _, c := range s.cores {
		j += c.EnergyJoules()
	}
	return j
}

// Sample is one power-meter reading.
type Sample struct {
	At    simtime.Time
	Watts float64
}

// Meter samples a station's aggregate power on a fixed virtual-time grid,
// standing in for the paper's MASTECH MS2205 clamp meter (0.5 s interval).
type Meter struct {
	station  *Station
	interval simtime.Duration
	samples  []Sample
	running  bool
	sources  []func() float64
}

// AddSource includes an extra instantaneous-watts contribution (e.g. the
// network fabric's port power) in every subsequent sample.
func (m *Meter) AddSource(fn func() float64) {
	m.sources = append(m.sources, fn)
}

// NewMeter creates a meter with the given sampling interval.
func NewMeter(s *Station, interval simtime.Duration) *Meter {
	if interval <= 0 {
		interval = 500 * simtime.Millisecond
	}
	return &Meter{station: s, interval: interval}
}

// Start begins sampling at the current time. Each tick reads the station
// and schedules the next tick, so sampling continues as long as the
// simulation generates events; Stop ends it.
func (m *Meter) Start() {
	if m.running {
		return
	}
	m.running = true
	var tick func()
	tick = func() {
		if !m.running {
			return
		}
		w := m.station.Watts()
		for _, src := range m.sources {
			w += src()
		}
		m.samples = append(m.samples, Sample{At: m.station.eng.Now(), Watts: w})
		m.station.eng.After(m.interval, tick)
	}
	m.station.eng.At(m.station.eng.Now(), tick)
}

// Stop ends sampling after the current tick.
func (m *Meter) Stop() { m.running = false }

// Samples returns the collected readings in time order.
func (m *Meter) Samples() []Sample { return m.samples }

// MeanWatts returns the average of all samples (0 if none).
func (m *Meter) MeanWatts() float64 {
	if len(m.samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, s := range m.samples {
		sum += s.Watts
	}
	return sum / float64(len(m.samples))
}

// Ledger attributes energy to named phases, so workloads can report how
// much of their energy went to, say, MPI_Alltoall.
type Ledger struct {
	current string
	joules  map[string]float64
}

// NewLedger returns a ledger with the phase label set to "init".
func NewLedger() *Ledger {
	return &Ledger{current: "init", joules: make(map[string]float64)}
}

// SetPhase labels all subsequent accruals. Cores flush their pending
// interval on their next state change, so call SetPhase only at points
// where the cores' states are also changing (phase boundaries), or accept
// attribution at state-change granularity.
func (l *Ledger) SetPhase(name string) { l.current = name }

func (l *Ledger) add(j float64) { l.joules[l.current] += j }

// Joules returns the energy attributed to a phase.
func (l *Ledger) Joules(phase string) float64 { return l.joules[phase] }
