package power

import (
	"fmt"

	"pacc/internal/simtime"
)

// Core tracks the power state and accumulated energy of one physical core.
// State changes accrue the energy of the closed interval at the old state,
// so EnergyJoules is exact for piecewise-constant power.
type Core struct {
	model   *Model
	eng     *simtime.Engine
	id      int
	freqGHz float64
	tstate  TState
	busy    bool

	lastUpdate simtime.Time
	energyJ    float64
	// ledger, when attached, splits the energy by workload phase.
	ledger *Ledger
	// recorder receives every state change; the obs bus hangs the
	// per-core power timeline on it.
	recorder func(StateChange)
	// transitionDelay, when installed, returns extra settle time for the
	// next P-state (dvfs=true) or T-state transition on this core. Fault
	// injection uses it to model slow or stuck transitions; the MPI layer
	// pays the returned duration in the transitioning rank's timeline.
	transitionDelay func(dvfs bool) simtime.Duration
}

// StateChange describes one power-state transition of a core, delivered
// to an attached recorder (see SetRecorder).
type StateChange struct {
	At       simtime.Time
	FreqGHz  float64
	Throttle TState
	Busy     bool
}

// NewCore returns a core at fmax, T0, idle, with zero accumulated energy.
func NewCore(eng *simtime.Engine, m *Model, id int) *Core {
	return &Core{
		model:      m,
		eng:        eng,
		id:         id,
		freqGHz:    m.FMaxGHz,
		tstate:     T0,
		busy:       false,
		lastUpdate: eng.Now(),
	}
}

// ID returns the core's identifier (the global core index).
func (c *Core) ID() int { return c.id }

// Model returns the shared power model.
func (c *Core) Model() *Model { return c.model }

// FreqGHz returns the current P-state frequency.
func (c *Core) FreqGHz() float64 { return c.freqGHz }

// Throttle returns the current T-state.
func (c *Core) Throttle() TState { return c.tstate }

// Busy reports whether the core is executing (or spinning).
func (c *Core) Busy() bool { return c.busy }

// Watts returns the core's instantaneous power draw.
func (c *Core) Watts() float64 {
	return c.model.CoreWatts(c.freqGHz, c.tstate, c.busy)
}

// Speed returns the core's effective relative execution speed in (0, 1].
func (c *Core) Speed() float64 {
	s := c.model.Speed(c.freqGHz, c.tstate)
	if s <= 0 {
		// A fully-stopped core would deadlock the simulation; floor at
		// the T7 duty of the minimum frequency.
		return 1e-3
	}
	return s
}

// CopySpeed returns the core's effective speed for streaming memory work.
func (c *Core) CopySpeed() float64 {
	s := c.model.CopySpeed(c.freqGHz, c.tstate)
	if s <= 0 {
		return 1e-3
	}
	return s
}

// accrue integrates power since the last state change into the energy
// counter and the ledger (if attached).
func (c *Core) accrue() {
	now := c.eng.Now()
	if d := now.Sub(c.lastUpdate); d > 0 {
		j := c.Watts() * d.Seconds()
		c.energyJ += j
		if c.ledger != nil {
			c.ledger.add(j)
		}
	}
	c.lastUpdate = now
}

// SetFreq changes the P-state. The transition itself is instantaneous in
// the power timeline; callers model the Odvfs latency by sleeping.
func (c *Core) SetFreq(fGHz float64) {
	f := c.model.ClampFreq(fGHz)
	if f == c.freqGHz {
		return
	}
	c.accrue()
	c.freqGHz = f
	c.record()
}

// SetThrottle changes the T-state. Invalid states panic: the simulated
// algorithms must only use defined levels.
func (c *Core) SetThrottle(t TState) {
	if !t.Valid() {
		panic(fmt.Sprintf("power: invalid throttle state %d", int(t)))
	}
	if t == c.tstate {
		return
	}
	c.accrue()
	c.tstate = t
	c.record()
}

// SetBusy marks the core executing (true) or yielded/idle (false).
func (c *Core) SetBusy(b bool) {
	if b == c.busy {
		return
	}
	c.accrue()
	c.busy = b
	c.record()
}

// EnergyJoules returns the energy consumed up to the current virtual time.
func (c *Core) EnergyJoules() float64 {
	c.accrue()
	return c.energyJ
}

// AttachLedger directs subsequent accruals to the given ledger (in
// addition to the core's own counter). Pass nil to detach.
func (c *Core) AttachLedger(l *Ledger) {
	c.accrue()
	c.ledger = l
}

// SetRecorder registers a callback invoked after every state change (and
// immediately with the current state). Pass nil to detach. The obs bus
// uses it to record the per-core power timeline.
func (c *Core) SetRecorder(fn func(StateChange)) {
	c.recorder = fn
	if fn != nil {
		fn(c.stateChange())
	}
}

// SetTransitionDelay installs a hook consulted before every P/T-state
// transition; it returns extra hardware settle time beyond the model's
// ODVFS/OThrottle constants. Pass nil to detach.
func (c *Core) SetTransitionDelay(fn func(dvfs bool) simtime.Duration) {
	c.transitionDelay = fn
}

// TransitionDelay returns the extra settle time of the next transition of
// the given kind (0 without a hook).
func (c *Core) TransitionDelay(dvfs bool) simtime.Duration {
	if c.transitionDelay == nil {
		return 0
	}
	return c.transitionDelay(dvfs)
}

func (c *Core) stateChange() StateChange {
	return StateChange{At: c.eng.Now(), FreqGHz: c.freqGHz, Throttle: c.tstate, Busy: c.busy}
}

func (c *Core) record() {
	if c.recorder != nil {
		c.recorder(c.stateChange())
	}
}
