package network

import (
	"fmt"

	"pacc/internal/simtime"
)

// Link power management implements the direction the paper's conclusion
// lists alongside the CPU work ("explore various design challenges
// involved with conserving InfiniBand network power dynamically", after
// refs [16]-[19]): physical links draw different power when carrying
// traffic, sitting idle, or put into a low-power sleep state after an
// idle timeout, and waking a sleeping link costs latency.
//
// The model covers the physical ports: node up/down links and rack
// uplinks. The loopback path is memory traffic, not a port, and draws
// nothing here.

// LinkPowerConfig calibrates per-port power. The zero value disables
// network power accounting entirely.
type LinkPowerConfig struct {
	// ActiveWatts is one port's draw while at least one flow crosses it.
	ActiveWatts float64
	// IdleWatts is the draw of a powered port with no traffic
	// (InfiniBand SerDes stay lit; idle draw is close to active).
	IdleWatts float64
	// SleepWatts is the draw in the low-power state.
	SleepWatts float64
	// SleepAfter is the idle time after which a port drops into the
	// low-power state. Zero keeps ports at idle power forever (no
	// dynamic management).
	SleepAfter simtime.Duration
	// WakeLatency is added to a transfer that finds any of its ports
	// asleep.
	WakeLatency simtime.Duration
}

// Enabled reports whether any accounting is configured.
func (c LinkPowerConfig) Enabled() bool {
	return c.ActiveWatts > 0 || c.IdleWatts > 0 || c.SleepWatts > 0
}

// Validate rejects inconsistent configurations.
func (c LinkPowerConfig) Validate() error {
	if !c.Enabled() {
		return nil
	}
	if c.ActiveWatts < c.IdleWatts {
		return fmt.Errorf("network: ActiveWatts %g below IdleWatts %g", c.ActiveWatts, c.IdleWatts)
	}
	if c.SleepWatts > c.IdleWatts {
		return fmt.Errorf("network: SleepWatts %g above IdleWatts %g", c.SleepWatts, c.IdleWatts)
	}
	if c.SleepWatts < 0 || c.SleepAfter < 0 || c.WakeLatency < 0 {
		return fmt.Errorf("network: negative link power constant")
	}
	return nil
}

// DefaultLinkPower returns a QDR-era calibration: ~5 W per active port,
// nearly as much idle, one tenth asleep.
func DefaultLinkPower() LinkPowerConfig {
	return LinkPowerConfig{
		ActiveWatts: 5.0,
		IdleWatts:   4.5,
		SleepWatts:  0.5,
		SleepAfter:  100 * simtime.Microsecond,
		WakeLatency: simtime.Micros(10),
	}
}

// linkPowerState tracks one port's power timeline.
type linkPowerState struct {
	flows      int
	asleep     bool
	energyJ    float64
	lastChange simtime.Time
	// sleepGen invalidates stale sleep timers when the port reactivates.
	sleepGen uint64
}

// netPower is the fabric-wide link power tracker.
type netPower struct {
	eng   *simtime.Engine
	cfg   LinkPowerConfig
	state map[*link]*linkPowerState
	ports []*link
	// freeTimers recycles sleep timers once they fire.
	freeTimers []*sleepTimer
}

func newNetPower(eng *simtime.Engine, cfg LinkPowerConfig, ports []*link) *netPower {
	np := &netPower{eng: eng, cfg: cfg, state: map[*link]*linkPowerState{}, ports: ports}
	for _, l := range ports {
		st := &linkPowerState{lastChange: eng.Now()}
		np.state[l] = st
		// Idle ports sleep after the timeout even if they never carry
		// traffic.
		np.armSleep(st)
	}
	return np
}

// armSleep schedules the transition to the low-power state after the idle
// timeout, unless the port reactivates first.
func (np *netPower) armSleep(st *linkPowerState) {
	if np.cfg.SleepAfter <= 0 {
		return
	}
	var t *sleepTimer
	if n := len(np.freeTimers); n > 0 {
		t = np.freeTimers[n-1]
		np.freeTimers = np.freeTimers[:n-1]
	} else {
		t = &sleepTimer{np: np}
	}
	t.st, t.gen = st, st.sleepGen
	np.eng.FireAfter(np.cfg.SleepAfter, t)
}

// sleepTimer is one armed idle timeout, stamped with the port's sleepGen
// when it was armed. It returns to its tracker's free list when it fires,
// so a port going idle allocates nothing in steady state.
type sleepTimer struct {
	np  *netPower
	st  *linkPowerState
	gen uint64
}

func (t *sleepTimer) Fire() {
	np, st, gen := t.np, t.st, t.gen
	t.st = nil
	np.freeTimers = append(np.freeTimers, t)
	if st.sleepGen != gen || st.flows > 0 || st.asleep {
		return
	}
	np.accrue(st)
	st.asleep = true
}

func (np *netPower) wattsOf(st *linkPowerState) float64 {
	switch {
	case st.flows > 0:
		return np.cfg.ActiveWatts
	case st.asleep:
		return np.cfg.SleepWatts
	default:
		return np.cfg.IdleWatts
	}
}

func (np *netPower) accrue(st *linkPowerState) {
	now := np.eng.Now()
	dt := now.Sub(st.lastChange).Seconds()
	if dt > 0 {
		st.energyJ += np.wattsOf(st) * dt
	}
	st.lastChange = now
}

// wakeDelay prepares the ports of a flow: ports asleep start waking now
// and the returned delay is the worst wake latency (0 if all lit).
func (np *netPower) wakeDelay(links []*link) simtime.Duration {
	var delay simtime.Duration
	for _, l := range links {
		st, ok := np.state[l]
		if !ok {
			continue
		}
		if st.asleep {
			np.accrue(st)
			st.asleep = false
			// Invalidate any armed sleep timer so it cannot re-fire
			// during the wake window.
			st.sleepGen++
			if np.cfg.WakeLatency > delay {
				delay = np.cfg.WakeLatency
			}
		}
	}
	return delay
}

// flowAdded marks ports active.
func (np *netPower) flowAdded(links []*link) {
	for _, l := range links {
		st, ok := np.state[l]
		if !ok {
			continue
		}
		np.accrue(st)
		st.flows++
		st.sleepGen++
	}
}

// flowRemoved marks ports idle and arms their sleep timers.
func (np *netPower) flowRemoved(links []*link) {
	for _, l := range links {
		st, ok := np.state[l]
		if !ok {
			continue
		}
		np.accrue(st)
		st.flows--
		if st.flows > 0 {
			continue
		}
		st.sleepGen++
		np.armSleep(st)
	}
}

// watts sums the instantaneous draw of all ports.
func (np *netPower) watts() float64 {
	w := 0.0
	for _, l := range np.ports {
		w += np.wattsOf(np.state[l])
	}
	return w
}

// energy sums port energy up to now.
func (np *netPower) energy() float64 {
	j := 0.0
	for _, l := range np.ports {
		st := np.state[l]
		np.accrue(st)
		j += st.energyJ
	}
	return j
}

// sleeping counts ports currently in the low-power state.
func (np *netPower) sleeping() int {
	n := 0
	for _, l := range np.ports {
		if np.state[l].asleep {
			n++
		}
	}
	return n
}
