package obs

import (
	"fmt"
	"strings"

	"pacc/internal/power"
	"pacc/internal/simtime"
)

// powerTimeline is the per-core power-state timeline of one station: for
// every core, the closed intervals of constant (P-state, T-state, busy)
// state in time order, plus the interval still open. It is the single
// record of the paper's per-core power schedule; the exported core-track
// spans and the power.residency durations are both derived from it.
type powerTimeline struct {
	station      *power.Station
	coresPerNode int
	// open holds each core's current state; its At starts the open
	// interval.
	open  []power.StateChange
	spans [][]coreSpan
	// spansEmitted / residencyAdded make each fold into the bus happen
	// once, at the first export that needs it.
	spansEmitted   bool
	residencyAdded bool
}

// coreSpan is one closed interval of constant core state: [state.At, end).
type coreSpan struct {
	state power.StateChange
	end   simtime.Time
}

// RecordPower hooks every core of the station so the bus records its
// power-state timeline from now on. coresPerNode groups core rows under
// their node's trace process. The timeline enters the exports lazily:
// as one span per constant-state interval on the first EmitPowerSpans
// (WriteChromeTrace calls it), and as per-core, per-state residency
// durations ("power.residency.core<N>.<state>") on the first
// WriteMetricsJSON. Call once, before the simulation runs.
func (b *Bus) RecordPower(st *power.Station, coresPerNode int) {
	if b == nil {
		return
	}
	if coresPerNode <= 0 {
		coresPerNode = 1
	}
	cores := st.Cores()
	p := &powerTimeline{
		station:      st,
		coresPerNode: coresPerNode,
		open:         make([]power.StateChange, len(cores)),
		spans:        make([][]coreSpan, len(cores)),
	}
	for i := range p.open {
		// SetRecorder reports the current state immediately; starting
		// the placeholder at now keeps that first report from closing
		// an interval.
		p.open[i].At = st.Now()
	}
	b.mu.Lock()
	b.power = p
	b.mu.Unlock()
	for i, c := range cores {
		c.SetRecorder(func(sc power.StateChange) { b.powerChange(i, sc) })
	}
}

// powerChange closes the core's open interval at sc.At (several changes
// at one instant leave only the last state) and opens the next.
func (b *Bus) powerChange(core int, sc power.StateChange) {
	b.mu.Lock()
	p := b.power
	if prev := p.open[core]; sc.At > prev.At {
		p.spans[core] = append(p.spans[core], coreSpan{state: prev, end: sc.At})
	}
	p.open[core] = sc
	b.mu.Unlock()
}

// each walks every interval up to now in (core, start) order, closing
// the open ones at now. The caller holds b.mu.
func (p *powerTimeline) each(now simtime.Time, fn func(core int, sp coreSpan)) {
	for i, spans := range p.spans {
		for _, sp := range spans {
			fn(i, sp)
		}
		if open := p.open[i]; now > open.At {
			fn(i, coreSpan{state: open, end: now})
		}
	}
}

// powerStateName labels a core state the way trace spans and residency
// metrics name it, e.g. "busy 2.4GHz T0".
func powerStateName(sc power.StateChange) string {
	act := "idle"
	if sc.Busy {
		act = "busy"
	}
	return fmt.Sprintf("%s %.1fGHz %v", act, sc.FreqGHz, sc.Throttle)
}

// EmitPowerSpans folds the recorded power timeline into the event stream
// once: one span per constant-state interval up to now, in (core, start)
// order, on the core's track with watts, frequency, T-state and busy
// flag as args. Spans therefore follow every event already emitted, and
// streaming subscribers see them too. Later calls, metrics-only buses
// and buses without RecordPower are no-ops.
func (b *Bus) EmitPowerSpans() {
	if !b.Tracing() {
		return
	}
	type coreInterval struct {
		core int
		sp   coreSpan
	}
	b.mu.Lock()
	p := b.power
	if p == nil || p.spansEmitted {
		b.mu.Unlock()
		return
	}
	p.spansEmitted = true
	var all []coreInterval
	p.each(p.station.Now(), func(core int, sp coreSpan) {
		all = append(all, coreInterval{core, sp})
	})
	b.mu.Unlock()

	cores := p.station.Cores()
	if len(cores) == 0 {
		return
	}
	model := cores[0].Model()
	named := -1
	for _, ci := range all {
		id, sc := cores[ci.core].ID(), ci.sp.state
		t := CoreTrack(id/p.coresPerNode, id)
		if ci.core != named {
			named = ci.core
			b.SetThreadName(t, fmt.Sprintf("core %d", id))
		}
		b.Span(t, powerStateName(sc), sc.At, ci.sp.end, map[string]any{
			"watts":  model.CoreWatts(sc.FreqGHz, sc.Throttle, sc.Busy),
			"ghz":    sc.FreqGHz,
			"tstate": int(sc.Throttle),
			"busy":   sc.Busy,
		})
	}
}

// addPowerResidency folds the timeline into the duration metrics once:
// the time each core spent in each distinct state up to now, as
// power.residency.core<N>.<state> (spaces in the state name become
// underscores). A core's residencies sum to the time recorded.
func (b *Bus) addPowerResidency() {
	b.mu.Lock()
	defer b.mu.Unlock()
	p := b.power
	if p == nil || p.residencyAdded {
		return
	}
	p.residencyAdded = true
	type key struct {
		core int
		sc   power.StateChange // At zeroed: the state alone
	}
	sums := map[key]simtime.Duration{}
	p.each(p.station.Now(), func(core int, sp coreSpan) {
		k := key{core: core, sc: sp.state}
		k.sc.At = 0
		sums[k] += sp.end.Sub(sp.state.At)
	})
	cores := p.station.Cores()
	for k, d := range sums {
		label := strings.ReplaceAll(powerStateName(k.sc), " ", "_")
		b.durations[fmt.Sprintf("power.residency.core%d.%s", cores[k.core].ID(), label)] += d
	}
}
