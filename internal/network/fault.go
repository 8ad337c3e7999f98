package network

import (
	"fmt"
	"sort"

	"pacc/internal/obs"
	"pacc/internal/simtime"
)

// StarvedFlowError reports a flow that computed a zero rate while every
// link on its path was administratively up — a fabric logic error. It is
// surfaced through Engine.Fail so Run returns it like a deadlock report
// instead of crashing the process.
type StarvedFlowError struct {
	At       simtime.Time
	Src, Dst int
	Bytes    int64
	Links    []string
}

func (e *StarvedFlowError) Error() string {
	return fmt.Sprintf("network: flow %d->%d (%d bytes) starved at %v on healthy path %v",
		e.Src, e.Dst, e.Bytes, e.At, e.Links)
}

// pathAdminDown reports whether any link on the path is administratively
// down (capacity forced to zero by a fault window).
func pathAdminDown(links []*link) bool {
	for _, l := range links {
		if l.adminFactor == 0 {
			return true
		}
	}
	return false
}

// linkNames returns the names of the given links, in path order.
func linkNames(links []*link) []string {
	names := make([]string, len(links))
	for i, l := range links {
		names[i] = l.name
	}
	return names
}

// allLinks iterates every link in the fabric in a stable order.
func (f *Fabric) allLinks() []*link {
	var all []*link
	all = append(all, f.up...)
	all = append(all, f.down...)
	all = append(all, f.loop...)
	all = append(all, f.rackUp...)
	all = append(all, f.rackDown...)
	return all
}

// linkByName resolves a link by its exported name ("node3-up",
// "rack1-down", "node0-loop", ...).
func (f *Fabric) linkByName(name string) *link {
	for _, l := range f.allLinks() {
		if l.name == name {
			return l
		}
	}
	return nil
}

// LinkNames lists every link name in the fabric, for spec validation and
// error messages.
func (f *Fabric) LinkNames() []string {
	return linkNames(f.allLinks())
}

// faultWindow is one open fault window on a link.
type faultWindow struct {
	factor float64
	end    simtime.Time
}

// ScheduleLinkFault arms one fault window on the named link: from start
// for dur the link runs at factor times its healthy capacity (factor 0
// takes the link down entirely; senders routed over it requeue until the
// window closes). Windows are scheduled before the simulation runs and
// fire as ordinary engine events, so faulted runs stay deterministic.
// Windows on the same link may overlap: while several are open the link
// runs at the minimum of their factors, and one window closing restores
// the minimum of the remainder, not blindly full capacity.
func (f *Fabric) ScheduleLinkFault(name string, factor float64, start, dur simtime.Duration) error {
	l := f.linkByName(name)
	if l == nil {
		return fmt.Errorf("network: unknown link %q (have %v)", name, f.LinkNames())
	}
	if factor < 0 || factor >= 1 {
		return fmt.Errorf("network: link fault factor %g outside [0,1)", factor)
	}
	if start < 0 || dur <= 0 {
		return fmt.Errorf("network: link fault window start=%v dur=%v invalid", start, dur)
	}
	end := simtime.Time(0).Add(start).Add(dur)
	f.eng.At(simtime.Time(0).Add(start), func() {
		l.faults = append(l.faults, faultWindow{factor: factor, end: end})
		f.applyLinkWindows(l)
	})
	f.eng.At(end, func() {
		for i, win := range l.faults {
			if win.factor == factor && win.end == end {
				l.faults = append(l.faults[:i], l.faults[i+1:]...)
				break
			}
		}
		f.applyLinkWindows(l)
	})
	return nil
}

// applyLinkWindows applies one edge of a fault window: drains in-flight
// progress at the old rates, rescales the link to the composition of its
// open windows, and recomputes shares.
func (f *Fabric) applyLinkWindows(l *link) {
	f.advance()
	factor := 1.0
	var downUntil simtime.Time
	for _, win := range l.faults {
		if win.factor < factor {
			factor = win.factor
		}
		if win.factor == 0 && win.end > downUntil {
			downUntil = win.end
		}
	}
	l.adminFactor = factor
	l.cap = l.baseCap * factor
	l.downUntil = 0
	if factor == 0 {
		l.downUntil = downUntil
	}
	if b := f.obs; b != nil {
		b.Add(obs.CtrFaultLinkEvents, 1)
		if b.Tracing() {
			name := "link restore " + l.name
			if factor < 1 {
				name = fmt.Sprintf("link fault %s ×%g", l.name, factor)
			}
			b.Instant(obs.FaultTrack(), name, map[string]any{"link": l.name, "factor": factor})
		}
	}
	f.reschedule()
}

// DegradedLinks returns the names of links currently inside a fault
// window (degraded or down), sorted.
func (f *Fabric) DegradedLinks() []string {
	var names []string
	for _, l := range f.allLinks() {
		if l.adminFactor < 1 {
			names = append(names, l.name)
		}
	}
	sort.Strings(names)
	return names
}

// Degraded reports whether any link is currently degraded or down. The
// collective layer polls this (through mpi and the facade) to decide
// whether to fall back to contention-minimal schedules.
func (f *Fabric) Degraded() bool {
	for _, l := range f.allLinks() {
		if l.adminFactor < 1 {
			return true
		}
	}
	return false
}

// PathDegraded reports whether the src→dst route crosses a degraded or
// down link right now.
func (f *Fabric) PathDegraded(src, dst int) bool {
	links, n := f.route(src, dst)
	for _, l := range links[:n] {
		if l.adminFactor < 1 {
			return true
		}
	}
	return false
}

// PathDownUntil reports whether the src→dst route crosses a link that is
// administratively down, and when the last such window is scheduled to
// end. The MPI layer uses the deadline to requeue sends instead of
// burning their retry budget against a link that cannot deliver.
func (f *Fabric) PathDownUntil(src, dst int) (simtime.Time, bool) {
	var until simtime.Time
	down := false
	links, n := f.route(src, dst)
	for _, l := range links[:n] {
		if l.adminFactor == 0 {
			down = true
			if l.downUntil > until {
				until = l.downUntil
			}
		}
	}
	return until, down
}
