// Package network simulates an InfiniBand-style fabric at flow level.
//
// Every node owns one full-duplex link (an uplink and a downlink) into a
// non-blocking crossbar switch, the topology of the paper's testbed (eight
// nodes on one Mellanox QDR switch). A message transfer is a fluid flow
// that crosses the sender's uplink and the receiver's downlink; bandwidth
// on each link is divided among concurrent flows by max-min fairness and
// recomputed whenever a flow starts or finishes. Link sharing is what
// produces the paper's network-contention effects (the Cnet term and the
// 4-way vs 8-way gap of Figure 2a) endogenously.
package network

import (
	"fmt"
	"math"

	"pacc/internal/obs"
	"pacc/internal/simtime"
)

// Config holds fabric calibration.
type Config struct {
	// LinkBytesPerSec is the usable bandwidth of one link direction.
	// InfiniBand QDR signals 40 Gbit/s; after 8b/10b coding and
	// protocol overhead ~3.2 GB/s reaches MPI payloads.
	LinkBytesPerSec float64
	// BaseLatency is the end-to-end propagation + switch latency added
	// to every transfer after its last byte is injected.
	BaseLatency simtime.Duration
	// LoopbackBytesPerSec is the bandwidth of the HCA loopback path used
	// for intra-node traffic when shared memory is unavailable
	// (blocking-mode progression falls back to it, §II-B).
	LoopbackBytesPerSec float64
	// NodesPerRack, when positive, groups nodes into racks behind leaf
	// switches: traffic between racks additionally crosses the source
	// rack's uplink and the destination rack's downlink into the spine.
	// Zero models the paper's single-switch testbed.
	NodesPerRack int
	// RackUplinkBytesPerSec is the capacity of each rack's link to the
	// spine (typically oversubscribed relative to node links). Required
	// when NodesPerRack > 0.
	RackUplinkBytesPerSec float64
	// LinkPower enables per-port power accounting and (optionally)
	// dynamic link sleep states. The zero value disables it.
	LinkPower LinkPowerConfig
}

// DefaultConfig returns QDR-calibrated parameters.
func DefaultConfig() Config {
	return Config{
		LinkBytesPerSec:     3.2e9,
		BaseLatency:         simtime.Micros(1.5),
		LoopbackBytesPerSec: 2.0e9,
	}
}

// Validate rejects non-positive bandwidths and negative latency.
func (c Config) Validate() error {
	if c.LinkBytesPerSec <= 0 {
		return fmt.Errorf("network: LinkBytesPerSec must be positive, got %g", c.LinkBytesPerSec)
	}
	if c.LoopbackBytesPerSec <= 0 {
		return fmt.Errorf("network: LoopbackBytesPerSec must be positive, got %g", c.LoopbackBytesPerSec)
	}
	if c.BaseLatency < 0 {
		return fmt.Errorf("network: negative BaseLatency")
	}
	if c.NodesPerRack < 0 {
		return fmt.Errorf("network: negative NodesPerRack")
	}
	if c.NodesPerRack > 0 && c.RackUplinkBytesPerSec <= 0 {
		return fmt.Errorf("network: NodesPerRack set but RackUplinkBytesPerSec is %g",
			c.RackUplinkBytesPerSec)
	}
	return c.LinkPower.Validate()
}

// link is one direction of a node's connection to the switch (or a node's
// loopback path).
type link struct {
	name string
	cap  float64 // current bytes/sec: baseCap * adminFactor
	// baseCap is the healthy capacity; adminFactor in [0,1] scales it
	// while a scheduled fault window is open (0 = link down).
	baseCap     float64
	adminFactor float64
	// downUntil is when the current down window (adminFactor == 0) is
	// scheduled to end; sends routed over a down link requeue until then.
	downUntil simtime.Time
	// faults holds the currently-open fault windows of the link.
	// Overlapping windows compose: the effective adminFactor is the
	// minimum over open windows, and a window closing restores the
	// remaining minimum, not blindly 1.
	faults []faultWindow
	// bytes counts payload delivered over this link (per-link
	// utilization accounting).
	bytes int64
	// flows lists every active flow crossing this link, with each
	// entry recording which hop of the flow's path this link is (so a
	// swap-remove can fix the moved flow's back-pointer in O(1)). This
	// is what makes the fair-share solve incremental: the connected
	// component around a changed flow is discoverable by walking
	// link→flows→links instead of scanning the whole fabric.
	flows []linkFlow
	// scratch used during max-min recomputation
	residual float64
	active   int
	// mark is the visited stamp for component walks (compared against
	// Fabric.markGen, so no per-walk clearing pass is needed).
	mark uint64
	// ord is the link's construction index. Water-filling breaks
	// exact fair-share ties by ord, which makes the solve a pure
	// function of the flow/link set — the incremental (component) and
	// full solves then agree bit for bit even when their link lists
	// are ordered differently.
	ord int32
	// obsActive/obsSince track busy intervals (≥1 flow on the link) for
	// the observability bus; only maintained while a bus is attached.
	obsActive int
	obsSince  simtime.Time
}

// linkFlow is one link's record of a crossing flow: the flow plus the
// index of this link within the flow's path (flow.linkPos[li] is the
// entry's position in link.flows).
type linkFlow struct {
	fl *Flow
	li int32
}

func newLink(name string, cap float64) *link {
	return &link{name: name, cap: cap, baseCap: cap, adminFactor: 1}
}

// maxPathLinks is the longest route in any supported topology: node
// uplink, rack uplink, rack downlink, node downlink. Keeping the path
// inline in Flow (instead of a heap slice) makes flow injection
// allocation-light.
const maxPathLinks = 4

// Flow is one in-flight transfer.
type Flow struct {
	Src, Dst  int // node indices
	Bytes     int64
	id        uint64
	remaining float64
	rate      float64
	// linkv[:nlinks] is the path, inline to avoid a per-flow slice.
	linkv  [maxPathLinks]*link
	nlinks int32
	// idx is this flow's position in Fabric.flows; linkPos[i] is its
	// position in linkv[i].flows. Both enable O(1) swap-removal.
	idx     int32
	linkPos [maxPathLinks]int32
	// mark/frozen are solver scratch: visited stamp for component
	// walks, frozen flag during water-filling.
	mark   uint64
	frozen bool
	// hpos is the flow's slot in Fabric.heap, -1 while it has none
	// (zero rate, or the heap is stale).
	hpos    int32
	done    *simtime.Future
	started simtime.Time
	// obsEnd closes the flow's link-busy intervals and, when the bus
	// records a timeline, its trace span; nil when observability is off.
	obsEnd func()
}

// path returns the links the flow crosses, in route order.
func (fl *Flow) path() []*link { return fl.linkv[:fl.nlinks] }

// Done returns a future completed when the last byte has arrived at the
// destination (including BaseLatency).
func (fl *Flow) Done() *simtime.Future { return fl.done }

// StartedAt reports when the flow was injected.
func (fl *Flow) StartedAt() simtime.Time { return fl.started }

// Fabric is the switch plus all node links.
type Fabric struct {
	eng      *simtime.Engine
	cfg      Config
	nodes    int
	up       []*link
	down     []*link
	loop     []*link
	rackUp   []*link
	rackDown []*link
	// flows holds every active flow; Flow.idx is its position here, so
	// removal is a swap. Iteration order is insertion order perturbed
	// by swap-removes — everything order-sensitive downstream (the
	// completion sweep) re-sorts by flow id.
	flows  []*Flow
	nextID uint64
	// gen invalidates stale completion events after a recompute.
	gen        uint64
	lastUpdate simtime.Time
	// markGen stamps link/flow visited marks for component walks.
	markGen uint64
	// compLinks/compFlows are the reusable work lists of the current
	// component walk; finished is the completion-sweep scratch.
	compLinks []*link
	compFlows []*Flow
	finished  []*Flow
	// checkIncremental, when set, re-solves the whole fabric after
	// every incremental solve and fails the run on any rate mismatch —
	// the proof harness that component-scoped water-filling equals the
	// full solve bit for bit. checkRates is its scratch.
	checkIncremental bool
	checkRates       []float64
	// heap is the earliest-completion index: a binary min-heap of the
	// active flows with a positive rate and their cached completion
	// delays. heapStale marks every cached delay invalid; the next
	// armNext rebuilds the heap with a full scan.
	heap      []completion
	heapStale bool
	// BytesMoved counts payload bytes fully delivered, for throughput
	// accounting and tests.
	bytesMoved int64
	// np tracks per-port power when Config.LinkPower is enabled.
	np *netPower
	// obs, when non-nil, receives flow spans and link-utilization
	// metrics.
	obs *obs.Bus
}

// NewFabric builds a fabric for the given node count.
func NewFabric(eng *simtime.Engine, nodes int, cfg Config) (*Fabric, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if nodes <= 0 {
		return nil, fmt.Errorf("network: nodes must be positive, got %d", nodes)
	}
	f := &Fabric{
		eng:   eng,
		cfg:   cfg,
		nodes: nodes,
	}
	for n := 0; n < nodes; n++ {
		f.up = append(f.up, newLink(fmt.Sprintf("node%d-up", n), cfg.LinkBytesPerSec))
		f.down = append(f.down, newLink(fmt.Sprintf("node%d-down", n), cfg.LinkBytesPerSec))
		f.loop = append(f.loop, newLink(fmt.Sprintf("node%d-loop", n), cfg.LoopbackBytesPerSec))
	}
	if cfg.NodesPerRack > 0 {
		racks := (nodes + cfg.NodesPerRack - 1) / cfg.NodesPerRack
		for rk := 0; rk < racks; rk++ {
			f.rackUp = append(f.rackUp,
				newLink(fmt.Sprintf("rack%d-up", rk), cfg.RackUplinkBytesPerSec))
			f.rackDown = append(f.rackDown,
				newLink(fmt.Sprintf("rack%d-down", rk), cfg.RackUplinkBytesPerSec))
		}
	}
	if cfg.LinkPower.Enabled() {
		var ports []*link
		ports = append(ports, f.up...)
		ports = append(ports, f.down...)
		ports = append(ports, f.rackUp...)
		ports = append(ports, f.rackDown...)
		f.np = newNetPower(eng, cfg.LinkPower, ports)
	}
	for i, l := range f.allLinks() {
		l.ord = int32(i)
	}
	return f, nil
}

// SetObs attaches the observability bus (nil detaches). Attach before
// any traffic starts, or link busy-time accounting will miss the open
// intervals of in-flight flows.
func (f *Fabric) SetObs(b *obs.Bus) { f.obs = b }

// obsLinkStart marks one more flow on each link, opening a busy interval
// on links going 0→1. Callers guard on f.obs != nil.
func (f *Fabric) obsLinkStart(links []*link) {
	now := f.eng.Now()
	for _, l := range links {
		if l.obsActive == 0 {
			l.obsSince = now
		}
		l.obsActive++
	}
}

// obsLinkEnd removes one flow from each link, accruing the busy interval
// of links going 1→0 into the per-link metric.
func (f *Fabric) obsLinkEnd(links []*link) {
	now := f.eng.Now()
	for _, l := range links {
		l.obsActive--
		if l.obsActive == 0 {
			f.obs.AddDuration(obs.DurLinkBusyPrefix+l.name, now.Sub(l.obsSince))
		}
	}
}

// NetworkWatts reports the instantaneous draw of all ports (0 when link
// power accounting is disabled).
func (f *Fabric) NetworkWatts() float64 {
	if f.np == nil {
		return 0
	}
	return f.np.watts()
}

// NetworkEnergyJoules reports total port energy consumed so far.
func (f *Fabric) NetworkEnergyJoules() float64 {
	if f.np == nil {
		return 0
	}
	return f.np.energy()
}

// SleepingPorts counts ports currently in the low-power state.
func (f *Fabric) SleepingPorts() int {
	if f.np == nil {
		return 0
	}
	return f.np.sleeping()
}

// RackOf returns the rack index of a node (0 when racks are disabled).
func (f *Fabric) RackOf(node int) int {
	if f.cfg.NodesPerRack <= 0 {
		return 0
	}
	return node / f.cfg.NodesPerRack
}

// NumRacks returns the rack count (1 when racks are disabled).
func (f *Fabric) NumRacks() int {
	if f.cfg.NodesPerRack <= 0 {
		return 1
	}
	return len(f.rackUp)
}

// InterRackBytes reports payload bytes that crossed rack uplinks (0 when
// racks are disabled). A topology-aware collective should minimize this.
func (f *Fabric) InterRackBytes() int64 {
	var total int64
	for _, l := range f.rackUp {
		total += l.bytes
	}
	return total
}

// Config returns the fabric configuration.
func (f *Fabric) Config() Config { return f.cfg }

// SetCheckIncremental toggles the incremental proof harness: when on,
// every component-scoped rate solve is followed by a full-fabric solve
// and any exact-rate mismatch fails the run with an
// IncrementalMismatchError, and every completion read from the
// earliest-completion heap is checked against a full scan, failing the
// run with a CompletionMismatchError on any difference. Expensive; meant
// for tests and debugging.
func (f *Fabric) SetCheckIncremental(on bool) { f.checkIncremental = on }

// NumNodes returns the number of attached nodes.
func (f *Fabric) NumNodes() int { return f.nodes }

// ActiveFlows reports the number of in-flight transfers.
func (f *Fabric) ActiveFlows() int { return len(f.flows) }

// BytesMoved reports total payload bytes delivered so far.
func (f *Fabric) BytesMoved() int64 { return f.bytesMoved }

// StartFlow injects a transfer of the given size from src to dst node.
// src == dst uses the loopback path. A zero-byte flow completes after
// BaseLatency. The returned flow's Done future fires on delivery.
func (f *Fabric) StartFlow(src, dst int, bytes int64) *Flow {
	if src < 0 || src >= f.nodes || dst < 0 || dst >= f.nodes {
		panic(fmt.Sprintf("network: flow endpoints %d->%d outside [0,%d)", src, dst, f.nodes))
	}
	if bytes < 0 {
		panic(fmt.Sprintf("network: negative flow size %d", bytes))
	}
	f.nextID++
	fl := &Flow{
		Src:       src,
		Dst:       dst,
		Bytes:     bytes,
		id:        f.nextID,
		remaining: float64(bytes),
		done:      simtime.NewFuture(f.eng),
		started:   f.eng.Now(),
		hpos:      -1,
	}
	f.routeInto(fl)
	if b := f.obs; b != nil {
		b.Add(obs.CtrNetFlows, 1)
		b.Add(obs.CtrNetFlowBytes, bytes)
		f.obsLinkStart(fl.path())
		if b.Tracing() {
			track := obs.NetTrack(src)
			name := obs.TransferName("flow", bytes, src, dst)
			id := b.AsyncBegin(track, "net", name, nil)
			fl.obsEnd = func() {
				f.obsLinkEnd(fl.path())
				b.AsyncEnd(track, "net", name, id)
			}
		} else {
			fl.obsEnd = func() { f.obsLinkEnd(fl.path()) }
		}
	}
	if bytes == 0 {
		delay := f.cfg.BaseLatency
		if f.np != nil {
			// A control message keeps its ports lit (and wakes
			// sleeping ones).
			delay += f.np.wakeDelay(fl.path())
			f.np.flowAdded(fl.path())
			f.eng.After(delay, func() { f.np.flowRemoved(fl.path()) })
		}
		if fl.obsEnd != nil {
			f.eng.After(delay, fl.obsEnd)
		}
		f.eng.CompleteAfter(delay, fl.done)
		return fl
	}
	if f.np != nil {
		if d := f.np.wakeDelay(fl.path()); d > 0 {
			f.eng.After(d, func() { f.startNow(fl) })
			return fl
		}
	}
	f.startNow(fl)
	return fl
}

// startNow injects a routed flow into the active set and re-solves the
// connected component it touches — only that component's max-min rates
// can change, so the rest of the fabric keeps its rates untouched.
func (f *Fabric) startNow(fl *Flow) {
	f.advance()
	f.addFlow(fl)
	if f.np != nil {
		f.np.flowAdded(fl.path())
	}
	f.beginWalk()
	f.seedLinks(fl.path())
	f.solveComponent()
	f.armNext()
}

// routeInto fills fl's path for its src→dst pair.
func (f *Fabric) routeInto(fl *Flow) {
	src, dst := fl.Src, fl.Dst
	switch {
	case src == dst:
		fl.linkv[0] = f.loop[src]
		fl.nlinks = 1
	case f.cfg.NodesPerRack > 0 && f.RackOf(src) != f.RackOf(dst):
		fl.linkv[0] = f.up[src]
		fl.linkv[1] = f.rackUp[f.RackOf(src)]
		fl.linkv[2] = f.rackDown[f.RackOf(dst)]
		fl.linkv[3] = f.down[dst]
		fl.nlinks = 4
	default:
		fl.linkv[0] = f.up[src]
		fl.linkv[1] = f.down[dst]
		fl.nlinks = 2
	}
}

// route returns the links a src→dst transfer crosses (allocating; used
// by path queries, not the flow hot path).
func (f *Fabric) route(src, dst int) []*link {
	var fl Flow
	fl.Src, fl.Dst = src, dst
	f.routeInto(&fl)
	links := make([]*link, fl.nlinks)
	copy(links, fl.path())
	return links
}

// addFlow registers fl in the fabric-wide and per-link flow lists.
func (f *Fabric) addFlow(fl *Flow) {
	fl.idx = int32(len(f.flows))
	f.flows = append(f.flows, fl)
	for i, l := range fl.path() {
		fl.linkPos[i] = int32(len(l.flows))
		l.flows = append(l.flows, linkFlow{fl: fl, li: int32(i)})
	}
}

// removeFlow unregisters fl with O(1) swap-removes, fixing the moved
// entries' back-pointers, and drops it from the completion heap.
func (f *Fabric) removeFlow(fl *Flow) {
	if !f.heapStale && fl.hpos >= 0 {
		f.heapRemove(fl)
	}
	last := len(f.flows) - 1
	moved := f.flows[last]
	f.flows[fl.idx] = moved
	moved.idx = fl.idx
	f.flows[last] = nil
	f.flows = f.flows[:last]
	for i, l := range fl.path() {
		pos := fl.linkPos[i]
		lend := len(l.flows) - 1
		entry := l.flows[lend]
		l.flows[pos] = entry
		entry.fl.linkPos[entry.li] = pos
		l.flows[lend] = linkFlow{}
		l.flows = l.flows[:lend]
	}
}

// advance drains bytes from all active flows at their current rates for
// the interval since the last update. Moving the clock changes every
// flow's remaining bytes, so it invalidates every cached completion.
func (f *Fabric) advance() {
	now := f.eng.Now()
	dt := now.Sub(f.lastUpdate).Seconds()
	if dt > 0 {
		for _, fl := range f.flows {
			fl.remaining -= fl.rate * dt
			if fl.remaining < 0 {
				fl.remaining = 0
			}
		}
		f.heapStale = true
	}
	f.lastUpdate = now
}

// beginWalk starts a new component walk: bumps the visited stamp and
// resets the reusable work lists.
func (f *Fabric) beginWalk() {
	f.markGen++
	f.compLinks = f.compLinks[:0]
	f.compFlows = f.compFlows[:0]
}

// seedLinks marks the given links as walk roots.
func (f *Fabric) seedLinks(links []*link) {
	g := f.markGen
	for _, l := range links {
		if l.mark != g {
			l.mark = g
			f.compLinks = append(f.compLinks, l)
		}
	}
}

// solveComponent expands the seeded links into their full connected
// component(s) — links joined transitively by shared flows — and
// water-fills just those flows. Flows outside the component cannot have
// their max-min rates change (the solve is separable per component, and
// within a component the freeze rounds subtract identical shares in
// every order), so leaving them untouched is exact, not approximate.
// When checkIncremental is set, a full-fabric solve follows and any
// rate difference fails the run. The component's flows are the only ones
// whose rates moved, so only their cached completions are refreshed.
func (f *Fabric) solveComponent() {
	g := f.markGen
	for i := 0; i < len(f.compLinks); i++ {
		l := f.compLinks[i]
		for _, e := range l.flows {
			fl := e.fl
			if fl.mark == g {
				continue
			}
			fl.mark = g
			f.compFlows = append(f.compFlows, fl)
			for _, l2 := range fl.path() {
				if l2.mark != g {
					l2.mark = g
					f.compLinks = append(f.compLinks, l2)
				}
			}
		}
	}
	waterfill(f.compFlows, f.compLinks)
	f.refreshCompletions()
	if f.checkIncremental {
		f.verifyAgainstFull()
	}
}

// resolveAll water-fills the entire fabric from scratch.
func (f *Fabric) resolveAll() {
	f.beginWalk()
	g := f.markGen
	for _, fl := range f.flows {
		for _, l := range fl.path() {
			if l.mark != g {
				l.mark = g
				f.compLinks = append(f.compLinks, l)
			}
		}
	}
	waterfill(f.flows, f.compLinks)
}

// IncrementalMismatchError reports that the component-scoped rate solve
// diverged from the full-fabric solve — the invariant the incremental
// fairness optimization rests on. Only produced under
// SetCheckIncremental.
type IncrementalMismatchError struct {
	At          simtime.Time
	Src, Dst    int
	Incremental float64
	Full        float64
}

func (e *IncrementalMismatchError) Error() string {
	return fmt.Sprintf(
		"network: incremental max-min rate for flow %d->%d diverged from full solve at %v: %g != %g",
		e.Src, e.Dst, e.At, e.Incremental, e.Full)
}

// verifyAgainstFull re-solves the whole fabric and fails the run if any
// flow's rate differs (exact float comparison: the incremental solve
// must be bit-identical, not merely close). A passing check leaves every
// rate as it was, so the completion cache stays valid.
func (f *Fabric) verifyAgainstFull() {
	f.checkRates = f.checkRates[:0]
	for _, fl := range f.flows {
		f.checkRates = append(f.checkRates, fl.rate)
	}
	f.resolveAll()
	for i, fl := range f.flows {
		if fl.rate != f.checkRates[i] {
			f.heapStale = true
			f.eng.Fail(&IncrementalMismatchError{
				At: f.eng.Now(), Src: fl.Src, Dst: fl.Dst,
				Incremental: f.checkRates[i], Full: fl.rate,
			})
			return
		}
	}
}

// waterfill assigns max-min fair rates to the given flows: repeatedly
// saturate the most-contended link and freeze its flows at that link's
// fair share. links must cover every link the flows cross, and every
// flow crossing those links must be in flows (true both for a connected
// component and for the whole fabric).
func waterfill(flows []*Flow, links []*link) {
	for _, fl := range flows {
		fl.rate = 0
		fl.frozen = false
	}
	for _, l := range links {
		l.residual = l.cap
		l.active = len(l.flows)
	}
	unfrozen := len(flows)
	for unfrozen > 0 {
		// Find the bottleneck link: minimum fair share among links
		// still carrying unfrozen flows. Exact ties break by the
		// link's construction ordinal, NOT list position — tie order
		// can change later rounds' arithmetic in the last ulp, so the
		// choice must not depend on how the link list was discovered.
		var bottleneck *link
		minShare := math.Inf(1)
		for _, l := range links {
			if l.active == 0 {
				continue
			}
			share := l.residual / float64(l.active)
			if share < minShare ||
				(share == minShare && bottleneck != nil && l.ord < bottleneck.ord) {
				minShare = share
				bottleneck = l
			}
		}
		if bottleneck == nil {
			break
		}
		if minShare < 0 {
			minShare = 0
		}
		// Freeze every unfrozen flow crossing the bottleneck.
		for _, e := range bottleneck.flows {
			fl := e.fl
			if fl.frozen {
				continue
			}
			fl.rate = minShare
			fl.frozen = true
			unfrozen--
			for _, l := range fl.path() {
				l.residual -= minShare
				if l.residual < 0 {
					l.residual = 0
				}
				l.active--
			}
		}
	}
}

// reschedule re-solves the whole fabric and arms the next completion.
// It is the non-incremental path, used when link capacities change
// (fault window edges) — those edits can touch every component at once.
// Flow starts and completions go through solveComponent instead.
func (f *Fabric) reschedule() {
	f.resolveAll()
	f.heapStale = true
	f.armNext()
}

// armNext arms one event for the earliest predicted completion among
// active flows. The delay comes from the earliest-completion heap; each
// flow's cached delay is exactly what a scan would compute now, because
// within one instant it depends only on the flow's remaining bytes and
// rate, and those change in only three ways:
//   - advance moves the clock, changing every flow's remaining bytes;
//   - solveComponent re-rates its component's flows, which it refreshes;
//   - a full re-solve (reschedule) may re-rate every flow.
//
// The first and last invalidate the whole cache, and the next arm
// rebuilds it with a full scan. Every arm bumps gen and schedules its
// event, so equal-timestamp event order is the same as scanning on
// every arm.
func (f *Fabric) armNext() {
	f.gen++
	if len(f.flows) == 0 {
		return
	}
	next := f.earliestCompletion()
	if next < 0 {
		// Every active flow is stalled on a down link, or the run
		// has failed.
		return
	}
	gen := f.gen
	f.eng.After(next, func() { f.onCompletion(gen) })
}

// onCompletion fires when the earliest flow should have drained. Stale
// events (superseded by a newer reschedule) are ignored via gen.
func (f *Fabric) onCompletion(gen uint64) {
	if gen != f.gen {
		return
	}
	f.advance()
	// Sub-byte residue is rounding noise from float rate arithmetic.
	const eps = 0.5
	finished := f.finished[:0]
	for _, fl := range f.flows {
		if fl.remaining <= eps {
			finished = append(finished, fl)
		}
	}
	// Deliver simultaneous completions in injection order so waiter
	// wakeups — and therefore the whole simulation — are deterministic.
	// (The scan order above is perturbed by swap-removes; insertion
	// sort restores id order without allocating.)
	for i := 1; i < len(finished); i++ {
		for j := i; j > 0 && finished[j].id < finished[j-1].id; j-- {
			finished[j], finished[j-1] = finished[j-1], finished[j]
		}
	}
	f.beginWalk()
	for _, fl := range finished {
		f.removeFlow(fl)
		f.seedLinks(fl.path())
		f.bytesMoved += fl.Bytes
		for _, l := range fl.path() {
			l.bytes += fl.Bytes
		}
		if f.np != nil {
			f.np.flowRemoved(fl.path())
		}
		if fl.obsEnd != nil {
			// The links are free now; the span closes with them
			// (BaseLatency is propagation, not occupancy).
			fl.obsEnd()
		}
		f.eng.CompleteAfter(f.cfg.BaseLatency, fl.done)
	}
	// Only the departed flows' component(s) can see rate changes; the
	// vacated links seed the walk.
	f.solveComponent()
	f.armNext()
	// Hold the finished scratch (cleared of flow pointers) for reuse.
	for i := range finished {
		finished[i] = nil
	}
	f.finished = finished[:0]
}

// IdealTransferTime returns the uncontended time for one transfer of the
// given size between distinct nodes: bytes at full link bandwidth plus
// base latency. Useful as a model reference.
func (f *Fabric) IdealTransferTime(bytes int64) simtime.Duration {
	return simtime.DurationOf(float64(bytes)/f.cfg.LinkBytesPerSec) + f.cfg.BaseLatency
}
