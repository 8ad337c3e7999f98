// Package obs is the unified cross-layer observability substrate of the
// simulator: a simulation-time event bus collecting named spans, instant
// events, counters and histograms from every layer — MPI message
// lifecycle, network flows, collective phases and per-core power states —
// onto one timeline. The bus is also the one record of the per-core
// power schedule (RecordPower): core-track spans and state-residency
// metrics are both derived from it at export.
//
// The bus is disabled by default: every producer holds a possibly-nil
// *Bus, and all Bus methods are safe (and nearly free) on a nil receiver,
// so instrumented hot paths cost one pointer test when observability is
// off. Attach a bus with mpi.(*World).AttachObs (or the pacc facade's
// AttachObs) before Launch, run the simulation, then export a merged
// Chrome/Perfetto trace with WriteChromeTrace and a metrics snapshot with
// WriteMetricsJSON.
//
// A bus comes in two kinds, and callers pick by what they read back:
//
//   - NewBus records the timeline as well as the metrics. The pacc
//     facade's AttachObs session, the fault chaos harness, perfbench and
//     the tests use it: they export traces, subscribe analytics, or check
//     span balance.
//   - NewMetricsBus keeps counters, durations, histograms, link-busy time
//     and power residency, and records no events. sweep.Simulate uses it,
//     because a result payload holds only WriteMetricsJSON, and the sweep
//     service's own telemetry uses it with no engine at all.
//
// Producers test Tracing before building span names or args, so a
// metrics-only bus pays for neither. Worlds without a bus stay nil-bus.
//
// Exports are deterministic: events keep their (deterministic) emission
// order, sorts are stable, and JSON maps marshal with sorted keys, so two
// identical runs produce byte-identical artifacts.
package obs

import (
	"strconv"
	"sync"

	"pacc/internal/simtime"
)

// Track identifies one timeline row of the exported trace: a Chrome
// (process, thread) pair. By convention pid is the node index for on-node
// activity (cores, ranks) and PIDNetwork for the fabric.
type Track struct {
	PID int
	TID int
}

// PIDNetwork is the trace process that hosts network-flow spans.
const PIDNetwork = 1 << 20

// TIDRankBase offsets rank timelines above core timelines within a node
// process: core tids are global core indices, rank tids are
// TIDRankBase+rank.
const TIDRankBase = 1 << 12

// RankTrack returns the timeline of one MPI rank (collective phases,
// message lifecycle, waits).
func RankTrack(node, rank int) Track {
	return Track{PID: node, TID: TIDRankBase + rank}
}

// CoreTrack returns the timeline of one core's power states.
func CoreTrack(node, core int) Track {
	return Track{PID: node, TID: core}
}

// NetTrack returns the fabric timeline keyed by source node.
func NetTrack(srcNode int) Track {
	return Track{PID: PIDNetwork, TID: srcNode}
}

// Well-known metric names shared between the instrumented layers and the
// exported snapshot. Counters unless noted.
const (
	// MPI point-to-point traffic (see mpi.MsgStats).
	CtrShmEager      = "mpi.msgs.shm_eager"
	CtrShmRendezvous = "mpi.msgs.shm_rendezvous"
	CtrNetEager      = "mpi.msgs.net_eager"
	CtrNetRendezvous = "mpi.msgs.net_rendezvous"
	CtrControlMsgs   = "mpi.msgs.control"
	CtrShmBytes      = "mpi.bytes.shm"
	CtrNetBytes      = "mpi.bytes.net"

	// Wait-time attribution (durations): polling spins keep the core
	// busy, blocking waits idle it (§II-B).
	DurWaitSpin  = "mpi.wait.spin"
	DurWaitBlock = "mpi.wait.block"

	// Network flow accounting.
	CtrNetFlows     = "net.flows"
	CtrNetFlowBytes = "net.flow_bytes"
	// DurLinkBusyPrefix prefixes per-link busy-time durations, e.g.
	// "net.link_busy.node3-up".
	DurLinkBusyPrefix = "net.link_busy."

	// P/T-state transition counts and hardware-paced overhead time.
	CtrDVFSTransitions     = "power.dvfs.transitions"
	CtrThrottleTransitions = "power.throttle.transitions"
	DurDVFSOverhead        = "power.dvfs.overhead"
	DurThrottleOverhead    = "power.throttle.overhead"

	// Per-collective metrics: "collective.<op>.calls" counters,
	// "collective.<op>.energy_j" histograms (joules per call, observed
	// by communicator rank 0), "collective.<op>.seconds" histograms.
	CollectivePrefix = "collective."

	// Fault-injection and resilience accounting (internal/fault).
	CtrFaultLinkEvents       = "fault.link.events"
	CtrFaultMsgDrops         = "fault.msg.drops"
	CtrFaultMsgRetransmits   = "fault.msg.retransmits"
	CtrFaultMsgRequeues      = "fault.msg.requeues"
	CtrFaultRetriesExhausted = "fault.msg.retries_exhausted"
	CtrFaultPowerDelays      = "fault.power.delays"
	DurFaultPowerDelay       = "fault.power.delay"
	// End-to-end integrity: injected corruption and its detection.
	// CtrFaultMsgCorruptions counts in-flight bit flips injected into
	// protocol messages; CtrFaultMsgNacks the ICRC rejects NACKed back to
	// the sender (one per corruption today — kept separate so a future
	// coalescing receiver stays observable). CtrFaultMemCorruptions counts
	// memory-burst hits on reduction accumulators (invisible to the
	// transport), and CtrIntegrityVerifyFails the ABFT checksum mismatches
	// that caught them.
	CtrFaultMsgCorruptions  = "fault.msg.corruptions"
	CtrFaultMsgNacks        = "integrity.icrc.nacks"
	CtrFaultMemCorruptions  = "fault.mem.corruptions"
	CtrIntegrityVerifyFails = "integrity.verify.failures"
	// Crash-stop failure and ULFM-style recovery counters.
	CtrFaultRankCrashes  = "fault.rank.crashes"
	CtrFaultMsgsToDead   = "fault.msg.to_dead"
	CtrFaultPeerFailures = "fault.peer.failures_detected"
	CtrFaultCommRevokes  = "fault.comm.revokes"
	CtrFaultAgreements   = "fault.comm.agreements"
	// CtrCollectiveFallbacks counts collectives that abandoned their
	// topology-aware schedule for a degradation-tolerant variant.
	CtrCollectiveFallbacks = "collective.fallbacks"
	// CtrCollectiveRecoveries counts resilient-collective rounds that
	// shrank the communicator and retried after a failure.
	CtrCollectiveRecoveries = "collective.recoveries"
	// Fail-slow (gray failure) detection and mitigation. Lost transitions
	// are P/T-state writes the hardware silently dropped (the stickfail=
	// clause); recoveries are bounded re-issues that landed; censuses are
	// SPMD suspect agreements (Comm.AgreeSuspects); demotions count
	// communicator reorders that moved agreed suspects to leaf positions.
	CtrFaultTransitionsLost = "fault.power.transitions_lost"
	CtrFaultPowerRecoveries = "fault.power.recoveries"
	CtrFaultSuspectCensuses = "fault.comm.suspect_censuses"
	CtrCollectiveDemotions  = "collective.demotions"
)

// TIDFault is the network-process timeline row carrying fault-window
// markers (link degradation, link down/up).
const TIDFault = 1 << 16

// FaultTrack returns the timeline of injected fabric fault events.
func FaultTrack() Track {
	return Track{PID: PIDNetwork, TID: TIDFault}
}

// eventChunkSize is the block size of the timeline arena. 4096 events
// of ~100 bytes keep blocks well under typical large-object thresholds
// while amortizing allocation to one per few thousand emissions.
const eventChunkSize = 4096

// event is one timeline entry, stored in emission order.
type event struct {
	name  string
	cat   string
	ph    byte // 'X' complete, 'i' instant, 'b'/'e' async begin/end
	ts    simtime.Time
	dur   simtime.Duration
	track Track
	id    uint64
	args  map[string]any
}

// Event is the exported form of one timeline event, delivered to
// streaming subscribers (Subscribe) and replay consumers (EachEvent).
// Phase follows the Chrome trace-event convention: 'X' complete span,
// 'i' instant, 'b'/'e' async begin/end. Args is shared with the bus's
// own record — consumers must treat it as read-only.
type Event struct {
	Name    string
	Cat     string
	Phase   byte
	Time    simtime.Time
	Dur     simtime.Duration
	Track   Track
	AsyncID uint64
	Args    map[string]any
}

func (e event) exported() Event {
	return Event{
		Name: e.name, Cat: e.cat, Phase: e.ph, Time: e.ts, Dur: e.dur,
		Track: e.track, AsyncID: e.id, Args: e.args,
	}
}

// SubID identifies one streaming subscription (0 is the invalid id
// returned by a nil bus).
type SubID int

type subscriber struct {
	id SubID
	fn func(Event)
}

// Histogram summarizes a stream of observations. When bucket bounds are
// declared (SetHistBuckets) it additionally counts observations per
// bucket with deterministic edge behavior: observation v lands in the
// first bucket whose upper bound is >= v (boundary values land in the
// bucket they bound, the "le" rule), values above every bound land in the
// implicit overflow bucket, and NaN — which compares false against every
// bound — lands in the overflow bucket too. A zero observation (e.g. a
// zero-duration span's seconds) therefore lands in the first bucket
// whenever the first bound is >= 0.
type Histogram struct {
	Count int64
	Sum   float64
	Min   float64
	Max   float64
	// Bounds are the declared bucket upper bounds (sorted ascending);
	// BucketCounts has len(Bounds)+1 entries, the last being the overflow
	// bucket. Both are nil for a plain histogram.
	Bounds       []float64
	BucketCounts []int64
}

// bucketIndex returns the index of the bucket v lands in under the le
// rule: the first bound >= v, or len(bounds) (overflow) when no bound
// qualifies — which also catches NaN deterministically.
func bucketIndex(bounds []float64, v float64) int {
	for i, b := range bounds {
		if v <= b {
			return i
		}
	}
	return len(bounds)
}

// Mean returns Sum/Count (0 when empty).
func (h Histogram) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Bus accumulates observability data for one simulation. Construct with
// NewBus, or with NewMetricsBus for metrics without a timeline; a nil
// *Bus is a valid, disabled bus.
//
// A Bus is safe for concurrent use: emitters, counter/histogram
// updates, Subscribe/Unsubscribe and the export methods may race freely
// (the sweep service shares one telemetry bus across its worker pool).
// Within one simulation nothing ever contends — the engine serializes
// all rank activity — so the lock stays uncontended and the recorded
// stream stays deterministic. Under genuinely concurrent emitters the
// recorded order is the lock-acquisition order, and subscribers may
// observe events from several goroutines at once.
type Bus struct {
	eng *simtime.Engine
	// tracing is false on a metrics-only bus, which leaves the timeline,
	// name and subscriber fields empty.
	tracing bool
	mu      sync.Mutex
	// The timeline is a chunked arena: fixed-size blocks that fill in
	// emission order. Unlike one growing slice, recording never recopies
	// what came before — appending is a slot write, a new block is
	// allocated once per eventChunkSize emissions, and readers can
	// snapshot (chunks, nEvents) and iterate without holding the lock,
	// because filled slots are immutable.
	chunks  []*[eventChunkSize]event
	nEvents int
	// procNames / threadNames are export metadata ("node 3", "rank 17").
	procNames   map[int]string
	threadNames map[Track]string
	counters    map[string]int64
	durations   map[string]simtime.Duration
	hists       map[string]*Histogram
	nextAsync   uint64
	// subs are the live streaming subscribers; nextSub numbers them.
	// Subscriptions never perturb what the bus records: with zero
	// subscribers every emission costs one extra len check, and the
	// counters, durations, histograms and timeline stay byte-identical
	// whether or not anyone is listening.
	subs    []subscriber
	nextSub SubID
	// power is the per-core power-state timeline (see RecordPower); nil
	// unless recording was switched on.
	power *powerTimeline
}

// NewBus returns an enabled bus reading time from eng that records the
// timeline as well as the metrics.
func NewBus(eng *simtime.Engine) *Bus {
	b := NewMetricsBus(eng)
	b.tracing = true
	b.procNames = make(map[int]string)
	b.threadNames = make(map[Track]string)
	return b
}

// NewMetricsBus returns an enabled bus that keeps counters, durations,
// histograms, link-busy time and (after RecordPower) power residency,
// but records no timeline: Span, Instant, AsyncBegin and the name
// setters return at once, Subscribe returns 0 and WriteChromeTrace
// fails. eng may be nil for a bus that is never asked the time.
func NewMetricsBus(eng *simtime.Engine) *Bus {
	return &Bus{
		eng:       eng,
		counters:  make(map[string]int64),
		durations: make(map[string]simtime.Duration),
		hists:     make(map[string]*Histogram),
	}
}

// Enabled reports whether the bus records anything (false for nil).
func (b *Bus) Enabled() bool { return b != nil }

// Tracing reports whether the bus records a timeline (false for nil and
// for a metrics-only bus). Producers test it before building span names
// or args.
func (b *Bus) Tracing() bool { return b != nil && b.tracing }

// Now returns the bus clock (zero for a nil bus or one without engine).
func (b *Bus) Now() simtime.Time {
	if b == nil || b.eng == nil {
		return 0
	}
	return b.eng.Now()
}

// SetProcessName labels a trace process (Perfetto group), e.g. "node 2".
func (b *Bus) SetProcessName(pid int, name string) {
	if !b.Tracing() {
		return
	}
	b.mu.Lock()
	b.procNames[pid] = name
	b.mu.Unlock()
}

// SetThreadName labels one timeline row, e.g. "rank 17".
func (b *Bus) SetThreadName(t Track, name string) {
	if !b.Tracing() {
		return
	}
	b.mu.Lock()
	b.threadNames[t] = name
	b.mu.Unlock()
}

// emit appends ev to the timeline and fans it out to any streaming
// subscribers. The subscriber slice is snapshotted under the lock (it
// is copy-on-write, so the snapshot is immutable) and delivery happens
// outside it, so a callback that unsubscribes, subscribes, or emits
// cannot corrupt the iteration or deadlock.
func (b *Bus) emit(ev event) {
	b.mu.Lock()
	ci, off := b.nEvents/eventChunkSize, b.nEvents%eventChunkSize
	if off == 0 && ci == len(b.chunks) {
		b.chunks = append(b.chunks, new([eventChunkSize]event))
	}
	b.chunks[ci][off] = ev
	b.nEvents++
	subs := b.subs
	b.mu.Unlock()
	if len(subs) == 0 {
		return
	}
	out := ev.exported()
	for _, s := range subs {
		s.fn(out)
	}
}

// Subscribe registers fn to receive every subsequently emitted timeline
// event, in emission order, synchronously from the emitting (simulated)
// context. Events already recorded are not replayed — use EachEvent to
// catch up. Subscribers observe, they never alter: the bus's recorded
// state is identical with zero or many subscribers. Returns 0 on a nil
// or metrics-only bus, which has no timeline to deliver (Unsubscribe
// ignores it).
func (b *Bus) Subscribe(fn func(Event)) SubID {
	if !b.Tracing() || fn == nil {
		return 0
	}
	b.mu.Lock()
	b.nextSub++
	id := b.nextSub
	// Copy-on-write: emit may be delivering from the old slice.
	next := make([]subscriber, len(b.subs), len(b.subs)+1)
	copy(next, b.subs)
	b.subs = append(next, subscriber{id: id, fn: fn})
	b.mu.Unlock()
	return id
}

// Unsubscribe removes a streaming subscription. Unknown (or zero) ids are
// ignored, so unsubscribing twice is safe.
func (b *Bus) Unsubscribe(id SubID) {
	if b == nil || id == 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, s := range b.subs {
		if s.id == id {
			// Copy-on-write: emit may be iterating the old slice.
			next := make([]subscriber, 0, len(b.subs)-1)
			next = append(next, b.subs[:i]...)
			next = append(next, b.subs[i+1:]...)
			b.subs = next
			return
		}
	}
}

// EachEvent replays every recorded timeline event, in emission order, to
// fn. Combined with Subscribe this gives a late subscriber a complete
// stream: replay first, then subscribe. Nil-safe.
func (b *Bus) EachEvent(fn func(Event)) {
	if b == nil || fn == nil {
		return
	}
	chunks, n := b.snapshotEvents()
	// Slots below n are immutable; concurrent appends only fill later
	// slots (or later chunks), so the snapshot iterates race-free.
	forEachEvent(chunks, n, func(ev event) {
		fn(ev.exported())
	})
}

// snapshotEvents captures the arena state for lock-free iteration.
func (b *Bus) snapshotEvents() ([]*[eventChunkSize]event, int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.chunks, b.nEvents
}

// forEachEvent walks the first n recorded events in emission order.
func forEachEvent(chunks []*[eventChunkSize]event, n int, fn func(event)) {
	for i := 0; i < n; i += eventChunkSize {
		c := chunks[i/eventChunkSize]
		end := eventChunkSize
		if n-i < end {
			end = n - i
		}
		for j := 0; j < end; j++ {
			fn(c[j])
		}
	}
}

// Span records a complete span over [start, end). Zero-length spans are
// dropped (they carry no time and clutter the timeline); a zero-duration
// observation fed to a bucketed histogram still lands deterministically
// in its first bucket (see Histogram).
func (b *Bus) Span(t Track, name string, start, end simtime.Time, args map[string]any) {
	if !b.Tracing() || end <= start {
		return
	}
	b.emit(event{
		name: name, ph: 'X', ts: start, dur: end.Sub(start), track: t, args: args,
	})
}

// SpanHandle is an open span created by Begin; call End (or EndWith) from
// the same logical thread when the spanned region finishes. The zero
// value (from a nil or metrics-only bus) is inert.
type SpanHandle struct {
	b     *Bus
	t     Track
	name  string
	start simtime.Time
	args  map[string]any
}

// Begin opens a span at the current simulation time.
func (b *Bus) Begin(t Track, name string, args map[string]any) SpanHandle {
	if !b.Tracing() {
		return SpanHandle{}
	}
	return SpanHandle{b: b, t: t, name: name, start: b.eng.Now(), args: args}
}

// End closes the span at the current simulation time.
func (s SpanHandle) End() {
	if s.b == nil {
		return
	}
	s.b.Span(s.t, s.name, s.start, s.b.eng.Now(), s.args)
}

// EndWith closes the span with extra args merged over Begin's.
func (s SpanHandle) EndWith(args map[string]any) {
	if s.b == nil {
		return
	}
	merged := s.args
	if merged == nil {
		merged = args
	} else {
		for k, v := range args {
			merged[k] = v
		}
	}
	s.b.Span(s.t, s.name, s.start, s.b.eng.Now(), merged)
}

// Instant records a zero-duration marker event.
func (b *Bus) Instant(t Track, name string, args map[string]any) {
	if !b.Tracing() {
		return
	}
	b.emit(event{
		name: name, ph: 'i', ts: b.eng.Now(), track: t, args: args,
	})
}

// AsyncBegin opens an asynchronous span — a lifecycle that starts and
// ends on different logical threads or overlaps others on its track
// (message deliveries, network flows). It returns the id to pass to
// AsyncEnd; 0 from a nil or metrics-only bus (AsyncEnd ignores it).
func (b *Bus) AsyncBegin(t Track, cat, name string, args map[string]any) uint64 {
	if !b.Tracing() {
		return 0
	}
	b.mu.Lock()
	b.nextAsync++
	id := b.nextAsync
	b.mu.Unlock()
	b.emit(event{
		name: name, cat: cat, ph: 'b', ts: b.eng.Now(), track: t, id: id, args: args,
	})
	return id
}

// AsyncEnd closes the asynchronous span with the given id. The cat and
// name must match AsyncBegin's (Chrome pairs async events by them).
func (b *Bus) AsyncEnd(t Track, cat, name string, id uint64) {
	if b == nil || id == 0 {
		return
	}
	b.emit(event{
		name: name, cat: cat, ph: 'e', ts: b.eng.Now(), track: t, id: id,
	})
}

// UnbalancedAsyncs returns, per track, the names of async spans that were
// begun but never ended (insertion order). Balanced instrumentation — every
// message lifecycle closed — returns an empty map. The chaos harness uses
// it as an invariant, excusing the tracks of crashed ranks: a rank that
// dies mid-transfer legitimately leaves its in-flight spans open
// (tombstones of the crash), while an open span on a survivor's track
// means a leaked lifecycle. Nil-safe.
func (b *Bus) UnbalancedAsyncs(skip func(Track) bool) map[Track][]string {
	if b == nil {
		return nil
	}
	type openKey struct {
		track Track
		id    uint64
	}
	chunks, n := b.snapshotEvents()
	open := map[openKey]string{}
	var order []openKey
	forEachEvent(chunks, n, func(ev event) {
		k := openKey{track: ev.track, id: ev.id}
		switch ev.ph {
		case 'b':
			open[k] = ev.name
			order = append(order, k)
		case 'e':
			delete(open, k)
		}
	})
	out := map[Track][]string{}
	for _, k := range order {
		name, stillOpen := open[k]
		if !stillOpen || (skip != nil && skip(k.track)) {
			continue
		}
		out[k.track] = append(out[k.track], name)
	}
	return out
}

// Add accrues delta into a named counter.
func (b *Bus) Add(name string, delta int64) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.counters[name] += delta
	b.mu.Unlock()
}

// AddDuration accrues d into a named duration accumulator.
func (b *Bus) AddDuration(name string, d simtime.Duration) {
	if b == nil || d <= 0 {
		return
	}
	b.mu.Lock()
	b.durations[name] += d
	b.mu.Unlock()
}

// SetHistBuckets declares bucket upper bounds for a named histogram
// before its first observation. Bounds must be sorted ascending; an
// unsorted, empty, or late declaration (the histogram already exists) is
// ignored, so repeated declarations from per-call instrumentation are
// cheap no-ops and the first declaration wins deterministically.
func (b *Bus) SetHistBuckets(name string, bounds []float64) {
	if b == nil || len(bounds) == 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.hists[name] != nil {
		return
	}
	own := make([]float64, len(bounds))
	copy(own, bounds)
	for i := 1; i < len(own); i++ {
		if !(own[i] > own[i-1]) {
			return
		}
	}
	b.hists[name] = &Histogram{
		Bounds:       own,
		BucketCounts: make([]int64, len(own)+1),
	}
}

// Observe feeds one sample into a named histogram.
func (b *Bus) Observe(name string, v float64) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	h := b.hists[name]
	if h == nil {
		h = &Histogram{Min: v, Max: v}
		b.hists[name] = h
	}
	if v < h.Min || h.Count == 0 {
		h.Min = v
	}
	if v > h.Max || h.Count == 0 {
		h.Max = v
	}
	h.Count++
	h.Sum += v
	if h.Bounds != nil {
		h.BucketCounts[bucketIndex(h.Bounds, v)]++
	}
}

// Counter returns the current value of a counter (0 if never touched or
// the bus is nil).
func (b *Bus) Counter(name string) int64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.counters[name]
}

// Duration returns the accumulated duration under name.
func (b *Bus) Duration(name string) simtime.Duration {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.durations[name]
}

// Hist returns a copy of the named histogram (zero value if absent).
// Bucket slices are copied too, so callers may keep the result.
func (b *Bus) Hist(name string) Histogram {
	if b == nil {
		return Histogram{}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if h := b.hists[name]; h != nil {
		out := *h
		if h.Bounds != nil {
			out.Bounds = append([]float64(nil), h.Bounds...)
			out.BucketCounts = append([]int64(nil), h.BucketCounts...)
		}
		return out
	}
	return Histogram{}
}

// SpanDurationBuckets are the default bucket bounds (seconds) for span-
// duration histograms: half-decade steps from 1µs to 100s, bracketing
// everything a collective call can take in the simulated testbeds. The
// first bound is 0 so zero-duration observations land in bucket 0.
var SpanDurationBuckets = []float64{
	0,
	1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4,
	1e-3, 5e-3, 1e-2, 5e-2, 1e-1, 5e-1,
	1, 5, 10, 50, 100,
}

// EnergyBuckets are the default bucket bounds (joules) for per-call
// energy histograms: decades from 1mJ to 1MJ.
var EnergyBuckets = []float64{
	0, 1e-3, 1e-2, 1e-1, 1, 10, 100, 1e3, 1e4, 1e5, 1e6,
}

// Events reports how many timeline events have been recorded.
func (b *Bus) Events() int {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.nEvents
}

// SizeLabel formats a byte count the way span names do (power-of-two
// units, e.g. "256KiB"), shared so traces stay uniform across layers.
func SizeLabel(bytes int64) string {
	var buf [24]byte
	return string(appendSizeLabel(buf[:0], bytes))
}

func appendSizeLabel(dst []byte, bytes int64) []byte {
	switch {
	case bytes >= 1<<20 && bytes%(1<<20) == 0:
		return append(strconv.AppendInt(dst, bytes>>20, 10), "MiB"...)
	case bytes >= 1<<10 && bytes%(1<<10) == 0:
		return append(strconv.AppendInt(dst, bytes>>10, 10), "KiB"...)
	default:
		return append(strconv.AppendInt(dst, bytes, 10), 'B')
	}
}

// TransferName names a point-to-point transfer span the way every layer
// does, e.g. "rdv 256KiB 3→17" or "flow 4KiB 0→1".
func TransferName(kind string, bytes int64, src, dst int) string {
	var buf [64]byte
	b := append(buf[:0], kind...)
	b = append(b, ' ')
	b = appendSizeLabel(b, bytes)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(src), 10)
	b = append(b, "→"...)
	b = strconv.AppendInt(b, int64(dst), 10)
	return string(b)
}
