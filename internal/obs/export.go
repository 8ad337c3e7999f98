package obs

import (
	"encoding/json"
	"errors"
	"io"
	"sort"
)

// ErrNoTimeline is returned by WriteChromeTrace on a metrics-only bus
// (NewMetricsBus), which never recorded the events a trace holds.
var ErrNoTimeline = errors.New("obs: metrics-only bus records no timeline")

// chromeEvent is one entry of the Chrome trace-event JSON array (the
// format read by chrome://tracing and ui.perfetto.dev).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   string         `json:"id,omitempty"`
	S    string         `json:"s,omitempty"` // instant scope
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace exports every recorded timeline event as one Chrome
// trace JSON array: metadata (process/thread names) first, then events
// stable-sorted by timestamp, so identical runs produce identical bytes.
// A nil bus writes an empty array; a metrics-only bus writes nothing and
// returns ErrNoTimeline. A recorded power timeline is folded in first
// (EmitPowerSpans).
func (b *Bus) WriteChromeTrace(w io.Writer) error {
	if b == nil {
		_, err := w.Write([]byte("[]\n"))
		return err
	}
	if !b.tracing {
		return ErrNoTimeline
	}
	b.EmitPowerSpans()
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]chromeEvent, 0, b.nEvents+len(b.procNames)+len(b.threadNames))

	pids := make([]int, 0, len(b.procNames))
	for pid := range b.procNames {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	for _, pid := range pids {
		out = append(out, chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": b.procNames[pid]},
		})
	}
	tracks := make([]Track, 0, len(b.threadNames))
	for t := range b.threadNames {
		tracks = append(tracks, t)
	}
	sort.Slice(tracks, func(i, j int) bool {
		if tracks[i].PID != tracks[j].PID {
			return tracks[i].PID < tracks[j].PID
		}
		return tracks[i].TID < tracks[j].TID
	})
	for _, t := range tracks {
		out = append(out, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: t.PID, Tid: t.TID,
			Args: map[string]any{"name": b.threadNames[t]},
		})
	}

	// Timeline events: the emission order is deterministic (the
	// simulation is), so a stable sort by timestamp is too.
	evs := make([]event, 0, b.nEvents)
	forEachEvent(b.chunks, b.nEvents, func(ev event) { evs = append(evs, ev) })
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].ts < evs[j].ts })
	for _, ev := range evs {
		ce := chromeEvent{
			Name: ev.name,
			Cat:  ev.cat,
			Ph:   string(ev.ph),
			Ts:   ev.ts.Micros(),
			Pid:  ev.track.PID,
			Tid:  ev.track.TID,
			Args: ev.args,
		}
		switch ev.ph {
		case 'X':
			ce.Dur = ev.dur.Micros()
		case 'i':
			ce.S = "t"
		case 'b', 'e':
			ce.ID = asyncID(ev.id)
		}
		out = append(out, ce)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// asyncID formats an async-event id; Chrome accepts string ids, which
// keeps the JSON free of large-number formatting concerns.
func asyncID(id uint64) string {
	// Decimal, no allocation-heavy formatting dependencies.
	if id == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for id > 0 {
		i--
		buf[i] = byte('0' + id%10)
		id /= 10
	}
	return string(buf[i:])
}

// histJSON is the exported shape of one histogram. Buckets (present only
// for bucketed histograms) pair each declared upper bound with its count;
// the final entry with "le": null is the overflow bucket.
type histJSON struct {
	Count   int64        `json:"count"`
	Sum     float64      `json:"sum"`
	Min     float64      `json:"min"`
	Max     float64      `json:"max"`
	Mean    float64      `json:"mean"`
	Buckets []bucketJSON `json:"buckets,omitempty"`
}

type bucketJSON struct {
	LE    *float64 `json:"le"` // nil marks the overflow bucket
	Count int64    `json:"count"`
}

func bucketsJSON(h *Histogram) []bucketJSON {
	if h.Bounds == nil {
		return nil
	}
	out := make([]bucketJSON, 0, len(h.BucketCounts))
	for i, c := range h.BucketCounts {
		var le *float64
		if i < len(h.Bounds) {
			b := h.Bounds[i]
			le = &b
		}
		out = append(out, bucketJSON{LE: le, Count: c})
	}
	return out
}

// metricsDoc is the exported metrics snapshot. encoding/json marshals
// maps with sorted keys, so the output is deterministic.
type metricsDoc struct {
	Counters         map[string]int64    `json:"counters"`
	DurationsSeconds map[string]float64  `json:"durations_seconds"`
	Histograms       map[string]histJSON `json:"histograms"`
}

// WriteMetricsJSON exports all counters, duration accumulators and
// histograms as one indented JSON document with sorted keys. A nil bus
// writes an empty document. A recorded power timeline contributes its
// per-core state residencies, folded in on the first call.
func (b *Bus) WriteMetricsJSON(w io.Writer) error {
	doc := metricsDoc{
		Counters:         map[string]int64{},
		DurationsSeconds: map[string]float64{},
		Histograms:       map[string]histJSON{},
	}
	if b != nil {
		b.addPowerResidency()
		b.mu.Lock()
		defer b.mu.Unlock()
		for k, v := range b.counters {
			doc.Counters[k] = v
		}
		for k, d := range b.durations {
			doc.DurationsSeconds[k] = d.Seconds()
		}
		for k, h := range b.hists {
			doc.Histograms[k] = histJSON{
				Count: h.Count, Sum: h.Sum, Min: h.Min, Max: h.Max, Mean: h.Mean(),
				Buckets: bucketsJSON(h),
			}
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
