package obs

import (
	"bytes"
	"encoding/json"
	"testing"

	"pacc/internal/power"
	"pacc/internal/simtime"
)

// powerRun records a station's timeline while drive runs as one process,
// and returns the bus after the run.
func powerRun(t *testing.T, st *power.Station, eng *simtime.Engine, coresPerNode int, drive func(p *simtime.Proc)) *Bus {
	t.Helper()
	b := NewBus(eng)
	b.RecordPower(st, coresPerNode)
	if drive != nil {
		eng.Spawn("driver", drive)
	}
	if _, err := eng.Run(simtime.Infinity); err != nil {
		t.Fatal(err)
	}
	return b
}

// powerSpans folds the timeline into the bus and returns the complete
// spans it emitted.
func powerSpans(b *Bus) []Event {
	b.EmitPowerSpans()
	var out []Event
	b.EachEvent(func(e Event) {
		if e.Phase == 'X' {
			out = append(out, e)
		}
	})
	return out
}

func chromeEvents(t *testing.T, b *Bus) []map[string]any {
	t.Helper()
	var buf bytes.Buffer
	if err := b.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	return events
}

// One span per state change, in (core, start) order, with the state's
// power draw and levels in the args; the zero-length initial and final
// states are dropped, and a core that never changed contributes its
// whole run as one span.
func TestPowerSpansOnePerChange(t *testing.T) {
	eng := simtime.NewEngine()
	m := power.DefaultModel()
	st := power.NewStation(eng, m, 1, 2)
	b := powerRun(t, st, eng, 2, func(p *simtime.Proc) {
		c := st.Core(0)
		c.SetBusy(true)
		p.Sleep(simtime.Millisecond)
		c.SetFreq(1.6)
		p.Sleep(simtime.Millisecond)
		c.SetThrottle(power.T7)
		p.Sleep(simtime.Millisecond)
		c.SetBusy(false)
	})
	spans := powerSpans(b)
	want := []struct {
		name       string
		tid        int
		start, end simtime.Time
	}{
		{"busy 2.4GHz T0", 0, 0, simtime.Time(simtime.Millisecond)},
		{"busy 1.6GHz T0", 0, simtime.Time(simtime.Millisecond), simtime.Time(2 * simtime.Millisecond)},
		{"busy 1.6GHz T7", 0, simtime.Time(2 * simtime.Millisecond), simtime.Time(3 * simtime.Millisecond)},
		{"idle 2.4GHz T0", 1, 0, simtime.Time(3 * simtime.Millisecond)},
	}
	if len(spans) != len(want) {
		t.Fatalf("got %d spans, want %d: %+v", len(spans), len(want), spans)
	}
	for i, w := range want {
		s := spans[i]
		if s.Name != w.name || s.Track != CoreTrack(0, w.tid) || s.Time != w.start || s.Time.Add(s.Dur) != w.end {
			t.Errorf("span %d = %q %v [%v,+%v), want %q tid %d [%v,%v)",
				i, s.Name, s.Track, s.Time, s.Dur, w.name, w.tid, w.start, w.end)
		}
	}
	args := spans[2].Args
	if args["watts"] != m.CoreWatts(1.6, power.T7, true) || args["ghz"] != 1.6 ||
		args["tstate"] != 7 || args["busy"] != true {
		t.Fatalf("span args = %v", args)
	}
}

// Several changes at one instant leave only the last state: no
// zero-length span for the intermediate ones.
func TestPowerSameInstantChanges(t *testing.T) {
	eng := simtime.NewEngine()
	st := power.NewStation(eng, power.DefaultModel(), 1, 1)
	b := powerRun(t, st, eng, 1, func(p *simtime.Proc) {
		c := st.Core(0)
		c.SetBusy(true)
		c.SetFreq(1.6)
		c.SetThrottle(power.T4)
		p.Sleep(simtime.Millisecond)
		c.SetThrottle(power.T0)
		c.SetBusy(false)
		c.SetBusy(true)
		p.Sleep(simtime.Millisecond)
	})
	spans := powerSpans(b)
	if len(spans) != 2 || spans[0].Name != "busy 1.6GHz T4" || spans[1].Name != "busy 1.6GHz T0" {
		t.Fatalf("spans = %+v, want busy T4 then busy T0", spans)
	}
	if spans[0].Dur != simtime.Millisecond || spans[1].Dur != simtime.Millisecond {
		t.Fatalf("span durations = %v, %v, want 1ms each", spans[0].Dur, spans[1].Dur)
	}
}

// The interval still open at export is closed at the current time, not
// dropped.
func TestPowerOpenIntervalClosedAtExport(t *testing.T) {
	eng := simtime.NewEngine()
	st := power.NewStation(eng, power.DefaultModel(), 1, 2)
	b := powerRun(t, st, eng, 2, func(p *simtime.Proc) {
		st.Core(0).SetBusy(true)
		p.Sleep(simtime.Millisecond)
		st.Core(1).SetFreq(1.6)
		p.Sleep(simtime.Millisecond)
	})
	spans := powerSpans(b)
	if len(spans) != 3 {
		t.Fatalf("spans = %+v, want 3", spans)
	}
	for _, s := range []Event{spans[0], spans[2]} {
		if s.Time.Add(s.Dur) != eng.Now() {
			t.Fatalf("open span %q ends at %v, want %v", s.Name, s.Time.Add(s.Dur), eng.Now())
		}
	}
	if spans[2].Name != "idle 1.6GHz T0" || spans[2].Time != simtime.Time(simtime.Millisecond) {
		t.Fatalf("core 1 open span = %+v, want idle 1.6GHz T0 from 1ms", spans[2])
	}
}

// The fold happens once: after the first export the timeline is closed,
// so a second export neither duplicates the spans nor picks up later
// changes.
func TestPowerFoldedOnceAtExport(t *testing.T) {
	eng := simtime.NewEngine()
	st := power.NewStation(eng, power.DefaultModel(), 1, 1)
	b := powerRun(t, st, eng, 1, func(p *simtime.Proc) {
		st.Core(0).SetBusy(true)
		p.Sleep(simtime.Millisecond)
	})
	if spans := powerSpans(b); len(spans) != 1 {
		t.Fatalf("spans = %+v, want one busy span", spans)
	}
	st.Core(0).SetBusy(false)
	st.Core(0).SetBusy(true)
	if again := powerSpans(b); len(again) != 1 {
		t.Fatalf("spans after a second export = %d, want 1", len(again))
	}
}

// Before any state change every core holds a zero-length interval: the
// export is empty.
func TestPowerExportBeforeFirstChange(t *testing.T) {
	eng := simtime.NewEngine()
	st := power.NewStation(eng, power.DefaultModel(), 1, 2)
	b := NewBus(eng)
	b.RecordPower(st, 2)
	if events := chromeEvents(t, b); len(events) != 0 {
		t.Fatalf("pristine export has %d events, want 0", len(events))
	}
}

func TestPowerZeroCoreStation(t *testing.T) {
	eng := simtime.NewEngine()
	st := power.NewStation(eng, power.DefaultModel(), 0, 0)
	b := NewBus(eng)
	b.RecordPower(st, 1)
	if events := chromeEvents(t, b); len(events) != 0 {
		t.Fatalf("zero-core export has %d events, want 0", len(events))
	}
	var buf bytes.Buffer
	if err := b.WriteMetricsJSON(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestRecordPowerZeroCoresPerNode(t *testing.T) {
	eng := simtime.NewEngine()
	st := power.NewStation(eng, power.DefaultModel(), 1, 1)
	// Must not divide by zero on export.
	b := powerRun(t, st, eng, 0, func(p *simtime.Proc) {
		st.Core(0).SetBusy(true)
		p.Sleep(simtime.Millisecond)
	})
	if spans := powerSpans(b); len(spans) != 1 || spans[0].Track != CoreTrack(0, 0) {
		t.Fatalf("spans = %+v", spans)
	}
}

// Core rows sit in their node's process and are named after the core.
func TestPowerTrackMetadata(t *testing.T) {
	eng := simtime.NewEngine()
	st := power.NewStation(eng, power.DefaultModel(), 2, 2)
	b := powerRun(t, st, eng, 2, func(p *simtime.Proc) {
		st.Core(0).SetBusy(true)
		st.Core(2).SetBusy(true)
		p.Sleep(simtime.Millisecond)
		st.Core(0).SetBusy(false)
		st.Core(2).SetBusy(false)
	})
	names := map[[2]int]string{}
	for _, ev := range chromeEvents(t, b) {
		if ev["name"] == "thread_name" {
			key := [2]int{int(ev["pid"].(float64)), int(ev["tid"].(float64))}
			names[key] = ev["args"].(map[string]any)["name"].(string)
		}
	}
	want := map[[2]int]string{
		{0, 0}: "core 0", {0, 1}: "core 1", {1, 2}: "core 2", {1, 3}: "core 3",
	}
	if len(names) != len(want) {
		t.Fatalf("thread_name metadata = %v, want %v", names, want)
	}
	for k, v := range want {
		if names[k] != v {
			t.Fatalf("thread_name metadata = %v, want %v", names, want)
		}
	}
}

// Residency splits each core's time exactly along its state changes and
// sums to the recorded time.
func TestPowerResidency(t *testing.T) {
	m := power.DefaultModel()
	eng := simtime.NewEngine()
	st := power.NewStation(eng, m, 1, 2)
	b := powerRun(t, st, eng, 2, func(p *simtime.Proc) {
		c := st.Core(0)
		c.SetBusy(true)
		p.Sleep(2 * simtime.Millisecond) // busy fmax T0
		c.SetFreq(m.FMinGHz)
		p.Sleep(3 * simtime.Millisecond) // busy fmin T0
		c.SetThrottle(power.T4)
		p.Sleep(5 * simtime.Millisecond) // busy fmin T4
		c.SetBusy(false)
		p.Sleep(1 * simtime.Millisecond) // idle fmin T4
	})
	var buf bytes.Buffer
	if err := b.WriteMetricsJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DurationsSeconds map[string]float64 `json:"durations_seconds"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	ms := simtime.Millisecond
	want := map[string]simtime.Duration{
		"power.residency.core0.busy_2.4GHz_T0": 2 * ms,
		"power.residency.core0.busy_1.6GHz_T0": 3 * ms,
		"power.residency.core0.busy_1.6GHz_T4": 5 * ms,
		"power.residency.core0.idle_1.6GHz_T4": 1 * ms,
		"power.residency.core1.idle_2.4GHz_T0": 11 * ms,
	}
	if len(doc.DurationsSeconds) != len(want) {
		t.Fatalf("durations = %v, want %v", doc.DurationsSeconds, want)
	}
	for name, d := range want {
		if got := b.Duration(name); got != d {
			t.Errorf("%s = %v, want %v", name, got, d)
		}
	}
	// Folded once: a second export does not double the residencies.
	buf.Reset()
	if err := b.WriteMetricsJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if got := b.Duration("power.residency.core1.idle_2.4GHz_T0"); got != 11*ms {
		t.Fatalf("residency after a second export = %v, want 11ms", got)
	}
}

// A bus without RecordPower records no power timeline and leaves the
// cores unhooked: the exports carry no core rows or residency.
func TestNoPowerWithoutRecordPower(t *testing.T) {
	eng := simtime.NewEngine()
	st := power.NewStation(eng, power.DefaultModel(), 1, 1)
	b := NewBus(eng)
	eng.Spawn("driver", func(p *simtime.Proc) {
		st.Core(0).SetBusy(true)
		p.Sleep(simtime.Millisecond)
	})
	if _, err := eng.Run(simtime.Infinity); err != nil {
		t.Fatal(err)
	}
	if spans := powerSpans(b); len(spans) != 0 {
		t.Fatalf("spans = %+v, want none", spans)
	}
	var buf bytes.Buffer
	if err := b.WriteMetricsJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte("power.residency")) {
		t.Fatalf("metrics carry residency without RecordPower:\n%s", buf.String())
	}
}
