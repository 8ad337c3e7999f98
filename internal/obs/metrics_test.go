package obs

import (
	"bytes"
	"errors"
	"testing"

	"pacc/internal/power"
	"pacc/internal/simtime"
)

// emitAll drives every emission and metric entry point once.
func emitAll(b *Bus) {
	tr := RankTrack(0, 0)
	b.SetProcessName(0, "node 0")
	b.SetThreadName(tr, "rank 0")
	b.Span(tr, "op", 0, simtime.Time(10), map[string]any{"k": 1})
	sp := b.Begin(tr, "open", nil)
	sp.EndWith(map[string]any{"k": 2})
	b.Instant(tr, "mark", nil)
	id := b.AsyncBegin(tr, "mpi", "xfer", nil)
	b.AsyncEnd(tr, "mpi", "xfer", id)
	b.Add(CtrNetFlows, 3)
	b.AddDuration(DurWaitSpin, simtime.Millisecond)
	b.SetHistBuckets("h", SpanDurationBuckets)
	b.Observe("h", 2e-6)
}

// A metrics-only bus keeps every metric a full bus keeps, byte for byte,
// and records no timeline.
func TestMetricsBusKeepsMetricsOnly(t *testing.T) {
	full, lean := NewBus(simtime.NewEngine()), NewMetricsBus(nil)
	if !full.Tracing() || lean.Tracing() || (*Bus)(nil).Tracing() {
		t.Fatal("Tracing: want true for NewBus, false for NewMetricsBus and nil")
	}
	if !lean.Enabled() {
		t.Fatal("metrics-only bus reports disabled")
	}
	emitAll(full)
	emitAll(lean)
	if full.Events() == 0 {
		t.Fatal("full bus recorded no events")
	}
	if n := lean.Events(); n != 0 {
		t.Fatalf("metrics-only bus recorded %d events, want 0", n)
	}
	if lean.Now() != 0 {
		t.Fatalf("engine-less bus clock = %v, want 0", lean.Now())
	}
	var a, b bytes.Buffer
	if err := full.WriteMetricsJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := lean.WriteMetricsJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("metrics differ:\nfull:\n%s\nmetrics-only:\n%s", a.Bytes(), b.Bytes())
	}
}

// Exporting a trace from a metrics-only bus is a caller bug (a collector
// attached to the wrong bus); it must fail, not write an empty array.
func TestMetricsBusChromeTraceFails(t *testing.T) {
	b := NewMetricsBus(simtime.NewEngine())
	emitAll(b)
	var buf bytes.Buffer
	if err := b.WriteChromeTrace(&buf); !errors.Is(err, ErrNoTimeline) {
		t.Fatalf("WriteChromeTrace err = %v, want ErrNoTimeline", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("WriteChromeTrace wrote %q on failure", buf.String())
	}
}

// Subscribing to a metrics-only bus yields the invalid id 0 and no
// deliveries, so an analytics collector cannot attach and silently report
// nothing.
func TestMetricsBusSubscribeReturnsZero(t *testing.T) {
	b := NewMetricsBus(simtime.NewEngine())
	delivered := 0
	id := b.Subscribe(func(Event) { delivered++ })
	if id != 0 {
		t.Fatalf("Subscribe on a metrics-only bus = %d, want 0", id)
	}
	emitAll(b)
	b.Unsubscribe(id)
	if delivered != 0 {
		t.Fatalf("metrics-only bus delivered %d events", delivered)
	}
}

// Power residency is a metric, so a metrics-only bus that records power
// reports the same residencies as a full bus, with no core spans.
func TestMetricsBusRecordsPowerResidency(t *testing.T) {
	snapshot := func(newBus func(*simtime.Engine) *Bus) (*Bus, []byte) {
		eng := simtime.NewEngine()
		st := power.NewStation(eng, power.DefaultModel(), 1, 2)
		b := newBus(eng)
		b.RecordPower(st, 2)
		eng.Spawn("driver", func(p *simtime.Proc) {
			c := st.Core(0)
			c.SetBusy(true)
			p.Sleep(simtime.Millisecond)
			c.SetFreq(1.6)
			p.Sleep(simtime.Millisecond)
		})
		if _, err := eng.Run(simtime.Infinity); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := b.WriteMetricsJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return b, buf.Bytes()
	}
	_, want := snapshot(NewBus)
	lean, got := snapshot(NewMetricsBus)
	if !bytes.Equal(got, want) {
		t.Fatalf("residency differs:\nfull:\n%s\nmetrics-only:\n%s", want, got)
	}
	if !bytes.Contains(got, []byte("power.residency.core0.busy_1.6GHz_T0")) {
		t.Fatalf("no residency recorded:\n%s", got)
	}
	lean.EmitPowerSpans()
	if n := lean.Events(); n != 0 {
		t.Fatalf("metrics-only bus emitted %d power spans", n)
	}
}

// Emission on a metrics-only bus allocates nothing: the drop happens
// before any event is built.
func TestMetricsBusEmissionAllocs(t *testing.T) {
	b := NewMetricsBus(simtime.NewEngine())
	tr := RankTrack(0, 0)
	b.Add(CtrNetFlows, 1)
	allocs := testing.AllocsPerRun(1000, func() {
		b.Span(tr, "op", 0, simtime.Time(10), nil)
		b.Instant(tr, "mark", nil)
		id := b.AsyncBegin(tr, "cat", "xfer", nil)
		b.AsyncEnd(tr, "cat", "xfer", id)
		b.Begin(tr, "span", nil).End()
		b.Add(CtrNetFlows, 1)
	})
	if allocs != 0 {
		t.Fatalf("metrics-only emission allocated %.1f objects/op, want 0", allocs)
	}
}

func TestTransferName(t *testing.T) {
	cases := []struct {
		kind     string
		bytes    int64
		src, dst int
		want     string
	}{
		{"rdv", 256 << 10, 3, 17, "rdv 256KiB 3→17"},
		{"eager-shm", 100, 0, 1, "eager-shm 100B 0→1"},
		{"flow", 1 << 20, 12, 0, "flow 1MiB 12→0"},
		{"eager", 0, 7, 7, "eager 0B 7→7"},
	}
	for _, c := range cases {
		if got := TransferName(c.kind, c.bytes, c.src, c.dst); got != c.want {
			t.Errorf("TransferName(%q, %d, %d, %d) = %q, want %q",
				c.kind, c.bytes, c.src, c.dst, got, c.want)
		}
	}
}
