package pacc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

func TestFacadeTopoAwareAndWaitAll(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Net.NodesPerRack = 4
	cfg.Net.RackUplinkBytesPerSec = cfg.Net.LinkBytesPerSec
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.Launch(func(r *Rank) {
		c := CommWorld(r)
		ScatterTopoAware(c, 0, 32<<10, CollectiveOptions{Power: Proposed})
		GatherTopoAware(c, 0, 32<<10, CollectiveOptions{})
		BcastTopoAware(c, 0, 32<<10, CollectiveOptions{})
		// WaitAll over explicit requests.
		if r.ID() == 0 {
			q := r.Isend(8, 1024, 99)
			WaitAll(q, nil)
		}
		if r.ID() == 8 {
			r.Recv(0, 1024, 99)
		}
	})
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if w.Fabric().InterRackBytes() == 0 {
		t.Fatal("rack fabric saw no inter-rack traffic")
	}
	if w.Stats().Messages() == 0 {
		t.Fatal("message stats empty")
	}
}

func TestFacadeConfigPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.json")
	cfg := DefaultConfig()
	cfg.PowerAwareP2P = true
	cfg.Net.LinkPower = DefaultLinkPower()
	if err := SaveConfig(path, cfg); err != nil {
		t.Fatal(err)
	}
	back, err := LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if !back.PowerAwareP2P || !back.Net.LinkPower.Enabled() {
		t.Fatalf("round trip lost extension fields: %+v", back.Net.LinkPower)
	}
}

func TestFacadeTraceRecorder(t *testing.T) {
	cfg, err := ClusterFor(16)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess := AttachObs(w)
	w.Launch(func(r *Rank) {
		Bcast(CommWorld(r), 0, 256<<10, CollectiveOptions{Power: Proposed})
	})
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sess.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace not JSON: %v", err)
	}
	// Every core row sits in its node's process, next to the node's
	// rank rows, and carries power-state spans.
	cpn := cfg.Topo.CoresPerNode()
	procs := map[int]string{}
	cores := map[int]bool{}
	spans := 0
	var sawFmin, sawThrottle bool
	for _, ev := range events {
		pid, tid := int(ev["pid"].(float64)), int(ev["tid"].(float64))
		name, _ := ev["name"].(string)
		switch {
		case name == "process_name":
			procs[pid] = ev["args"].(map[string]any)["name"].(string)
		case name == "thread_name" && strings.HasPrefix(ev["args"].(map[string]any)["name"].(string), "core "):
			if pid != tid/cpn {
				t.Fatalf("core %d in process %d, want %d", tid, pid, tid/cpn)
			}
			cores[tid] = true
		case ev["ph"] == "X" && strings.Contains(name, "GHz T"):
			spans++
			sawFmin = sawFmin || strings.Contains(name, "1.6GHz")
			sawThrottle = sawThrottle || !strings.HasSuffix(name, " T0")
		}
	}
	for n := 0; n < cfg.Topo.Nodes; n++ {
		if procs[n] != fmt.Sprintf("node %d", n) {
			t.Fatalf("process_name metadata = %v", procs)
		}
	}
	if len(cores) == 0 || spans < len(cores) {
		t.Fatalf("%d core rows with %d power spans", len(cores), spans)
	}
	if !sawFmin || !sawThrottle {
		t.Fatalf("proposed bcast should show fmin and throttled intervals: fmin=%v throttled=%v", sawFmin, sawThrottle)
	}
}

// A proposed alltoall on two nodes exports to a Chrome trace whose core
// rows show the fmin and T7 intervals it schedules, as complete events
// with durations.
func TestFacadeTraceAlltoallPowerSpans(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NProcs = 16
	cfg.PPN = 8
	cfg.Topo.Nodes = 2
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess := AttachObs(w)
	w.Launch(func(r *Rank) {
		Alltoall(CommWorld(r), 64<<10, CollectiveOptions{Power: Proposed})
	})
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sess.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	spans := 0
	var sawT7, sawFmin, sawCoreMeta bool
	for _, ev := range events {
		name, _ := ev["name"].(string)
		if name == "thread_name" && strings.HasPrefix(ev["args"].(map[string]any)["name"].(string), "core ") {
			sawCoreMeta = true
		}
		if ev["ph"] != "X" || !strings.Contains(name, "GHz T") {
			continue
		}
		if ev["dur"] == nil {
			t.Fatalf("complete event without duration: %v", ev)
		}
		spans++
		sawT7 = sawT7 || strings.HasSuffix(name, " T7")
		sawFmin = sawFmin || strings.Contains(name, "1.6GHz")
	}
	if spans < 50 {
		t.Fatalf("only %d power spans; a proposed alltoall should produce many state changes", spans)
	}
	if !sawCoreMeta {
		t.Error("no core thread metadata events")
	}
	if !sawT7 {
		t.Error("proposed alltoall should show T7 intervals")
	}
	if !sawFmin {
		t.Error("proposed alltoall should show fmin intervals")
	}
}

func TestFacadeNASApp(t *testing.T) {
	for _, name := range []string{"ft.A", "is.B", "cg.A", "mg.A"} {
		app, err := NASApp(name)
		if err != nil || app.Name != name {
			t.Fatalf("NASApp(%q) = %q, %v", name, app.Name, err)
		}
	}
	if _, err := NASApp("lu.C"); err == nil {
		t.Fatal("unknown kernel accepted")
	}
	// And one runs end to end through the facade.
	cfg, err := ClusterFor(16)
	if err != nil {
		t.Fatal(err)
	}
	app, err := NASApp("cg.A")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunApp(app, cfg, NoPower)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Elapsed <= 0 || rep.CommEnergyFraction() <= 0 {
		t.Fatalf("degenerate report: %+v", rep)
	}
}
