package pacc_test

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"

	"pacc"
	"pacc/internal/experiments"
	"pacc/internal/fault/chaos"
	"pacc/internal/simtime"
	"pacc/internal/sweep"
)

// goldenRun is one canonical observed run whose exports are pinned by
// SHA-256 in testdata/obs_golden.txt.
type goldenRun struct {
	name  string
	cfg   func(t *testing.T) pacc.Config
	body  func(r *pacc.Rank)
	setup func(s *pacc.ObsSession)
	// order lists the exports in the order they are requested; the power
	// timeline is folded into the bus on the first export that needs it,
	// so varying the order covers every path that triggers the fold.
	order []string
	// runErr marks a run that must fail (a deadlock); its error text is
	// pinned as one more digest, "<run>/error".
	runErr bool
}

func goldenRuns() []goldenRun {
	all := []string{"trace", "metrics", "report", "annotated"}
	return []goldenRun{
		{
			name: "allreduce_topo_1MiB_proposed",
			cfg:  func(*testing.T) pacc.Config { return pacc.DefaultConfig() },
			body: func(r *pacc.Rank) {
				pacc.AllreduceTopoAware(pacc.CommWorld(r), 1<<20, pacc.CollectiveOptions{Power: pacc.Proposed})
			},
			order: all,
		},
		{
			name: "alltoall_256KiB_proposed_streaming",
			cfg:  func(*testing.T) pacc.Config { return pacc.DefaultConfig() },
			body: func(r *pacc.Rank) {
				pacc.Alltoall(pacc.CommWorld(r), 256<<10, pacc.CollectiveOptions{Power: pacc.Proposed})
			},
			setup: func(s *pacc.ObsSession) { s.EnableAnalytics() },
			order: []string{"report", "trace", "metrics", "annotated"},
		},
		{
			name: "bcast_1MiB_proposed_blocking",
			cfg: func(*testing.T) pacc.Config {
				cfg := pacc.DefaultConfig()
				cfg.Mode = pacc.Blocking
				return cfg
			},
			body: func(r *pacc.Rank) {
				pacc.Bcast(pacc.CommWorld(r), 0, 1<<20, pacc.CollectiveOptions{Power: pacc.Proposed})
			},
			order: []string{"metrics", "trace", "report", "annotated"},
		},
		{
			name: "faulted_allreduce_slow_degrade",
			cfg: func(t *testing.T) pacc.Config {
				spec, err := pacc.ParseFaultSpec("seed=7;slow=3@4x:200us+2ms;degrade=node1-up@0.5:100us+5ms")
				if err != nil {
					t.Fatal(err)
				}
				cfg := pacc.DefaultConfig()
				cfg.Fault = spec
				return cfg
			},
			body: func(r *pacc.Rank) {
				c := pacc.CommWorld(r)
				opt := pacc.CollectiveOptions{Power: pacc.Proposed}
				pacc.AllreduceTopoAware(c, 256<<10, opt)
				r.Compute(500 * simtime.Microsecond)
				pacc.AllreduceTopoAware(c, 256<<10, opt)
			},
			order: []string{"metrics", "report", "trace", "annotated"},
		},
		{
			// Intra-node rendezvous under PowerAwareP2P: both the receiver
			// (posted early) and the sender (waiting for the CTS) drop to
			// fmin inside the wait and restore fmax after it.
			name: "p2p_rendezvous_shm_poweraware",
			cfg: func(*testing.T) pacc.Config {
				cfg := pacc.DefaultConfig()
				cfg.PowerAwareP2P = true
				return cfg
			},
			body: func(r *pacc.Rank) {
				switch r.ID() {
				case 0:
					r.Compute(40 * simtime.Microsecond)
					r.Send(1, 256<<10, 1)
					r.Recv(1, 64<<10, 2)
				case 1:
					r.Recv(0, 256<<10, 1)
					r.Send(0, 64<<10, 2)
				}
			},
			order: all,
		},
		{
			// Crashes that land while ranks wait at fmin: rank 1 dies in
			// its scaled-down receive wait, so its unwind runs the
			// restoring transition; rank 3 dies inside the scale-down
			// transition itself. Their senders time out on the dead peers.
			// The extra settle time (pdelay) counts every transition begun,
			// the one in the unwind included.
			name: "p2p_crash_while_scaled_down",
			cfg: func(t *testing.T) pacc.Config {
				spec, err := pacc.ParseFaultSpec("seed=1;pdelay=3us;crash=1@60us;crash=3@5us")
				if err != nil {
					t.Fatal(err)
				}
				cfg := pacc.DefaultConfig()
				cfg.PowerAwareP2P = true
				cfg.Fault = spec
				return cfg
			},
			body: func(r *pacc.Rank) {
				switch r.ID() {
				case 0, 2:
					r.Compute(100 * simtime.Microsecond)
					r.Send(r.ID()+1, 256<<10, 1)
				case 1, 3:
					r.Recv(r.ID()-1, 256<<10, 1)
				}
			},
			order: all,
		},
		{
			// The nonblocking API: every rank posts receives and sends
			// (eager and rendezvous, intra- and inter-node), computes,
			// then completes them all with WaitAll.
			name: "nonblocking_isend_irecv_waitall",
			cfg:  func(*testing.T) pacc.Config { return pacc.DefaultConfig() },
			body: func(r *pacc.Rank) {
				p, me := r.World().Size(), r.ID()
				near, far := (me+1)%p, (me+8)%p
				fromNear, fromFar := (me-1+p)%p, (me-8+p)%p
				reqs := []*pacc.Request{
					r.Irecv(fromNear, 64<<10, 1),
					r.Irecv(fromFar, 1<<10, 2),
					r.Isend(far, 1<<10, 2),
					r.Isend(near, 64<<10, 1),
				}
				r.Compute(simtime.Duration(me%5) * 3 * simtime.Microsecond)
				pacc.WaitAll(reqs...)
			},
			order: []string{"trace", "report", "metrics", "annotated"},
		},
		{
			// A deadlock: the report must name every blocked rank with
			// what it waits for (match, rendezvous data, shared-memory
			// CTS, agreement).
			name: "deadlock_report",
			cfg:  func(*testing.T) pacc.Config { return pacc.DefaultConfig() },
			body: func(r *pacc.Rank) {
				switch r.ID() {
				case 0:
					r.Recv(1, 1<<10, 1)
				case 2:
					r.Send(9, 256<<10, 1)
				case 3:
					r.Send(4, 256<<10, 1)
				case 10:
					c := pacc.CommWorld(r).Sub([]int{10, 11})
					c.AgreeFailures()
				default:
					r.Compute(10 * simtime.Microsecond)
				}
			},
			order:  []string{"metrics", "trace", "report", "annotated"},
			runErr: true,
		},
	}
}

// runGolden executes one canonical run and returns the SHA-256 of each
// export, keyed "<run>/<export>".
func runGolden(t *testing.T, g goldenRun) map[string]string {
	t.Helper()
	w, err := pacc.NewWorld(g.cfg(t))
	if err != nil {
		t.Fatal(err)
	}
	sess := pacc.AttachObs(w)
	if g.setup != nil {
		g.setup(sess)
	}
	w.Launch(g.body)
	out := map[string]string{}
	_, err = w.Run()
	switch {
	case g.runErr && err == nil:
		t.Fatalf("%s: run succeeded, want an error", g.name)
	case g.runErr:
		sum := sha256.Sum256([]byte(err.Error()))
		out[g.name+"/error"] = hex.EncodeToString(sum[:])
	case err != nil:
		t.Fatal(err)
	}
	writers := map[string]func(io.Writer) error{
		"trace":     sess.WriteTrace,
		"metrics":   sess.WriteMetrics,
		"report":    sess.WriteReport,
		"annotated": sess.WriteAnnotatedTrace,
	}
	for _, name := range g.order {
		var buf bytes.Buffer
		if err := writers[name](&buf); err != nil {
			t.Fatalf("%s: %s: %v", g.name, name, err)
		}
		sum := sha256.Sum256(buf.Bytes())
		out[g.name+"/"+name] = hex.EncodeToString(sum[:])
	}
	return out
}

func readGolden(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("%s: malformed line %q", path, line)
		}
		want[fields[0]] = fields[1]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestObsExportsGolden freezes the observable output of the facade: the
// merged trace, metrics snapshot, analytics report and annotated trace of
// the canonical runs (and the error text of the one that must fail) must
// hash to the digests in testdata. A refactor of
// the observability or power layers that changes a single byte fails
// here. On a deliberate output change, replace the file's digest lines
// with the ones this test logs.
func TestObsExportsGolden(t *testing.T) {
	const path = "testdata/obs_golden.txt"
	want := readGolden(t, path)
	got := map[string]string{}
	for _, g := range goldenRuns() {
		for k, v := range runGolden(t, g) {
			got[k] = v
		}
	}
	checkGolden(t, path, want, got)
}

// checkGolden fails t unless got matches the digests read from path,
// listing every computed digest so a deliberate change can be recorded.
func checkGolden(t *testing.T, path string, want, got map[string]string) {
	t.Helper()
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var mismatch, listing strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&listing, "%s %s\n", k, got[k])
		if want[k] != got[k] {
			fmt.Fprintf(&mismatch, "  %s: got %s, want %q\n", k, got[k], want[k])
		}
	}
	if len(want) != len(got) {
		fmt.Fprintf(&mismatch, "  %d digests in %s, %d computed\n", len(want), path, len(got))
	}
	if mismatch.Len() > 0 {
		t.Fatalf("digests changed:\n%scomputed digests:\n%s", mismatch.String(), listing.String())
	}
}

// sweepGoldenRequests are the canonical sweep cells: three ops under each
// power mode at 16 ranks, and one cell per fault family. The fault cells
// pin the retry, NACK, requeue and crash paths: message loss and
// corruption hash each message's sequence number, and every retried
// attempt starts a fresh flow.
func sweepGoldenRequests() map[string]sweep.Request {
	reqs := map[string]sweep.Request{}
	for _, op := range []string{"alltoall", "bcast", "allreduce_topo"} {
		for _, mode := range []string{"no-power", "freq-scaling", "proposed"} {
			reqs[op+"_"+mode] = sweep.Request{Op: op, Procs: 16, PPN: 8, Bytes: 64 << 10, Mode: mode, Iters: 2}
		}
	}
	reqs["allreduce_topo_proposed_slow_degrade"] = sweep.Request{
		Op: "allreduce_topo", Procs: 16, PPN: 8, Bytes: 256 << 10, Mode: "proposed",
		Fault: "seed=7;slow=3@4x:200us+2ms;degrade=node1-up@0.5:100us+5ms",
	}
	reqs["alltoall_freq-scaling_msgloss"] = sweep.Request{
		Op: "alltoall", Procs: 16, PPN: 8, Bytes: 64 << 10, Mode: "freq-scaling", Iters: 2,
		Fault: "seed=3;msgloss=0.05;retry=7",
	}
	reqs["allreduce_ft_proposed_corrupt"] = sweep.Request{
		Op: "allreduce_ft", Procs: 16, PPN: 8, Bytes: 4 << 10, Mode: "proposed", Iters: 2,
		Fault: "seed=5;corrupt=0.05",
	}
	reqs["bcast_no-power_linkdown"] = sweep.Request{
		Op: "bcast", Procs: 16, PPN: 8, Bytes: 64 << 10, Mode: "no-power", Iters: 2,
		Fault: "seed=11;linkdown=node0-up:10us+100us",
	}
	reqs["allreduce_ft_no-power_crash"] = sweep.Request{
		Op: "allreduce_ft", Procs: 16, PPN: 8, Bytes: 64 << 10, Mode: "no-power", Iters: 2,
		Fault: "seed=9;crash=5@30us",
	}
	return reqs
}

// TestSweepPayloadGolden pins the SHA-256 of the result payload sweep.Simulate
// returns for each canonical cell (testdata/sweep_golden.txt). The cells
// run two at a time on worker goroutines, as the sweep service runs them.
func TestSweepPayloadGolden(t *testing.T) {
	const path = "testdata/sweep_golden.txt"
	want := readGolden(t, path)
	reqs := sweepGoldenRequests()
	names := make([]string, 0, len(reqs))
	for name := range reqs {
		names = append(names, name)
	}
	digests := make([]string, len(names))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				payload, err := sweep.Simulate(context.Background(), reqs[names[i]])
				if err != nil {
					t.Errorf("%s: %v", names[i], err)
				}
				sum := sha256.Sum256(payload)
				digests[i] = hex.EncodeToString(sum[:])
			}
		}()
	}
	for i := range names {
		next <- i
	}
	close(next)
	wg.Wait()
	got := map[string]string{}
	for i, name := range names {
		got[name] = digests[i]
	}
	checkGolden(t, path, want, got)
}

// TestChaosGolden pins every chaos.Run outcome for seeds 0-999, plain and
// with corruption (testdata/chaos_golden.txt): one SHA-256 per seed over
// the metrics and trace exports, the elapsed time, the final group, the
// agreed sum and the typed error. The crash schedules drive every
// failure-aware wait, detection and revocation path, so a change to when
// or in what order a failed wait wakes fails here.
func TestChaosGolden(t *testing.T) {
	const path = "testdata/chaos_golden.txt"
	want := readGolden(t, path)
	got := map[string]string{}
	for _, corrupt := range []bool{false, true} {
		kind := "plain"
		if corrupt {
			kind = "corrupt"
		}
		for seed := uint64(0); seed < 1000; seed++ {
			h := sha256.New()
			res, err := chaos.Run(chaos.Options{Seed: seed, Corrupt: corrupt})
			if err != nil {
				fmt.Fprintf(h, "run error: %v\n", err)
			} else {
				h.Write(res.Metrics)
				h.Write(res.Trace)
				fmt.Fprintf(h, "\nelapsed %d\ngroup %v\nsum %v\nerr %v\n",
					res.Elapsed, res.FinalGroup, res.Sum, res.Err)
			}
			got[fmt.Sprintf("%s/%d", kind, seed)] = hex.EncodeToString(h.Sum(nil))
		}
	}
	checkGolden(t, path, want, got)
}

// TestNetPowerGolden pins the rendered ext-netpower experiment at a small
// scale (testdata/netpower_golden.txt): it is the one output that runs
// the link sleep timers.
func TestNetPowerGolden(t *testing.T) {
	const path = "testdata/netpower_golden.txt"
	spec, ok := experiments.Lookup("ext-netpower")
	if !ok {
		t.Fatal("ext-netpower not registered")
	}
	res, err := spec.Run(experiments.Options{Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	res.Render(&buf)
	sum := sha256.Sum256(buf.Bytes())
	checkGolden(t, path, readGolden(t, path), map[string]string{
		"ext-netpower/scale0.05": hex.EncodeToString(sum[:]),
	})
}
