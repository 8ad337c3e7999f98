package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"pacc/internal/collective"
	"pacc/internal/fault"
	"pacc/internal/mpi"
	"pacc/internal/obs"
	"pacc/internal/simtime"
)

// RunFunc executes one request and returns its result payload. The
// production runner is Simulate; tests substitute crashing, hanging or
// counting runners. A RunFunc must be deterministic in req — the whole
// dedupe story rests on identical requests producing identical bytes —
// and must honor ctx (cancellation, deadline) promptly.
type RunFunc func(ctx context.Context, req Request) ([]byte, error)

// opTable maps request op names onto collective entry points.
var opTable = map[string]func(c *mpi.Comm, bytes int64, opt collective.Options) error{
	"alltoall":       collective.AlltoallPairwise,
	"bruck":          collective.AlltoallBruck,
	"allgather":      collective.Allgather,
	"allgather_ring": collective.AllgatherRing,
	"allgather_rd":   collective.AllgatherRD,
	"allreduce":      collective.Allreduce,
	"allreduce_rd":   collective.AllreduceRD,
	"allreduce_topo": collective.AllreduceTopoAware,
	"allreduce_ft": func(c *mpi.Comm, b int64, o collective.Options) error {
		_, _, err := collective.AllreduceSumFT(c, b, float64(c.Owner().ID()+1), o)
		return err
	},
	"bcast": func(c *mpi.Comm, b int64, o collective.Options) error {
		return collective.Bcast(c, 0, b, o)
	},
	"bcast_binomial": func(c *mpi.Comm, b int64, o collective.Options) error {
		return collective.BcastBinomial(c, 0, b, o)
	},
	"reduce": func(c *mpi.Comm, b int64, o collective.Options) error {
		return collective.Reduce(c, 0, b, o)
	},
	"gather": func(c *mpi.Comm, b int64, o collective.Options) error {
		return collective.Gather(c, 0, b, o)
	},
	"scatter": func(c *mpi.Comm, b int64, o collective.Options) error {
		return collective.Scatter(c, 0, b, o)
	},
}

// OpNames lists the runnable ops, sorted.
func OpNames() string {
	names := make([]string, 0, len(opTable))
	for k := range opTable {
		names = append(names, k)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

func parseMode(s string) (collective.PowerMode, error) {
	switch s {
	case "no-power", "default", "":
		return collective.NoPower, nil
	case "freq-scaling", "dvfs":
		return collective.FreqScaling, nil
	case "proposed", "power-aware":
		return collective.Proposed, nil
	default:
		return 0, fmt.Errorf("sweep: unknown power mode %q (no-power, freq-scaling, proposed)", s)
	}
}

// Result is the decoded form of a stored result payload.
type Result struct {
	Schema    string          `json:"schema"`
	Key       string          `json:"key"`
	Op        string          `json:"op"`
	ElapsedUs float64         `json:"elapsed_us"`
	EnergyJ   float64         `json:"energy_j"`
	Metrics   json.RawMessage `json:"metrics"`
}

// ResultSchema is the schema tag of result payloads.
const ResultSchema = "pacc.sweep.result/v1"

// DecodeResult parses a result payload produced by Simulate.
func DecodeResult(payload []byte) (*Result, error) {
	var r Result
	if err := json.Unmarshal(payload, &r); err != nil {
		return nil, fmt.Errorf("sweep: malformed result payload: %w", err)
	}
	if r.Schema != ResultSchema {
		return nil, fmt.Errorf("sweep: result schema %q, want %q", r.Schema, ResultSchema)
	}
	return &r, nil
}

// Simulate runs the request's simulation to completion and returns the
// deterministic result payload: elapsed virtual time, cluster energy,
// and the full metrics snapshot of an attached obs bus. The bus is
// metrics-only: nothing reads a request's timeline, so none is recorded.
// Identical requests produce byte-identical payloads; ctx aborts a
// running simulation between events with a typed mpi.CanceledError.
func Simulate(ctx context.Context, req Request) ([]byte, error) {
	return simulate(ctx, req, obs.NewMetricsBus)
}

// simulate is Simulate with the bus constructor as a parameter, so tests
// can run the same request on a bus that also records the timeline.
func simulate(ctx context.Context, req Request, newBus func(*simtime.Engine) *obs.Bus) ([]byte, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	mode, err := parseMode(req.Mode)
	if err != nil {
		return nil, err
	}
	cfg := mpi.DefaultConfig()
	cfg.NProcs = req.Procs
	cfg.PPN = req.PPN
	cfg.Topo.Nodes = req.Procs / req.PPN
	if req.Fault != "" {
		spec, err := fault.Parse(req.Fault)
		if err != nil {
			return nil, err
		}
		if req.Seed != 0 {
			spec.Seed = req.Seed
		}
		cfg.Fault = spec
	}
	iters := req.Iters
	if iters == 0 {
		iters = 1
	}
	call := opTable[req.Op]
	opt := collective.Options{Power: mode, Plan: req.Plan}

	w, err := mpi.NewWorld(cfg)
	if err != nil {
		return nil, err
	}
	bus := newBus(w.Engine())
	w.AttachObs(bus)
	// A crash-stop spec kills ranks permanently and the plain barrier
	// has no failure path: run iterations back-to-back instead (the
	// resilient collective synchronizes survivors itself).
	skipBarrier := cfg.Fault != nil && len(cfg.Fault.Crashes) > 0
	var callErr error
	w.Launch(func(r *mpi.Rank) {
		c := mpi.CommWorld(r)
		for i := 0; i < iters; i++ {
			if !skipBarrier {
				collective.Barrier(c)
			}
			if err := call(c, req.Bytes, opt); err != nil {
				if callErr == nil {
					callErr = err
				}
				return
			}
		}
	})
	elapsed, err := w.RunContext(ctx)
	if err != nil {
		return nil, err
	}
	if callErr != nil {
		return nil, callErr
	}
	var metrics bytes.Buffer
	if err := bus.WriteMetricsJSON(&metrics); err != nil {
		return nil, err
	}
	payload, err := json.Marshal(Result{
		Schema:    ResultSchema,
		Key:       req.Key().String(),
		Op:        req.Op,
		ElapsedUs: elapsed.Micros(),
		EnergyJ:   w.Station().EnergyJoules(),
		Metrics:   json.RawMessage(metrics.Bytes()),
	})
	if err != nil {
		return nil, err
	}
	return payload, nil
}
