package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
)

// digests.json holds, per simulation workload and input variant, the
// simulated output of one timed iteration (or of the whole world for a
// single-iteration workload): simulated time, cluster energy and the
// world's message statistics. A change that only speeds up the host side
// of the simulator must leave every one of them unchanged. Regenerate it
// from a known-good commit with:
//
//	python3 perfbench/run.py --record-digests
//
//go:embed digests.json
var digestsJSON []byte

var digests = func() map[string][]iterOutput {
	m := map[string][]iterOutput{}
	if err := json.Unmarshal(digestsJSON, &m); err != nil {
		panic(fmt.Sprintf("perfbench: malformed digests.json: %v", err))
	}
	return m
}()

func lookupDigest(name string, variant int) (iterOutput, bool) {
	ds := digests[name]
	if variant >= len(ds) {
		return iterOutput{}, false
	}
	return ds[variant], true
}

// recordDigests simulates every variant of every simulation workload once
// and writes the outputs to path. Within a world every timed iteration
// must repeat the same output, or the workload cannot be checked this way.
func recordDigests(path string) error {
	out := map[string][]iterOutput{}
	for _, s := range simSpecs {
		for v := 0; v < nVariants; v++ {
			recs, _, err := s.runWorld(s.gen(v), nil, "record")
			if err != nil {
				return fmt.Errorf("%s variant %d: %w", s.name, v, err)
			}
			for _, r := range recs[1:] {
				if !r.out.matches(recs[0].out) {
					return fmt.Errorf("%s variant %d: iterations differ: %+v vs %+v", s.name, v, r.out, recs[0].out)
				}
			}
			for _, r := range recs {
				if r.failed > 0 {
					return fmt.Errorf("%s variant %d: %d calls failed", s.name, v, r.failed)
				}
			}
			out[s.name] = append(out[s.name], recs[0].out)
			logf("recorded %s variant %d: %+v", s.name, v, recs[0].out)
		}
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
