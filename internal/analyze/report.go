package analyze

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"pacc/internal/power"
	"pacc/internal/stats"
)

// SchemaVersion identifies the report JSON shape.
const SchemaVersion = "pacc.analyze.report/v1"

// Options tunes one analysis.
type Options struct {
	// ODVFSUs and OThrottleUs are the one-way switch latencies (µs) used
	// as the feasibility filter on harvestable slack: a wait shorter
	// than the round trip (2×) cannot be harvested by that mechanism.
	// Zero selects the default power model's constants.
	ODVFSUs     float64
	OThrottleUs float64
	// PerCall includes the per-call detail records in the report
	// (off by default: aggregates usually suffice and stay small).
	PerCall bool
}

func (o Options) withDefaults() Options {
	m := power.DefaultModel()
	if o.ODVFSUs == 0 {
		o.ODVFSUs = m.ODVFS.Micros()
	}
	if o.OThrottleUs == 0 {
		o.OThrottleUs = m.OThrottle.Micros()
	}
	return o
}

// Digest summarizes a value distribution (µs) with count, mean and
// percentiles (nearest-rank).
type Digest struct {
	Count  int     `json:"count"`
	MeanUs float64 `json:"mean_us"`
	P50Us  float64 `json:"p50_us"`
	P90Us  float64 `json:"p90_us"`
	P99Us  float64 `json:"p99_us"`
	MaxUs  float64 `json:"max_us"`
}

// digestOf maps the shared stats.Digest onto the report's µs-suffixed
// wire shape, rounding to keep report bytes stable across platforms.
func digestOf(vals []float64) Digest {
	d := stats.DigestOf(vals)
	if d.Count == 0 {
		return Digest{}
	}
	return Digest{
		Count:  d.Count,
		MeanUs: round3(d.Mean),
		P50Us:  round3(d.P50),
		P90Us:  round3(d.P90),
		P99Us:  round3(d.P99),
		MaxUs:  round3(d.Max),
	}
}

// RankShare is one rank's share of critical-path work.
type RankShare struct {
	Rank   int     `json:"rank"`
	WorkUs float64 `json:"work_us"`
}

// RankSlack is one rank's communication slack: total wait time, and the
// portions harvestable by DVFS or throttling after paying the
// round-trip switch cost.
type RankSlack struct {
	Rank              int     `json:"rank"`
	SlackUs           float64 `json:"slack_us"`
	HarvestDVFSUs     float64 `json:"harvest_dvfs_us"`
	HarvestThrottleUs float64 `json:"harvest_throttle_us"`
}

// CallReport is the per-call detail of one collective call instance.
type CallReport struct {
	StartUs      float64     `json:"start_us"`
	EndUs        float64     `json:"end_us"`
	LatencyUs    float64     `json:"latency_us"`
	CriticalRank int         `json:"critical_rank"`
	Critical     []RankShare `json:"critical"`
	Slack        []RankSlack `json:"slack"`
}

// CollectiveReport aggregates all calls of one collective operation.
type CollectiveReport struct {
	Op    string `json:"op"`
	Calls int    `json:"calls"`
	// Bytes is the per-rank size when uniform across calls, else -1.
	Bytes   int64  `json:"bytes"`
	Latency Digest `json:"latency"`
	// CriticalRank is the rank with the largest critical-path work share
	// summed over all calls — the rank that bounds completion.
	CriticalRank int         `json:"critical_rank"`
	Critical     []RankShare `json:"critical"`
	// Slack is per-rank wait time inside the op, summed over calls.
	Slack []RankSlack `json:"slack"`
	// SlackDigest is the distribution of per-rank-per-call slack.
	SlackDigest Digest       `json:"slack_digest"`
	PerCall     []CallReport `json:"per_call,omitempty"`
}

// Report is the full analysis output ("pacc.analyze.report/v1").
type Report struct {
	Schema      string             `json:"schema"`
	Ranks       int                `json:"ranks"`
	SpanUs      float64            `json:"span_us"`
	Collectives []CollectiveReport `json:"collectives"`
	// RunCriticalRank / RunCritical are the whole-run backward walk from
	// the last activity in the trace.
	RunCriticalRank int         `json:"run_critical_rank"`
	RunCritical     []RankShare `json:"run_critical"`
	// RankSlack is whole-run per-rank wait time.
	RankSlack   []RankSlack   `json:"rank_slack"`
	Energy      []PhaseEnergy `json:"energy"`
	TotalJoules float64       `json:"total_joules"`
}

// Analysis pairs a report with the critical-path markings needed to
// annotate the trace it came from.
type Analysis struct {
	Report *Report
	model  *Model
	// crit marks Model.Events indices on a critical path.
	crit map[int]bool
}

// Analyze runs the full engine over the model: per-collective-call and
// whole-run critical paths, per-rank slack with switch-cost filtering,
// phase × power-state energy attribution, and latency/slack digests.
// The output is deterministic: identical event streams produce
// byte-identical reports.
func (m *Model) Analyze(opt Options) *Analysis {
	opt = opt.withDefaults()
	rep := &Report{Schema: SchemaVersion, SpanUs: round3(m.endUs)}
	a := &Analysis{Report: rep, model: m, crit: map[int]bool{}}

	ranks := m.rankIDs()
	rep.Ranks = len(ranks)

	// --- Per-collective calls -------------------------------------------
	ops := map[string][][]opSpan{} // op → per-rank span lists, rank order
	for _, r := range ranks {
		for _, sp := range m.ranks[r].ops {
			if ops[sp.op] == nil {
				ops[sp.op] = make([][]opSpan, len(ranks))
			}
		}
	}
	for ri, r := range ranks {
		for _, sp := range m.ranks[r].ops {
			ops[sp.op][ri] = append(ops[sp.op][ri], sp)
		}
	}
	opNames := make([]string, 0, len(ops))
	for op := range ops {
		opNames = append(opNames, op)
	}
	sort.Strings(opNames)

	for _, op := range opNames {
		perRank := ops[op]
		calls := 0
		for _, list := range perRank {
			if len(list) > calls {
				calls = len(list)
			}
		}
		cr := CollectiveReport{Op: op, Bytes: -2}
		var latencies, slackVals []float64
		critSum := map[int]float64{}
		slackSum := map[int]*RankSlack{}
		for k := 0; k < calls; k++ {
			// SPMD grouping: the k-th occurrence of op on every rank is
			// one call instance.
			var members []opSpan
			for _, list := range perRank {
				if k < len(list) {
					members = append(members, list[k])
				}
			}
			if len(members) == 0 {
				continue
			}
			cr.Calls++
			start, end, last := members[0].start, members[0].end, members[0].rank
			for _, sp := range members {
				if sp.start < start {
					start = sp.start
				}
				if sp.end > end || (sp.end == end && sp.rank < last) {
					end, last = sp.end, sp.rank
				}
				if cr.Bytes == -2 {
					cr.Bytes = sp.bytes
				} else if cr.Bytes != sp.bytes {
					cr.Bytes = -1
				}
			}
			latencies = append(latencies, end-start)

			cw := m.walkCritical(last, start, end)
			callCritRank := argmaxShare(cw.workUs)
			for r, w := range cw.workUs {
				critSum[r] += w
			}
			for _, idx := range cw.waitIdx {
				a.crit[idx] = true
			}
			var callDetail CallReport
			for _, sp := range members {
				total, dv, th := m.slackIn(sp.rank, sp.start, sp.end, opt.ODVFSUs, opt.OThrottleUs)
				slackVals = append(slackVals, total)
				rs := slackSum[sp.rank]
				if rs == nil {
					rs = &RankSlack{Rank: sp.rank}
					slackSum[sp.rank] = rs
				}
				rs.SlackUs += total
				rs.HarvestDVFSUs += dv
				rs.HarvestThrottleUs += th
				if opt.PerCall {
					callDetail.Slack = append(callDetail.Slack, RankSlack{
						Rank: sp.rank, SlackUs: round3(total),
						HarvestDVFSUs: round3(dv), HarvestThrottleUs: round3(th),
					})
				}
				if cw.workUs[sp.rank] > 0 {
					a.crit[sp.idx] = true
				}
			}
			if opt.PerCall {
				callDetail.StartUs = round3(start)
				callDetail.EndUs = round3(end)
				callDetail.LatencyUs = round3(end - start)
				callDetail.CriticalRank = callCritRank
				callDetail.Critical = sharesOf(cw.workUs)
				cr.PerCall = append(cr.PerCall, callDetail)
			}
		}
		if cr.Bytes == -2 {
			cr.Bytes = -1
		}
		cr.Latency = digestOf(latencies)
		cr.SlackDigest = digestOf(slackVals)
		cr.CriticalRank = argmaxShare(critSum)
		cr.Critical = sharesOf(critSum)
		for _, r := range sortedKeys(slackSum) {
			rs := slackSum[r]
			cr.Slack = append(cr.Slack, RankSlack{
				Rank: r, SlackUs: round3(rs.SlackUs),
				HarvestDVFSUs:     round3(rs.HarvestDVFSUs),
				HarvestThrottleUs: round3(rs.HarvestThrottleUs),
			})
		}
		rep.Collectives = append(rep.Collectives, cr)
	}

	// --- Whole-run critical path ----------------------------------------
	lastRank, lastEnd := -1, 0.0
	for _, r := range ranks {
		rt := m.ranks[r]
		for _, sp := range rt.ops {
			if sp.end > lastEnd {
				lastEnd, lastRank = sp.end, r
			}
		}
		for _, w := range rt.waits {
			if w.end > lastEnd {
				lastEnd, lastRank = w.end, r
			}
		}
	}
	if lastRank >= 0 {
		cw := m.walkCritical(lastRank, 0, lastEnd)
		rep.RunCriticalRank = argmaxShare(cw.workUs)
		rep.RunCritical = sharesOf(cw.workUs)
		for _, idx := range cw.waitIdx {
			a.crit[idx] = true
		}
	} else {
		rep.RunCriticalRank = -1
	}

	// --- Whole-run slack -------------------------------------------------
	for _, r := range ranks {
		total, dv, th := m.slackIn(r, 0, m.endUs, opt.ODVFSUs, opt.OThrottleUs)
		rep.RankSlack = append(rep.RankSlack, RankSlack{
			Rank: r, SlackUs: round3(total),
			HarvestDVFSUs: round3(dv), HarvestThrottleUs: round3(th),
		})
	}

	// --- Energy ----------------------------------------------------------
	rep.Energy, rep.TotalJoules = m.energyByPhase()
	return a
}

// Write emits the report as deterministic indented JSON.
func (r *Report) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadReport parses a report produced by Write. A document whose schema
// is missing or not SchemaVersion is rejected: Diff skips unmatched
// collectives, so a foreign file would otherwise compare as clean.
func ReadReport(rd io.Reader) (*Report, error) {
	var r Report
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return nil, err
	}
	if r.Schema != SchemaVersion {
		return nil, fmt.Errorf("analyze: report schema %q, want %q", r.Schema, SchemaVersion)
	}
	return &r, nil
}

// argmaxShare returns the rank with the largest work share (lowest rank
// on ties; -1 when empty).
func argmaxShare(work map[int]float64) int {
	best, bestW := -1, 0.0
	for _, r := range sortedKeysF(work) {
		if w := work[r]; best < 0 || w > bestW {
			best, bestW = r, w
		}
	}
	return best
}

func sharesOf(work map[int]float64) []RankShare {
	out := make([]RankShare, 0, len(work))
	for _, r := range sortedKeysF(work) {
		if w := round3(work[r]); w > 0 {
			out = append(out, RankShare{Rank: r, WorkUs: w})
		}
	}
	return out
}

func sortedKeysF(m map[int]float64) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

func sortedKeys(m map[int]*RankSlack) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// round3 rounds microseconds to nanosecond precision — the simulator's
// native resolution — so reports stay tidy and deterministic.
func round3(us float64) float64 { return math.Round(us*1e3) / 1e3 }

// roundJ rounds joules to nanojoule precision.
func roundJ(j float64) float64 { return math.Round(j*1e9) / 1e9 }
