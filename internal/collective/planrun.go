package collective

import (
	"fmt"
	"strconv"

	"pacc/internal/model"
	"pacc/internal/mpi"
	"pacc/internal/plan"
	"pacc/internal/topology"
)

// This file glues the schedule-IR layer (internal/plan) into the
// collective entry points: deriving the communicator view builders need,
// resolving which builder runs a call (canonical, forced by name, or
// cost-model auto-selection), and executing the built plan with the
// caller's trace and power options.

// viewOf derives the SPMD-congruent communicator shape a plan builder
// consumes. Every rank computes the identical view, so every rank builds
// the identical plan.
func viewOf(c *mpi.Comm) plan.View {
	p := c.Size()
	v := plan.View{P: p, NodeOf: make([]int, p), SocketA: make([]bool, p)}
	for cr := 0; cr < p; cr++ {
		v.NodeOf[cr] = c.NodeOf(cr)
		v.SocketA[cr] = c.SocketOf(cr) == topology.SocketA
	}
	return v
}

// planSpec translates call options into a build spec.
func planSpec(bytes int64, sizeOf func(src, dst int) int64, opt Options) plan.Spec {
	return plan.Spec{
		Bytes:     bytes,
		SizeOf:    sizeOf,
		FreqScale: opt.Power == FreqScaling || opt.Power == Proposed,
		Phased:    opt.Power == Proposed,
		DeepT:     opt.deepT(),
		Verify:    opt.Verify,
	}
}

// planCacheKey fingerprints one (purpose, name, communicator, spec)
// build so congruent calls can share the result. BuildNamed is a pure
// function of (name, view, spec), and the view is itself a pure function
// of the communicator's group and the world's fixed placement — so the
// communicator's O(1) ShapeKey stands in for the O(P) view content, and
// any two calls with equal keys produce identical plans: the same
// logical communicator seen from different ranks (SPMD congruence), and
// the same call repeated across iterations. Spec.SizeOf is a function
// and cannot be fingerprinted; callers must bypass the cache when it is
// set.
func planCacheKey(purpose, name string, c *mpi.Comm, s plan.Spec) string {
	shape := c.ShapeKey()
	buf := make([]byte, 0, 48+len(purpose)+len(name)+len(shape))
	buf = append(buf, purpose...)
	buf = append(buf, '|')
	buf = append(buf, name...)
	buf = append(buf, '|')
	buf = append(buf, shape...)
	buf = append(buf, '|')
	buf = strconv.AppendInt(buf, s.Bytes, 10)
	buf = append(buf, '|')
	buf = strconv.AppendInt(buf, int64(s.Root), 10)
	buf = append(buf, '|')
	buf = strconv.AppendBool(buf, s.FreqScale)
	buf = append(buf, '|')
	buf = strconv.AppendBool(buf, s.Phased)
	buf = append(buf, '|')
	buf = strconv.AppendInt(buf, int64(s.DeepT), 10)
	buf = append(buf, '|')
	buf = strconv.AppendBool(buf, s.Verify)
	return string(buf)
}

// buildCached returns the named plan for c's view, building it at most
// once per world for each distinct (name, communicator shape, spec):
// the first caller builds, every congruent call — every other rank of
// the communicator, and every later iteration — reuses the stored plan.
// Without this, each of P ranks builds the full P-rank schedule on
// every call, an O(P² log P)-step allocation storm that dominated
// large-rank runs. The view itself is only derived on a cache miss
// (it, too, is O(P) per call, which at 64k ranks is a second quadratic).
// Plans are immutable after build, so sharing is safe; builds consume
// no virtual time, so caching cannot perturb simulated timing.
func buildCached(c *mpi.Comm, name string, spec plan.Spec) (*plan.Plan, error) {
	if spec.SizeOf != nil {
		return plan.BuildNamed(name, viewOf(c), spec)
	}
	key := planCacheKey("plan", name, c, spec)
	stash := c.World().Stash()
	if cached, ok := stash[key]; ok {
		return cached.(*plan.Plan), nil
	}
	p, err := plan.BuildNamed(name, viewOf(c), spec)
	if err != nil {
		return nil, err
	}
	stash[key] = p
	return p, nil
}

// runPlanned resolves, builds and executes the plan of one collective
// call. canonical is the builder that reproduces the entry point's
// historical schedule; opt.Plan may override it with "auto" (cost-model
// selection over the family's registered candidates) or an explicit
// builder name.
func runPlanned(c *mpi.Comm, family, canonical string, spec plan.Spec, opt Options) error {
	name := canonical
	switch opt.Plan {
	case "", canonical:
	case PlanAuto:
		selected, err := selectCached(c, family, spec, opt.PlanObjective)
		if err != nil {
			return err
		}
		name = selected
	default:
		b, ok := plan.Lookup(opt.Plan)
		if !ok {
			return fmt.Errorf("collective: unknown plan builder %q", opt.Plan)
		}
		if b.Op != family {
			return fmt.Errorf("collective: plan builder %q implements %s, not %s", opt.Plan, b.Op, family)
		}
		name = opt.Plan
	}
	p, err := buildCached(c, name, spec)
	if err != nil {
		return err
	}
	return execPlan(c, p, opt)
}

// selectCached memoizes cost-based plan selection per world: the
// selection prices every candidate (each a full build), so repeating it
// on every rank of every call multiplies the build storm by the
// candidate count. Selection is a pure function of (config, view,
// family, spec, objective), and config is fixed per world.
func selectCached(c *mpi.Comm, family string, spec plan.Spec, objective PlanObjective) (string, error) {
	if spec.SizeOf != nil {
		return SelectPlanName(c.World().Config(), viewOf(c), family, spec, objective)
	}
	key := planCacheKey("sel"+strconv.Itoa(int(objective)), family, c, spec)
	stash := c.World().Stash()
	if cached, ok := stash[key]; ok {
		return cached.(string), nil
	}
	name, err := SelectPlanName(c.World().Config(), viewOf(c), family, spec, objective)
	if err != nil {
		return "", err
	}
	stash[key] = name
	return name, nil
}

// execPlan runs a built plan with the caller's options.
func execPlan(c *mpi.Comm, p *plan.Plan, opt Options) error {
	return plan.Execute(p, plan.Env{
		Comm:              c,
		ReduceBytesPerSec: reduceBytesPerSec,
		OnPhase:           opt.Trace.Add,
	})
}

// SelectPlanName prices every registered candidate of a collective
// family with the analytical model and returns the cheapest under the
// given objective. Candidates that cannot build for this view (e.g. a
// recursive-doubling schedule on a non-power-of-two communicator) are
// skipped. This is the paper's message-size switchover logic as data: the
// crossover points fall out of the cost model instead of living in
// hard-coded if-chains.
func SelectPlanName(cfg mpi.Config, v plan.View, family string, spec plan.Spec, objective PlanObjective) (string, error) {
	params := model.FromConfig(cfg)
	best := ""
	var bestCost float64
	for _, b := range plan.Candidates(family) {
		p, err := b.Build(v, spec)
		if err != nil {
			continue
		}
		pc := params.PredictPlan(p.ComputeStats())
		cost := pc.Seconds
		if objective == SelectByEnergy {
			cost = pc.Joules
		}
		if best == "" || cost < bestCost {
			best, bestCost = b.Name, cost
		}
	}
	if best == "" {
		return "", fmt.Errorf("collective: no applicable plan builder for family %q at %d ranks", family, v.P)
	}
	return best, nil
}
