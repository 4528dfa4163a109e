package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/dse"
	"repro/internal/model"
	"repro/internal/search"
)

// The search workload: a closed loop with one caller, in-process. Each
// operation is one search.Runner.Run with a fresh runner (so a fresh
// explorer), as `acrdse -engine` does, at budget 384. Operations come in
// rounds of six — nsga2, anneal and pattern on the paper's Table 3 space
// (the "small" class: a 512-design space at a seeded TPP) and on the
// jan2025 quantity-cap lattice (the "large" class: ~5e10 designs) — each
// with an engine seed and a workload derived from the benchmark seed.

const (
	searchBudget      = 384
	searchTraceRounds = 2
)

var searchEngines = []string{"nsga2", "anneal", "pattern"}

type searchOp struct {
	engine string
	prob   search.Problem
	seed   uint64
	large  bool
}

func searchRound(rng *rand.Rand) []searchOp {
	var ops []searchOp
	for _, large := range []bool{false, true} {
		for _, eng := range searchEngines {
			m := model.GPT3_175B()
			if rng.IntN(2) == 1 {
				m = model.Llama3_8B()
			}
			w := model.PaperWorkload(m)
			op := searchOp{engine: eng, seed: rng.Uint64() | 1, large: large}
			if large {
				op.prob = search.Jan2025Problem(w)
			} else {
				tpp := 1600 + float64(rng.IntN(3201))
				op.prob = search.Problem{
					Space:      search.FromGrid(dse.Table3(tpp, []float64{600})),
					Workload:   w,
					Objectives: search.ObjectivesLatencyArea(),
				}
			}
			ops = append(ops, op)
		}
	}
	return ops
}

var searchLoop = closedLoop[searchOp]{
	name:        "search",
	round:       searchRound,
	run:         runSearchOp,
	spans:       func(searchOp) int { return 1 << 15 },
	traceRounds: searchTraceRounds,
}

// runSearchOp runs one adaptive search with a fresh runner and engine and
// checks its outcome outside the timing.
func runSearchOp(ctx context.Context, op searchOp) opResult {
	start := time.Now()
	eng, err := search.New(op.engine, op.prob.Space, op.seed)
	var out search.Outcome
	if err == nil {
		out, err = (&search.Runner{}).Run(ctx, op.prob, eng, searchBudget, op.seed)
	}
	r := opResult{label: op.engine + " on " + op.prob.Space.Name, large: op.large, units: out.Evaluations,
		proposals: out.Proposals, w: op.prob.Workload, sec: time.Since(start).Seconds(), err: err}
	if err == nil {
		r.err = checkOutcome(out)
	}
	if out.Evaluations < searchBudget {
		r.short = fmt.Sprintf("stopped at %d of %d evaluations", out.Evaluations, searchBudget)
	}
	for _, f := range out.Front {
		r.points = append(r.points, f.Point)
	}
	return r
}

// checkOutcome verifies what can be read off one outcome directly: the
// budget is a hard cap and the front is feasible and non-dominated.
// Sampled front points are re-evaluated after the window (checkSample).
//
// The runner documents two ways to stop short of the budget — the engine
// proposes nothing, or 64 generations in a row find no new design — so a
// short run is counted and reported (shortOfBudget), not failed.
func checkOutcome(out search.Outcome) error {
	if out.Evaluations <= 0 || out.Evaluations > searchBudget {
		return fmt.Errorf("%d evaluations, budget %d", out.Evaluations, searchBudget)
	}
	for i, a := range out.Front {
		if !a.Feasible {
			return fmt.Errorf("front member %d is infeasible", i)
		}
		for j, b := range out.Front {
			if i != j && dominates(b.Objs, a.Objs) {
				return fmt.Errorf("front member %d dominates member %d", j, i)
			}
		}
	}
	return nil
}

// dominates reports a ≤ b on every objective and < on one.
func dominates(a, b []float64) bool {
	strict := false
	for k := range a {
		if a[k] > b[k] {
			return false
		}
		if a[k] < b[k] {
			strict = true
		}
	}
	return strict
}

func runSearch(o options, rep *report) (outcome, error) {
	if o.trace {
		t, err := searchLoop.traced(o, rep, "eval")
		if err != nil {
			return outcome{}, err
		}
		led, ops := t.led, float64(t.led.ops)
		rep.named("search.generation.count", led.count["search.generation"]/ops, "count")
		rep.named("search.generation.self_ms", led.share["search.generation"]*1e3/ops, "ms")
		rep.named("search.evaluate.self_ms", led.share["search.evaluate"]*1e3/ops, "ms")
		rep.named("search.run.self_ms", led.share["search.run"]*1e3/ops, "ms")
		if t.proposals > 0 {
			rep.named("search.evals_per_proposal", t.units/t.proposals, "ratio")
		}
		notApplicable(rep, "server.*, loadgen.*", "no server in this workload")
		rep.absent("perf.memo.hit_ratio", "read from /metrics; serve workload only")
		return t.outcome(), nil
	}
	setupS, err := coldSetup(o.workload)
	if err != nil {
		return outcome{}, err
	}
	st, err := searchLoop.timed(o, rep)
	if err != nil {
		return outcome{}, err
	}
	out := st.report(rep, "search", "search_evals_per_s", setupS)
	rep.named("search.short_of_budget", float64(st.short), "count")
	return out, nil
}
