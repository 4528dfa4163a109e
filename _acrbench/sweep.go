package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/dse"
	"repro/internal/model"
)

// The sweep workload: a closed loop with one caller, in-process. Each
// operation is one fresh dse.NewExplorer().RunContext over one grid — what
// one acrdse run does. Operations come in rounds of five grid kinds, so
// every run has the same mix whatever the seed: two 512-design Table 3
// sweeps (one device bandwidth; the "small" class) and two 1536-design
// Table 3 sweeps (three device bandwidths) plus one 2304-design Table 5
// sweep (the "large" class). The seed draws each Table 3 sweep's TPP from
// the paper's 1600–4800 range and each workload's batch size, so no grid
// repeats and every result-store lookup misses.

// sweepOp is one generated sweep.
type sweepOp struct {
	grid  dse.Grid
	w     model.Workload
	large bool
}

var sweepBatches = []int{16, 32, 64}

// sweepRound draws the next round of five operations.
func sweepRound(rng *rand.Rand) []sweepOp {
	tpp := func() float64 { return 1600 + float64(rng.IntN(3201)) }
	wl := func(m model.Model) model.Workload {
		w := model.PaperWorkload(m)
		w.Batch = sweepBatches[rng.IntN(len(sweepBatches))]
		return w
	}
	one := []float64{600}
	three := []float64{500, 700, 900}
	t5 := model.GPT3_175B()
	if rng.IntN(2) == 1 {
		t5 = model.Llama3_8B()
	}
	return []sweepOp{
		{grid: dse.Table3(tpp(), one), w: wl(model.GPT3_175B())},
		{grid: dse.Table3(tpp(), one), w: wl(model.Llama3_8B())},
		{grid: dse.Table3(tpp(), three), w: wl(model.GPT3_175B()), large: true},
		{grid: dse.Table3(tpp(), three), w: wl(model.Llama3_8B()), large: true},
		{grid: dse.Table5(), w: wl(t5), large: true},
	}
}

const sweepTraceRounds = 3

var sweepLoop = closedLoop[sweepOp]{
	name:  "sweep",
	round: sweepRound,
	run:   runSweepOp,
	// ~4 spans per design on the scalar path
	spans:       func(op sweepOp) int { return 8*op.grid.Size() + 256 },
	traceRounds: sweepTraceRounds,
}

// runSweepOp runs one operation the way acrdse does, on a fresh explorer,
// and checks the point count outside the timing.
func runSweepOp(ctx context.Context, op sweepOp) opResult {
	start := time.Now()
	pts, err := dse.NewExplorer().RunContext(ctx, op.grid, op.w)
	r := opResult{label: op.grid.Name, large: op.large, units: len(pts), points: pts, w: op.w,
		sec: time.Since(start).Seconds(), err: err}
	if n := len(op.grid.Expand()); err == nil && len(pts) != n {
		r.err = fmt.Errorf("%d points, grid expands to %d", len(pts), n)
	}
	return r
}

func runSweep(o options, rep *report) (outcome, error) {
	if o.trace {
		t, err := sweepLoop.traced(o, rep, "design")
		if err != nil {
			return outcome{}, err
		}
		notApplicable(rep, "search.*", "no search layer in this workload")
		notApplicable(rep, "server.*, loadgen.*", "no server in this workload")
		rep.absent("perf.memo.hit_ratio", "read from /metrics; serve workload only")
		return t.outcome(), nil
	}
	setupS, err := coldSetup(o.workload)
	if err != nil {
		return outcome{}, err
	}
	st, err := sweepLoop.timed(o, rep)
	if err != nil {
		return outcome{}, err
	}
	out := st.report(rep, "sweep", "sweep_designs_per_s", setupS)
	rep.named("repeat_share", 0, "ratio")
	return out, nil
}
