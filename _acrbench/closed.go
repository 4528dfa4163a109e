package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/dse"
	"repro/internal/ir"
	"repro/internal/model"
	"repro/internal/obs"
)

// The closed-loop runner shared by the in-process workloads (sweep and
// search): one caller runs rounds of generated operations back to back and
// times each one; every output is checked after the window.

// closedLoop describes one closed-loop workload.
type closedLoop[Op any] struct {
	name        string                // workload name; also names its input streams
	round       func(*rand.Rand) []Op // next round; every round has the same mix of kinds
	run         func(context.Context, Op) opResult
	spans       func(Op) int // recorder capacity that holds every span of one operation
	traceRounds int
}

// opResult is what one operation leaves for the checks and the timings.
type opResult struct {
	label     string // names the operation in report lines
	large     bool
	units     int         // designs or evaluations produced
	points    []dse.Point // sampled for the bit check and hashed into the digest
	w         model.Workload
	proposals int    // search only
	short     string // non-empty: how the operation fell short of its budget
	sec       float64
	err       error
}

const (
	digestRounds = 2 // the digest covers exactly the first rounds
	samplePoints = 4 // points per operation re-evaluated by the bit check
	// stealMax is the share of wanted CPU time the hypervisor may take
	// from a round before the round is left out of the timings.
	stealMax = 0.05
)

// loopStats is a timed closed-loop run after its checks.
type loopStats struct {
	attempted, failed, short int
	small, large, all        []float64 // latencies in ms of the timed operations
	units, busy              float64   // Σ units and Σ seconds of the timed operations
	steal                    float64   // share of wanted CPU time stolen in the window
	leftOut, rounds          int       // rounds left out for stolen time, of all rounds
	dig                      digest
}

// warmUp runs one untimed round so that lazy initialisation and heap
// growth are done before the window.
func (l closedLoop[Op]) warmUp(seed uint64) error {
	for _, op := range l.round(newRNG(seed, l.name+".warmup")) {
		if r := l.run(context.Background(), op); r.err != nil {
			return fmt.Errorf("%s warm-up: %w", l.name, r.err)
		}
	}
	return nil
}

// timed runs rounds until the window ends (at least digestRounds) and
// checks every operation. A round from which the hypervisor stole more
// than stealMax of the CPU time is checked but left out of the timings,
// unless that would leave less than half of the timed work.
func (l closedLoop[Op]) timed(o options, rep *report) (loopStats, error) {
	if err := l.warmUp(o.seed); err != nil {
		return loopStats{}, err
	}
	type timedOp struct {
		opResult
		sample []sampled
		stolen bool
	}
	rng := newRNG(o.seed, l.name+".ops")
	pick := newRNG(o.seed, l.name+".sample")
	st := loopStats{dig: newDigest()}
	var ops []timedOp
	steal := stealShare()
	end := deadline(o.seconds)
	for ; st.rounds < digestRounds || time.Now().Before(end); st.rounds++ {
		roundSteal := stealShare()
		first := len(ops)
		for _, op := range l.round(rng) {
			r := timedOp{opResult: l.run(context.Background(), op)}
			for _, i := range sampleIndices(len(r.points), samplePoints, pick.IntN) {
				r.sample = append(r.sample, sample(r.points[i]))
			}
			if st.rounds < digestRounds {
				for _, p := range r.points {
					st.dig.point(p)
				}
			}
			r.points = nil
			ops = append(ops, r)
		}
		if roundSteal() > stealMax {
			st.leftOut++
			for i := first; i < len(ops); i++ {
				ops[i].stolen = true
			}
		}
	}
	st.steal = steal()

	var stolenSec, allSec float64
	for _, r := range ops {
		allSec += r.sec
		if r.stolen {
			stolenSec += r.sec
		}
	}
	if stolenSec > allSec/2 {
		rep.printf("  %d of %d rounds had more than %.0f%% of their CPU time stolen; timing all rounds",
			st.leftOut, st.rounds, 100*stealMax)
		st.leftOut = 0
		for i := range ops {
			ops[i].stolen = false
		}
	}
	for _, r := range ops {
		st.attempted++
		err := r.err
		if err == nil {
			var g ir.Graph
			if g, err = ir.Lower(r.w); err == nil {
				err = checkSample(r.sample, g)
			}
		}
		if err != nil {
			st.failed++
			rep.printf("  FAILED %s: %v", r.label, err)
			continue
		}
		if r.short != "" {
			st.short++
			rep.printf("  SHORT %s: %s", r.label, r.short)
		}
		if r.stolen {
			continue
		}
		lat := r.sec * 1e3
		st.all = append(st.all, lat)
		if r.large {
			st.large = append(st.large, lat)
		} else {
			st.small = append(st.small, lat)
		}
		st.units += float64(r.units)
		st.busy += r.sec
	}
	if len(st.small) == 0 || len(st.large) == 0 {
		return st, fmt.Errorf("%s: no successful timed operation in a class", l.name)
	}
	return st, nil
}

// report prints what every closed-loop run reports and returns the
// end-to-end metrics. thrName is the workload's name for units per second.
func (st loopStats) report(rep *report, name, thrName string, setupS float64) outcome {
	rss := peakRSSMB()
	thr := st.units / st.busy
	rep.printf("%s: %d operations (%d small and %d large timed), digest %s (first %d rounds)",
		name, st.attempted, len(st.small), len(st.large), st.dig, digestRounds)
	rep.named("setup_s", setupS, "s")
	rep.named("host.steal_share", st.steal, "ratio")
	rep.named("rounds_left_out", float64(st.leftOut), "count")
	rep.named("peak_rss_mb", rss, "MB")
	rep.named("failed_ratio", float64(st.failed)/float64(st.attempted), "ratio")
	rep.named(thrName, thr, "1/s")
	rep.named(name+"_p50_ms", median(st.all), "ms")
	rep.named(name+"_p90_ms", quantile(st.all, 0.9), "ms")
	return outcome{
		attempted: st.attempted,
		failed:    st.failed,
		metrics: endToEnd(setupS, rss, thr,
			median(st.small), quantile(st.small, 0.9), median(st.large), quantile(st.large, 0.9)),
	}
}

// endToEnd assembles the end-to-end metric set every workload reports.
func endToEnd(setupS, rss, thr, smallP50, smallTail, largeP50, largeTail float64) map[string]metric {
	return map[string]metric{
		"setup_s":          {setupS, "s"},
		"peak_rss_mb":      {rss, "MB"},
		"throughput_per_s": {thr, "1/s"},
		"small_p50_ms":     {smallP50, "ms"},
		"small_tail_ms":    {smallTail, "ms"},
		"large_p50_ms":     {largeP50, "ms"},
		"large_tail_ms":    {largeTail, "ms"},
	}
}

// traceTotals sums a traced closed-loop run.
type traceTotals struct {
	led               *ledger
	attempted, failed int
	units, proposals  float64 // over the untraced passes
	metrics           map[string]metric
}

// traced is the per-layer run: a fixed number of rounds, each operation
// run once untraced and once under its own recorder big enough to hold
// every span, alternating which goes first.
func (l closedLoop[Op]) traced(o options, rep *report, unit string) (traceTotals, error) {
	if err := l.warmUp(o.seed); err != nil {
		return traceTotals{}, err
	}
	rng := newRNG(o.seed, l.name+".trace")
	t := traceTotals{led: newLedger()}
	var plain, traced float64 // Σ seconds of the untraced and traced passes
	var dropped uint64
	var rt runtimeSample // Σ runtime deltas over the untraced passes
	for round := 0; round < l.traceRounds; round++ {
		for k, op := range l.round(rng) {
			t.attempted++
			rec := obs.NewRecorder(l.spans(op))
			runTraced := func() (float64, error) {
				r := l.run(obs.WithRecorder(context.Background(), rec), op)
				return r.sec, r.err
			}
			var label string
			runPlain := func() (float64, error) {
				before := sampleRuntime()
				r := l.run(context.Background(), op)
				label = r.label
				rt.add(before, sampleRuntime())
				t.units += float64(r.units)
				t.proposals += float64(r.proposals)
				return r.sec, r.err
			}
			tSec, pSec, err := runPair((round+k)%2 == 0, runTraced, runPlain)
			if err != nil {
				t.failed++
				rep.printf("  FAILED %s: %v", label, err)
				continue
			}
			plain += pSec
			traced += tSec
			dropped += rec.Dropped()
			t.led.addSpans(rec.Spans(), nil)
			t.led.addStages(stageSums(rec.StageStats()))
			t.led.e2e += tSec
			t.led.ops++
		}
	}
	allocsPerUnit, gcRatio := rt.perUnit(t.units)
	rep.printf("%s traced run: %d operations in %d rounds", l.name, t.led.ops, l.traceRounds)
	unexplained := t.led.print(rep, "operation", nil)
	t.metrics = perLayerCommon(rep, t.led, traced/plain, dropped, unexplained, allocsPerUnit, gcRatio)
	rep.named("runtime.allocs_per_"+unit, allocsPerUnit, "count")
	return t, nil
}

// outcome is the traced run's result line.
func (t traceTotals) outcome() outcome {
	return outcome{attempted: t.attempted, failed: t.failed, metrics: t.metrics}
}
