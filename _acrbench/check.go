package main

import (
	"fmt"
	"math"

	"repro/internal/arch"
	"repro/internal/area"
	"repro/internal/cost"
	"repro/internal/dse"
	"repro/internal/ir"
	"repro/internal/perf"
	"repro/internal/policy"
	"repro/internal/sim"
)

// The output checks run outside the timed window. A point is correct when
// every float field is bit-identical to an independent reference: a fresh
// scalar simulator on a freshly lowered graph, plus the area, cost and
// policy models applied directly.

// sampleIndices draws k distinct indices in [0,n) from rng, in draw order.
func sampleIndices(n, k int, pick func(int) int) []int {
	if k > n {
		k = n
	}
	seen := make(map[int]bool, k)
	out := make([]int, 0, k)
	for len(out) < k {
		i := pick(n)
		if !seen[i] {
			seen[i] = true
			out = append(out, i)
		}
	}
	return out
}

// referencePoint evaluates p's configuration independently of the
// explorer, its caches and its evaluator choice.
func referencePoint(cfg arch.Config, g ir.Graph) (dse.Point, error) {
	r, err := sim.New().SimulateGraph(cfg, g)
	if err != nil {
		return dse.Point{}, err
	}
	a := area.Estimate(cfg)
	tpp := cfg.TPP()
	ref := dse.Point{
		Config:      cfg,
		Result:      r,
		TPP:         tpp,
		AreaMM2:     a,
		PD:          area.PerformanceDensity(tpp, a, cfg.Process),
		FitsReticle: area.FitsReticle(a),
		Oct2023Class: policy.Oct2023(policy.Metrics{
			TPP: tpp, DeviceBWGBs: cfg.DeviceBWGBs, DieAreaMM2: a, Segment: policy.DataCenter,
		}),
	}
	if rep, err := cost.N7Wafer.Analyze(a); err == nil {
		ref.DieCostUSD, ref.GoodDieCostUSD = rep.DieCostUSD, rep.GoodDieUSD
	}
	return ref, nil
}

// sampled is what the timed loop keeps of one sampled point: its
// configuration and the hash of every compared field.
type sampled struct {
	cfg  arch.Config
	bits digest
}

func sample(p dse.Point) sampled { return sampled{cfg: p.Config, bits: pointBits(p)} }

// pointBits hashes every float of a point — the simulated profile down to
// each operator's time and work, and the derived area, cost and policy
// fields — so that one flipped bit anywhere changes it.
func pointBits(p dse.Point) digest {
	d := newDigest()
	d.str(fmt.Sprintf("%+v", p.Config))
	d.point(p)
	d.word(uint64(p.Oct2023Class))
	if p.FitsReticle {
		d.word(1)
	}
	for _, phase := range [][]perf.Time{p.Result.PrefillOps, p.Result.DecodeOps} {
		d.word(uint64(len(phase)))
		for _, t := range phase {
			d.str(t.Name)
			for _, v := range []float64{t.Seconds, t.ComputeSeconds, t.DRAMSeconds, t.CommSeconds, t.FLOPs, t.DRAMBytes} {
				d.float(v)
			}
			if t.FeedLimited {
				d.word(1)
			}
		}
	}
	return d
}

// checkSample re-evaluates the sampled points and reports the first one
// whose bits differ from its reference, or nil when all are identical.
func checkSample(samples []sampled, g ir.Graph) error {
	for _, s := range samples {
		ref, err := referencePoint(s.cfg, g)
		if err != nil {
			return fmt.Errorf("reference for %s: %w", s.cfg.Name, err)
		}
		if pointBits(ref) != s.bits {
			return fmt.Errorf("%s: result bits differ from the reference evaluation", s.cfg.Name)
		}
	}
	return nil
}

// digest folds float bits into a running FNV-1a hash. It depends only on
// results, never on timing, so it is identical across speed-only changes.
type digest uint64

func newDigest() digest { return 14695981039346656037 }

func (d *digest) word(v uint64) {
	for i := 0; i < 8; i++ {
		*d ^= digest(v & 0xff)
		*d *= 1099511628211
		v >>= 8
	}
}

func (d *digest) float(v float64) { d.word(math.Float64bits(v)) }

func (d *digest) str(s string) {
	for i := 0; i < len(s); i++ {
		*d ^= digest(s[i])
		*d *= 1099511628211
	}
	d.word(uint64(len(s)))
}

func (d *digest) point(p dse.Point) {
	d.str(p.Config.Name)
	for _, v := range []float64{p.Result.TTFTSeconds, p.Result.TBTSeconds, p.Result.PrefillMFU,
		p.Result.DecodeMFU, p.TPP, p.AreaMM2, p.PD, p.DieCostUSD, p.GoodDieCostUSD} {
		d.float(v)
	}
}

func (d digest) String() string { return fmt.Sprintf("%016x", uint64(d)) }
