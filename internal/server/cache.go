package server

import (
	"math"

	"repro/internal/dse"
	"repro/internal/ir"
	"repro/internal/model"
	"repro/internal/store"
)

// cacheShards spreads the shared point cache over enough
// locks that the worker pool and synchronous handlers don't serialise on
// lookups.
const cacheShards = 32

// newPointCache builds the shared evaluated-point cache used by every
// simulation the server runs, synchronous or queued. Keys are dse.PointKey
// addresses (the IR content hashes of config and workload), so identical
// (config, workload) pairs — whatever endpoint or grid they arrive through,
// and whatever display names they carry — are simulated once.
func newPointCache(entries int) *store.Memory[dse.Point] {
	return dse.NewPointStore(entries, cacheShards)
}

// dseJobKey fingerprints one sweep job for the queue's coalescing flight:
// identical grids over the same workload with the same post-processing
// (rule, objective, top, eval) share one execution. Every Grid axis folds
// into the key — acrlint's memokey analyzer enforces it, because this
// function returns a store.Key — and the workload folds in via its IR
// content hash; grid and workload display names are deliberately absent,
// so renamed but otherwise identical sweeps still coalesce.
func dseJobKey(g dse.Grid, w model.Workload, rule, objective string, top int, eval string) store.Key {
	hi := newJobHash().
		f64(g.TPPTarget).
		ints(g.SystolicDims).
		ints(g.LanesPerCore).
		ints(g.L1KB).
		ints(g.L2MB).
		f64s(g.HBMBandwidthGBs).
		f64s(g.DeviceBWGBs).
		int(g.HBMCapacityGB).
		f64(g.ClockGHz)
	lo := newJobHash().
		u64(ir.WorkloadHash(w)).
		str(rule).
		str(objective).
		int(top).
		str(eval)
	return store.Key{Hi: uint64(hi), Lo: uint64(lo)}
}

// jobHash accumulates FNV-1a over a job fingerprint's constituents.
// Length prefixes keep slice and string boundaries unambiguous.
type jobHash uint64

func newJobHash() jobHash { return 14695981039346656037 }

func (h jobHash) u64(v uint64) jobHash {
	for i := 0; i < 8; i++ {
		h ^= jobHash(byte(v >> (8 * i)))
		h *= 1099511628211
	}
	return h
}

func (h jobHash) f64(v float64) jobHash { return h.u64(math.Float64bits(v)) }

func (h jobHash) int(v int) jobHash { return h.u64(uint64(int64(v))) }

func (h jobHash) ints(vs []int) jobHash {
	h = h.int(len(vs))
	for _, v := range vs {
		h = h.int(v)
	}
	return h
}

func (h jobHash) f64s(vs []float64) jobHash {
	h = h.int(len(vs))
	for _, v := range vs {
		h = h.f64(v)
	}
	return h
}

func (h jobHash) str(s string) jobHash {
	h = h.int(len(s))
	for i := 0; i < len(s); i++ {
		h ^= jobHash(s[i])
		h *= 1099511628211
	}
	return h
}
