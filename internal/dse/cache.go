package dse

import (
	"context"
	"reflect"
	"time"

	"repro/internal/arch"
	"repro/internal/ir"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/store"
)

// PointKey returns the content address of one evaluation: the IR content
// hashes of the configuration (display name excluded) and the workload.
// It is total — no lowering or validation — so arbitrary inputs are
// safe, and it is checked by acrlint's memokey analyzer: every tracked
// field of both parameters must fold into the key.
func PointKey(cfg arch.Config, w model.Workload) store.Key {
	return store.Key{Hi: ir.ConfigHash(cfg), Lo: ir.WorkloadHash(w)}
}

// NewPointStore returns the point cache the explorer and the serving
// layer share: a store.Memory LRU keyed by PointKey (non-positive
// shards = the store's default of 16), sized in entries and
// byte-accounted with a deep Point sizer.
func NewPointStore(entries, shards int) *store.Memory[Point] {
	return store.NewMemorySized(entries, shards, pointSize)
}

// cacheGet probes e.Cache, timing the probe into the store.get.mem stage
// when ctx carries a recorder.
func (e *Explorer) cacheGet(ctx context.Context, k store.Key) (Point, bool) {
	rec := obs.RecorderFrom(ctx)
	if rec == nil {
		return e.Cache.Get(k)
	}
	t0 := time.Now()
	p, ok := e.Cache.Get(k)
	rec.Observe("store.get.mem", time.Since(t0))
	return p, ok
}

// cachePut stores p in e.Cache, timing the write into the store.put.mem
// stage when ctx carries a recorder.
func (e *Explorer) cachePut(ctx context.Context, k store.Key, p Point) {
	rec := obs.RecorderFrom(ctx)
	if rec == nil {
		e.Cache.Put(k, p)
		return
	}
	t0 := time.Now()
	e.Cache.Put(k, p)
	rec.Observe("store.put.mem", time.Since(t0))
}

var (
	pointStaticSize = int(reflect.TypeOf(Point{}).Size())
	timeStaticSize  = int(reflect.TypeOf(perf.Time{}).Size())
)

// pointSize deep-estimates one point's resident bytes for the memory
// tier's accounting: the struct itself plus the op slices and name
// strings it points at.
func pointSize(p Point) int {
	n := pointStaticSize +
		len(p.Config.Name) + len(p.Result.Config.Name) + len(p.Result.Workload.Model.Name)
	for i := range p.Result.PrefillOps {
		n += timeStaticSize + len(p.Result.PrefillOps[i].Name)
	}
	for i := range p.Result.DecodeOps {
		n += timeStaticSize + len(p.Result.DecodeOps[i].Name)
	}
	return n
}
