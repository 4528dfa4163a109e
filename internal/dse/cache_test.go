package dse_test

import (
	"context"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/dse"
	"repro/internal/golden"
	"repro/internal/model"
	"repro/internal/obs"
)

// cacheGrid mirrors the internal tests' small grid: 16 designs.
func cacheGrid() dse.Grid {
	return dse.Grid{
		Name:            "cache-test",
		TPPTarget:       4800,
		SystolicDims:    []int{16},
		LanesPerCore:    []int{2, 4},
		L1KB:            []int{192, 1024},
		L2MB:            []int{32, 64},
		HBMBandwidthGBs: []float64{2000, 3200},
		DeviceBWGBs:     []float64{600},
		HBMCapacityGB:   80,
		ClockGHz:        1.41,
	}
}

// spanCounts tallies the recorder's sim.simulate spans and its
// dse.evaluate spans by cache attribute, failing the test if the ring
// dropped any span (the counts would then undercount).
func spanCounts(t *testing.T, rec *obs.Recorder) (sims int, cache map[string]int) {
	t.Helper()
	if d := rec.Dropped(); d != 0 {
		t.Fatalf("recorder dropped %d spans; raise its capacity", d)
	}
	cache = make(map[string]int)
	for _, sp := range rec.Spans() {
		switch sp.Name {
		case "sim.simulate":
			sims++
		case "dse.evaluate":
			for _, a := range sp.Attrs {
				if a.Key == "cache" {
					cache[a.Value.(string)]++
				}
			}
		}
	}
	return sims, cache
}

// TestCacheMissesEqualSimulations pins the accounting the server's
// per-job cache deltas rely on: the point cache's Misses equal the
// simulations actually run, on a cold sweep (every design simulated) and
// on a warm one (none).
func TestCacheMissesEqualSimulations(t *testing.T) {
	ex := dse.NewExplorer()
	w := model.PaperWorkload(model.Llama3_8B())
	g := cacheGrid()
	unique := g.Size()

	for _, tc := range []struct {
		name       string
		wantMisses int
	}{{"cold", unique}, {"warm", 0}} {
		rec := obs.NewRecorder(1 << 14)
		ctx := obs.WithRecorder(context.Background(), rec)
		before := ex.Cache.Stats()
		if _, err := ex.RunContext(ctx, g, w); err != nil {
			t.Fatal(err)
		}
		after := ex.Cache.Stats()
		misses := int(after.Misses - before.Misses)
		hits := int(after.Hits - before.Hits)
		sims, cache := spanCounts(t, rec)
		if misses != sims {
			t.Errorf("%s: cache counted %d misses but %d simulations ran", tc.name, misses, sims)
		}
		if misses != tc.wantMisses || hits != unique-tc.wantMisses {
			t.Errorf("%s: %d misses, %d hits; want %d misses over %d designs",
				tc.name, misses, hits, tc.wantMisses, unique)
		}
		if cache["miss"] != misses || cache["hit"] != hits {
			t.Errorf("%s: dse.evaluate spans %v disagree with %d misses, %d hits",
				tc.name, cache, misses, hits)
		}
	}
}

// TestConcurrentIdenticalSweepsBitIdentical runs the same grid from many
// goroutines over one shared explorer. Concurrent sweeps may both miss on
// a design and both simulate it, but every sweep must return the same
// points bit for bit, and the cache's Misses must still equal the
// simulations actually run.
func TestConcurrentIdenticalSweepsBitIdentical(t *testing.T) {
	const sweeps = 8
	rec := obs.NewRecorder(1 << 16)
	ctx := obs.WithRecorder(context.Background(), rec)
	ex := dse.NewExplorer()
	w := model.PaperWorkload(model.Llama3_8B())
	g := cacheGrid()
	unique := g.Size()

	var wg sync.WaitGroup
	pts := make([][]dse.Point, sweeps)
	errs := make([]error, sweeps)
	for i := 0; i < sweeps; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pts[i], errs[i] = ex.RunContext(ctx, g, w)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < sweeps; i++ {
		for _, d := range golden.DiffPointsExact(pts[0], pts[i]) {
			t.Errorf("sweep %d: %s", i, d)
		}
	}

	st := ex.Cache.Stats()
	sims, cache := spanCounts(t, rec)
	if st.Misses != uint64(sims) {
		t.Errorf("cache counted %d misses but %d simulations ran", st.Misses, sims)
	}
	if st.Hits+st.Misses != uint64(sweeps*unique) {
		t.Errorf("%d hits + %d misses, want %d lookups", st.Hits, st.Misses, sweeps*unique)
	}
	if sims < unique || sims > sweeps*unique {
		t.Errorf("%d simulations for %d unique designs over %d sweeps", sims, unique, sweeps)
	}
	if cache["miss"] != sims {
		t.Errorf("dse.evaluate spans %v disagree with %d simulations", cache, sims)
	}
	if st.Len != unique {
		t.Errorf("cache holds %d points, want the %d unique designs", st.Len, unique)
	}
}

// TestWarmHitSweepAllocsFlatInDesigns pins the memory tier's per-probe
// cost: a warm explorer's all-hit sweep allocates per sweep (lowering,
// the result slice, the worker pool), never per design. The 512-design
// and 1536-design Table 3 sweeps must therefore allocate the same count.
func TestWarmHitSweepAllocsFlatInDesigns(t *testing.T) {
	ex := dse.NewExplorer()
	w := model.PaperWorkload(model.Llama3_8B())
	allocs := func(cfgs []arch.Config) float64 {
		if _, err := ex.Evaluate(cfgs, w); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := ex.Evaluate(cfgs, w); err != nil {
				t.Fatal(err)
			}
		})
	}
	small := dse.Table3(4800, []float64{600}).Expand()
	large := dse.Table3(2400, []float64{500, 700, 900}).Expand()
	if len(small) != 512 || len(large) != 1536 {
		t.Fatalf("grids expanded to %d and %d designs, want 512 and 1536", len(small), len(large))
	}
	if a, b := allocs(small), allocs(large); a != b {
		t.Errorf("warm all-hit sweep: %v allocs at 512 designs, %v at 1536; want equal", a, b)
	}
	if st := ex.Cache.Stats(); st.Misses != uint64(len(small)+len(large)) {
		t.Errorf("cache misses = %d, want one per design (%d)", st.Misses, len(small)+len(large))
	}
}
