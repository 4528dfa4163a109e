package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"
	"time"

	"repro/internal/dse"
	"repro/internal/ir"
	"repro/internal/model"
)

// TestMain lets the test binary serve as its own set-up probe, as the
// benchmark binary does (see coldSetup).
func TestMain(m *testing.M) {
	if w := os.Getenv(setupEnv); w != "" {
		if err := setupProbe(w); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// benchmarkSpec is the part of BENCHMARK.json the self-test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestShortRunsEmitEveryMetric runs every workload briefly, timed and
// traced, and checks each emits exactly the metrics BENCHMARK.json names,
// with their units, and that every output check passes.
func TestShortRunsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := loadSpec(t)
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			run, ok := workloads[w.Name]
			if !ok {
				t.Fatalf("BENCHMARK.json names workload %q, which the benchmark lacks", w.Name)
			}
			out, err := run(options{workload: w.Name, seed: 7, seconds: 2, trace: traced}, &report{})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			if out.attempted < 1 || out.failed != 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed", w.Name, traced, out.failed, out.attempted)
			}
			if len(out.metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", w.Name, traced, len(out.metrics), len(want))
			}
			for _, m := range want {
				got, ok := out.metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: %s unit %q, want %q", w.Name, traced, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%v: %s = %v", w.Name, traced, m.Name, got.Value)
				}
			}
		}
	}
}

// TestFlippedBitFailsSweepCheck pins the output check's sensitivity: one
// flipped bit in any compared float of a sampled point must fail it.
func TestFlippedBitFailsSweepCheck(t *testing.T) {
	w := model.PaperWorkload(model.Llama3_8B())
	pts, err := dse.NewExplorer().RunContext(context.Background(), dse.Table3(2400, []float64{600}), w)
	if err != nil {
		t.Fatal(err)
	}
	g, err := ir.Lower(w)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSample([]sampled{sample(pts[3]), sample(pts[200])}, g); err != nil {
		t.Fatalf("unmodified sample fails: %v", err)
	}
	flips := map[string]func(p *dse.Point){
		"TTFTSeconds": func(p *dse.Point) { flip(&p.Result.TTFTSeconds) },
		"AreaMM2":     func(p *dse.Point) { flip(&p.AreaMM2) },
		"DieCostUSD":  func(p *dse.Point) { flip(&p.DieCostUSD) },
		"decode op":   func(p *dse.Point) { flip(&p.Result.DecodeOps[2].DRAMSeconds) },
	}
	for name, f := range flips {
		bad := clonePoint(pts[200])
		f(&bad)
		if err := checkSample([]sampled{sample(pts[3]), sample(bad)}, g); err == nil {
			t.Errorf("flipping one bit of %s passed the check", name)
		}
	}
}

// TestFlippedBitFailsDSESummaryCheck does the same for the serve
// workload's DSE summary oracle.
func TestFlippedBitFailsDSESummaryCheck(t *testing.T) {
	s := newSchedule(5, time.Second)
	if err := s.computeOracles(); err != nil {
		t.Fatal(err)
	}
	g := s.grids[0]
	frame := func(ttft float64) []byte {
		top := make([]map[string]any, len(g.top))
		for i, p := range g.top {
			top[i] = map[string]any{"rank": i + 1, "config": p.Config.Name, "ttft_ms": p.TTFT() * 1e3,
				"tbt_ms": p.TBT() * 1e3, "area_mm2": p.AreaMM2, "performance_density": p.PD,
				"die_cost_usd": p.DieCostUSD}
		}
		top[0]["ttft_ms"] = ttft
		return mustJSON(map[string]any{"type": "summary", "seq": 1, "status": map[string]any{
			"id": "job-000001", "state": "succeeded", "result": map[string]any{
				"designs": g.designs, "admissible": g.admissible, "top": top}}})
	}
	good := g.top[0].TTFT() * 1e3
	if err := checkDSE(g, dseDone{frames: [][]byte{frame(good)}}); err != nil {
		t.Fatalf("oracle summary fails its own check: %v", err)
	}
	bad := good
	flip(&bad)
	if err := checkDSE(g, dseDone{frames: [][]byte{frame(bad)}}); err == nil {
		t.Error("a summary with one flipped bit passed the check")
	}
}

func flip(v *float64) { *v = math.Float64frombits(math.Float64bits(*v) ^ 1) }

func clonePoint(p dse.Point) dse.Point {
	p.Result.PrefillOps = append(p.Result.PrefillOps[:0:0], p.Result.PrefillOps...)
	p.Result.DecodeOps = append(p.Result.DecodeOps[:0:0], p.Result.DecodeOps...)
	return p
}
