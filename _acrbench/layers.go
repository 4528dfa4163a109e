package main

// perLayerCommon prints and returns the per-layer metrics every workload
// reports, each per operation of the traced run: the layers the sweep
// evaluator stack runs on every workload, the runtime's allocation and GC
// cost, and the tracing overhead and unexplained share. The names match
// the per_layer list in BENCHMARK.json.
func perLayerCommon(rep *report, led *ledger, overhead float64, dropped uint64,
	unexplained, allocsPerUnit, gcRatio float64) map[string]metric {
	ops := float64(led.ops)
	if ops == 0 {
		ops = 1
	}
	lay := led.layers()
	st := led.stages
	m := map[string]metric{
		"ir.lower.count":          {led.count["dse.lower"] / ops, "count"},
		"ir.lower.busy_ms":        {led.busy["dse.lower"] * 1e3 / ops, "ms"},
		"perf.term.count":         {st["ir.backend"].count / ops, "count"},
		"perf.term.busy_ms":       {st["ir.backend"].sec * 1e3 / ops, "ms"},
		"sim.simulate.count":      {led.count["sim.simulate"] / ops, "count"},
		"sim.simulate.self_ms":    {lay["sim"] * 1e3 / ops, "ms"},
		"dse.sweep.count":         {led.count["dse.sweep"] / ops, "count"},
		"dse.sweep.self_ms":       {led.share["dse.sweep"] * 1e3 / ops, "ms"},
		"dse.evaluate.self_ms":    {(lay["dse"] - led.share["dse.sweep"]) * 1e3 / ops, "ms"},
		"batch.sweep.count":       {led.count["dse.batch"] / ops, "count"},
		"store.get.count":         {(st["store.get.mem"].count + st["store.get.disk"].count) / ops, "count"},
		"store.get.busy_ms":       {led.storeGetSec() * 1e3 / ops, "ms"},
		"store.put.busy_ms":       {led.storePutSec() * 1e3 / ops, "ms"},
		"runtime.allocs_per_unit": {allocsPerUnit, "count"},
		"runtime.gc_cpu_ratio":    {gcRatio, "ratio"},
		"obs.overhead_ratio":      {overhead, "ratio"},
		"obs.dropped_spans":       {float64(dropped), "count"},
		"unexplained_ratio":       {unexplained, "ratio"},
	}
	rep.printf("per-layer metrics (per operation of the traced run):")
	for _, n := range perLayerOrder {
		rep.named(n, m[n].Value, m[n].Unit)
	}
	rep.named("batch.sweep.self_ms", led.share["dse.batch"]*1e3/ops, "ms")
	return m
}

var perLayerOrder = []string{
	"ir.lower.count", "ir.lower.busy_ms", "perf.term.count", "perf.term.busy_ms",
	"sim.simulate.count", "sim.simulate.self_ms", "dse.sweep.count", "dse.sweep.self_ms",
	"dse.evaluate.self_ms", "batch.sweep.count", "store.get.count", "store.get.busy_ms",
	"store.put.busy_ms", "runtime.allocs_per_unit", "runtime.gc_cpu_ratio",
	"obs.overhead_ratio", "obs.dropped_spans", "unexplained_ratio",
}

// notApplicable prints a per-layer metric group that has no meaning on
// the current workload.
func notApplicable(rep *report, names, why string) {
	rep.printf("  %-36s %14s (%s)", names, "n/a", why)
}
