package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"sort"
	"time"

	"repro/internal/arch"
	"repro/internal/dse"
	"repro/internal/ir"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/server"
)

// The serve workload: an open loop from one process against server.New
// with the default Config (logger discarded) on a 127.0.0.1 listener. A
// seeded Poisson schedule at fixed absolute rates drives two connections:
//
//   - sync: /v1/classify, /v1/simulate and /v1/audit requests, one at a
//     time on one connection (the "small" class);
//   - dse: /v1/dse submissions on the other connection, each followed at
//     once by GET …/stream (NDJSON) until the summary frame (the "large"
//     class).
//
// Every latency is timed from the request's due time, so a stall also
// counts against the requests queued behind it. The request mix is fixed
// whatever the seed: sync requests cycle through classify (5 in 10),
// simulate (3 in 10) and audit (2 in 10) — an assumed mix, as there is no
// record of real traffic — and two in every three DSE submissions repeat
// an earlier grid. The distinct grids fit in the default result cache, so
// repeats are served from the store. Repeats and fresh grids form two
// latency clusters; with two in three repeats the DSE p50 sits inside the
// repeat cluster and the p90 inside the fresh one, where near one half
// the p50 would jump between them from run to run. The seed draws the
// arrival times, the request contents and which grid repeats.
//
// The rates are a small share of the rates at which the server saturates
// (--saturation: each class alone, back to back on its connection). On a
// 2-vCPU x86 VM those were 5200-6500 sync requests/s and 360-455 DSE
// submissions/s, so the schedule offers about 2.5% and 1.5% of them: no
// backlog builds, and latency is service time rather than queueing, which
// on a shared VM spreads far more from run to run. The DSE rate is also
// held down by the cache-fit rule: one in three submissions is a fresh
// grid, and at most dsePoolMax distinct grids fit the cache.

const (
	syncRate    = 150.0 // sync requests per second
	dseRate     = 6.0   // DSE submissions per second
	dsePoolMax  = 96    // distinct grids at most (96 × 64 designs < 8192)
	simPoolSize = 32
	maxLag      = 10 * time.Second // requests not sent by window+maxLag fail
)

type syncReq struct {
	due   time.Duration
	kind  string // classify, simulate, audit
	path  string
	body  []byte
	class *policy.Metrics // classify oracle input
	cfg   arch.Config     // simulate/audit config
	wl    model.Workload  // simulate workload
}

type dseReq struct {
	due    time.Duration
	grid   int // index into schedule.grids
	repeat bool
}

type dseGrid struct {
	req  server.DSERequest
	body []byte
	// oracle, filled before the window
	designs    int
	admissible int
	top        []dse.Point
}

type schedule struct {
	window time.Duration
	sync   []syncReq
	dse    []dseReq
	grids  []*dseGrid
}

// poisson returns the arrival offsets of a Poisson process over window.
func poisson(rng *rand.Rand, rate float64, window time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= window {
			return out
		}
		out = append(out, d)
	}
}

// configRequest renders an arch.Config as the wire form the server
// rebuilds to the identical config.
func configRequest(c arch.Config) map[string]any {
	return map[string]any{
		"name": c.Name, "core_count": c.CoreCount, "lanes_per_core": c.LanesPerCore,
		"systolic_dim_x": c.SystolicDimX, "systolic_dim_y": c.SystolicDimY,
		"l1_kb": c.L1KB, "l2_mb": c.L2MB, "hbm_bandwidth_gbs": c.HBMBandwidthGBs,
		"device_bw_gbs": c.DeviceBWGBs,
	}
}

func pick[T any](rng *rand.Rand, xs []T) T { return xs[rng.IntN(len(xs))] }

// subset picks k of xs in their original order.
func subset[T any](rng *rand.Rand, xs []T, k int) []T {
	idx := rng.Perm(len(xs))[:k]
	sort.Ints(idx)
	out := make([]T, k)
	for i, j := range idx {
		out[i] = xs[j]
	}
	return out
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

var serveModels = []string{"gpt3", "llama3"}

// paperWorkload is the workload the server builds for {"model": name}.
func paperWorkload(name string) model.Workload {
	if name == "llama3" {
		return model.PaperWorkload(model.Llama3_8B())
	}
	return model.PaperWorkload(model.GPT3_175B())
}

var (
	syncCycle  = []string{"classify", "simulate", "classify", "audit", "classify", "simulate", "classify", "simulate", "classify", "audit"}
	dseRepeats = []bool{false, true, true}
)

// newSchedule generates the whole traffic of one window from the seed.
func newSchedule(seed uint64, window time.Duration) *schedule {
	s := &schedule{window: window}
	rng := newRNG(seed, "serve.sync")
	// The simulate/audit config pool: designs of a few Table 3 grids.
	var pool []arch.Config
	for len(pool) < simPoolSize {
		cfgs := dse.Table3(1600+float64(rng.IntN(3201)), []float64{600}).Expand()
		pool = append(pool, cfgs[rng.IntN(len(cfgs))])
	}
	for i, due := range poisson(rng, syncRate, window) {
		r := syncReq{due: due}
		switch syncCycle[i%len(syncCycle)] {
		case "classify":
			m := policy.Metrics{
				TPP:         float64(200 + rng.IntN(9800)),
				DeviceBWGBs: float64(100 * (1 + rng.IntN(12))),
				DieAreaMM2:  float64(100 + rng.IntN(800)),
			}
			r.kind, r.path, r.class = "classify", "/v1/classify", &m
			r.body = mustJSON(map[string]any{"tpp": m.TPP, "device_bw_gbs": m.DeviceBWGBs, "die_area_mm2": m.DieAreaMM2})
		case "simulate":
			r.kind, r.path, r.cfg = "simulate", "/v1/simulate", pick(rng, pool)
			mname := pick(rng, serveModels)
			r.wl = paperWorkload(mname)
			r.body = mustJSON(map[string]any{"config": configRequest(r.cfg),
				"workload": map[string]any{"model": mname}})
		default:
			r.kind, r.path, r.cfg = "audit", "/v1/audit", pick(rng, pool)
			r.body = mustJSON(map[string]any{"config": configRequest(r.cfg)})
		}
		s.sync = append(s.sync, r)
	}
	rng = newRNG(seed, "serve.dse")
	l1 := []int{192, 256, 512, 1024}
	l2 := []int{32, 48, 64, 80}
	hbm := []float64{2000, 2400, 2800, 3200}
	dev := []float64{500, 600, 700, 900}
	usedTPP := map[int]bool{}
	for i, due := range poisson(rng, dseRate, window) {
		r := dseReq{due: due}
		if dseRepeats[i%len(dseRepeats)] || len(s.grids) >= dsePoolMax {
			r.grid, r.repeat = rng.IntN(len(s.grids)), true
		} else {
			tpp := 1600 + rng.IntN(3201)
			for usedTPP[tpp] {
				tpp = 1600 + rng.IntN(3201)
			}
			usedTPP[tpp] = true
			mname := serveModels[len(s.grids)%len(serveModels)]
			req := server.DSERequest{
				Grid: &server.GridRequest{
					Name:            fmt.Sprintf("bench-%d", len(s.grids)),
					TPPTarget:       float64(tpp),
					SystolicDims:    []int{16, 32},
					LanesPerCore:    []int{1, 2, 4, 8},
					L1KB:            subset(rng, l1, 2),
					L2MB:            subset(rng, l2, 2),
					HBMBandwidthGBs: subset(rng, hbm, 2),
					DeviceBWGBs:     []float64{pick(rng, dev)},
				},
				Workload: &server.WorkloadRequest{Model: mname},
			}
			s.grids = append(s.grids, &dseGrid{req: req, body: mustJSON(req)})
			r.grid = len(s.grids) - 1
		}
		s.dse = append(s.dse, r)
	}
	return s
}

// gridOf rebuilds the dse.Grid a request names, as the server does.
func gridOf(g *server.GridRequest) dse.Grid {
	return dse.Grid{
		Name: g.Name, TPPTarget: g.TPPTarget, SystolicDims: g.SystolicDims,
		LanesPerCore: g.LanesPerCore, L1KB: g.L1KB, L2MB: g.L2MB,
		HBMBandwidthGBs: g.HBMBandwidthGBs, DeviceBWGBs: g.DeviceBWGBs,
		HBMCapacityGB: 80, ClockGHz: arch.A100ClockGHz,
	}
}

// computeOracles evaluates every distinct DSE grid on a private explorer
// and ranks it the way a DSE job with rule "none", objective "ttft" and
// top 5 does.
func (s *schedule) computeOracles() error {
	for _, g := range s.grids {
		w := paperWorkload(g.req.Workload.Model)
		ex := dse.NewExplorer()
		ex.Cache = nil
		pts, err := ex.RunContext(context.Background(), gridOf(g.req.Grid), w)
		if err != nil {
			return err
		}
		adm := dse.Filter(pts, func(p dse.Point) bool { return p.FitsReticle })
		sort.Slice(adm, func(i, j int) bool { return dse.MetricTTFT(adm[i]) < dse.MetricTTFT(adm[j]) })
		g.designs, g.admissible = len(pts), len(adm)
		g.top = append([]dse.Point(nil), adm[:min(5, len(adm))]...)
	}
	return nil
}

// prepare builds the window's schedule and precomputes every oracle.
func prepare(seed uint64, window time.Duration) (*schedule, error) {
	s := newSchedule(seed, window)
	if err := s.computeOracles(); err != nil {
		return nil, err
	}
	for _, r := range s.sync {
		if r.kind == "simulate" {
			if _, err := ir.Lower(r.wl); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

// startWarm starts a server and warms it with requests outside the
// schedule's pools.
func startWarm(traceCapacity int) (*liveServer, error) {
	ls, err := startServer(traceCapacity)
	if err != nil {
		return nil, err
	}
	if err := firstRequests(ls.base, 5); err != nil {
		ls.close()
		return nil, err
	}
	return ls, nil
}

func runServe(o options, rep *report) (outcome, error) {
	window := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		return traceServe(o, rep, window)
	}
	setupS, err := coldSetup(o.workload)
	if err != nil {
		return outcome{}, err
	}
	s, err := prepare(o.seed, window)
	if err != nil {
		return outcome{}, fmt.Errorf("serve set-up: %w", err)
	}
	ls, err := startWarm(0)
	if err != nil {
		return outcome{}, fmt.Errorf("serve set-up: %w", err)
	}
	steal := stealShare()
	res := drive(ls, s, false)
	stolen := steal()
	ls.close()
	rss := peakRSSMB()
	st := evaluateRun(s, res, rep)
	if len(st.syncLat) == 0 || len(st.dseLat) == 0 {
		return outcome{}, fmt.Errorf("serve: no successful request in a class")
	}
	// Requests per second of connection-busy time. Completed requests per
	// second of window would be the offered rate, which falls only when
	// requests fail; this ratio moves with the server's speed.
	thr := st.completed / st.busy
	hit, _ := hitRatio(res.before, res.after, "mem")
	rep.printf("serve: %d sync requests, %d dse submissions (%d distinct grids), digest %s",
		len(s.sync), len(s.dse), len(s.grids), st.dig)
	rep.named("setup_s", setupS, "s")
	rep.named("host.steal_share", stolen, "ratio")
	rep.named("peak_rss_mb", rss, "MB")
	rep.named("failed_ratio", float64(st.failed)/float64(st.attempted), "ratio")
	rep.named("sync_p50_ms", median(st.syncLat), "ms")
	rep.named("sync_p90_ms", quantile(st.syncLat, 0.9), "ms")
	rep.named("sync_p99_ms", quantile(st.syncLat, 0.99), "ms")
	rep.named("dse_first_frame_p50_ms", median(st.dseFirst), "ms")
	rep.named("dse_summary_p50_ms", median(st.dseLat), "ms")
	rep.named("dse_summary_p90_ms", quantile(st.dseLat, 0.9), "ms")
	rep.named("requests_per_busy_s", thr, "1/s")
	rep.named("loadgen.achieved_rps", st.completed/st.elapsed, "1/s")
	rep.named("repeat_share", float64(st.repeats)/float64(len(s.dse)), "ratio")
	rep.named("store.hit_ratio", hit, "ratio")
	return outcome{
		attempted: st.attempted,
		failed:    st.failed,
		metrics: endToEnd(setupS, rss, thr,
			median(st.syncLat), quantile(st.syncLat, 0.9), median(st.dseLat), quantile(st.dseLat, 0.9)),
	}, nil
}

// measureSaturation plays each class of the window's requests alone, back
// to back on its connection with no due times, and reports the rate the
// server sustains and the share of it the schedule offers.
func measureSaturation(o options, rep *report) (outcome, error) {
	s, err := prepare(o.seed, time.Duration(o.seconds*float64(time.Second)))
	if err != nil {
		return outcome{}, err
	}
	out := outcome{metrics: map[string]metric{}}
	for _, class := range []struct {
		name string
		rate float64
		only func(schedule) schedule
	}{
		{"sync", syncRate, func(s schedule) schedule { s.dse = nil; return s }},
		{"dse", dseRate, func(s schedule) schedule { s.sync = nil; return s }},
	} {
		ls, err := startWarm(0)
		if err != nil {
			return outcome{}, err
		}
		sub := class.only(*s)
		res := drive(ls, &sub, true)
		ls.close()
		st := evaluateRun(&sub, res, rep)
		out.attempted += st.attempted
		out.failed += st.failed
		sat := st.completed / st.elapsed
		rep.named(class.name+".saturation_per_s", sat, "1/s")
		rep.named(class.name+".offered_share", class.rate/sat, "ratio")
		out.metrics[class.name+".saturation_per_s"] = metric{sat, "1/s"}
	}
	return out, nil
}

// traceCapacityAll holds every span of a traced window.
const traceCapacityAll = 1 << 19

// traceServe plays the same schedule twice on fresh servers, once with
// tracing off and once with a span ring big enough to keep every span,
// and attributes the traced window's time to the layers.
func traceServe(o options, rep *report, window time.Duration) (outcome, error) {
	window /= 2
	if window < 2*time.Second {
		window = 2 * time.Second
	}
	s, err := prepare(o.seed, window)
	if err != nil {
		return outcome{}, fmt.Errorf("serve set-up: %w", err)
	}
	// Untraced pass.
	ls, err := startWarm(-1)
	if err != nil {
		return outcome{}, err
	}
	rtBefore := sampleRuntime()
	plainRes := drive(ls, s, false)
	var rt runtimeSample
	rt.add(rtBefore, sampleRuntime())
	ls.close()
	plain := evaluateRun(s, plainRes, rep)

	// Traced pass.
	if ls, err = startWarm(traceCapacityAll); err != nil {
		return outcome{}, err
	}
	rec := ls.srv.Obs()
	stagesBefore := stageSums(rec.StageStats())
	res := drive(ls, s, false)
	stages := stageDelta(stageSums(rec.StageStats()), stagesBefore)
	spans := rec.Spans()
	dropped := rec.Dropped()
	ls.close()
	st := evaluateRun(s, res, rep)

	// Split the window's spans into the two client timelines by the
	// route at the root of each trace.
	root := map[string]string{}
	for _, sp := range spans {
		if sp.Parent == "" {
			root[sp.Trace] = sp.Name
		}
	}
	var syncSpans, dseSpans []obs.SpanRecord
	routeBusy := map[string][]float64{}
	var queueWait []float64
	for _, sp := range spans {
		if sp.Start.Before(res.start) {
			continue
		}
		if isRoute(sp.Name) {
			routeBusy[sp.Name] = append(routeBusy[sp.Name], sp.DurationSec*1e3)
		}
		if sp.Name == "queue.wait" {
			queueWait = append(queueWait, sp.DurationSec*1e3)
		}
		switch r := root[sp.Trace]; {
		case r == "GET /metrics":
		case r == "POST /v1/dse" || isStreamRoute(r):
			dseSpans = append(dseSpans, sp)
		case isRoute(r):
			syncSpans = append(syncSpans, sp)
		}
	}
	all, syncLed, dseLed := newLedger(), newLedger(), newLedger()
	for _, l := range []*ledger{all, syncLed, dseLed} {
		l.addStages(stages)
	}
	syncLed.addSpans(syncSpans, nil)
	dseLed.addSpans(dseSpans, isStreamRoute)
	all.addSpans(syncSpans, nil)
	all.addSpans(dseSpans, isStreamRoute)
	syncLed.e2e, syncLed.ops = sum(st.syncLat)/1e3, len(st.syncLat)
	dseLed.e2e, dseLed.ops = sum(st.dseLat)/1e3, len(st.dseLat)
	all.e2e, all.ops = syncLed.e2e+dseLed.e2e, syncLed.ops+dseLed.ops
	syncLate, dseLate := 0.0, 0.0
	for i, r := range s.sync {
		if d := res.sync[i]; !d.skipped && d.err == nil {
			syncLate += (d.ready - r.due).Seconds()
		}
	}
	for i, r := range s.dse {
		if d := res.dse[i]; !d.skipped && d.err == nil {
			dseLate += (d.ready - r.due).Seconds()
		}
	}
	// Σ stage histograms cover both timelines; each ledger carves its
	// own spans by the window-wide ratios.
	syncLed.ratioFrom(all)
	dseLed.ratioFrom(all)
	rep.printf("serve traced run: %v per pass, %d sync requests, %d dse submissions", window, len(s.sync), len(s.dse))
	rep.printf("  sync requests (from due time):")
	syncLed.print(rep, "request", map[string]float64{"loadgen": syncLate})
	rep.printf("  dse submissions (due time to summary frame):")
	dseLed.print(rep, "submission", map[string]float64{"loadgen": dseLate})
	unexplained := all.print(rep, "request (both connections)", map[string]float64{"loadgen": syncLate + dseLate})

	overhead := (sum(st.syncLat) + sum(st.dseLat)) / (sum(plain.syncLat) + sum(plain.dseLat))
	allocsPerReq, gcRatio := rt.perUnit(plain.completed)
	m := perLayerCommon(rep, all, overhead, dropped, unexplained, allocsPerReq, gcRatio)
	rep.named("runtime.allocs_per_request", allocsPerReq, "count")
	rep.named("obs.overhead_ratio.sync_p50", median(st.syncLat)/median(plain.syncLat), "ratio")
	rep.named("obs.overhead_ratio.dse_summary_p50", median(st.dseLat)/median(plain.dseLat), "ratio")
	routes := make([]string, 0, len(routeBusy))
	for r := range routeBusy {
		routes = append(routes, r)
	}
	sort.Strings(routes)
	for _, r := range routes {
		rep.named("server.http."+r+".busy_ms", median(routeBusy[r]), "ms (p50)")
	}
	var handler float64
	for _, r := range routes {
		if !isStreamRoute(r) && r != "POST /v1/dse" && r != "GET /metrics" {
			handler += sum(routeBusy[r])
		}
	}
	if rt := sum(st.syncRT); rt > 0 {
		rep.named("server.http.overhead_ratio", (rt-handler)/rt, "ratio")
	}
	if len(queueWait) > 0 {
		rep.named("server.queue.wait_p50_ms", median(queueWait), "ms")
		rep.named("server.queue.wait_p99_ms", quantile(queueWait, 0.99), "ms")
	}
	if n := float64(dseLed.ops); n > 0 {
		rep.named("server.job.self_ms", dseLed.share["dse.job"]*1e3/n, "ms")
		rep.named("server.stream.frame.count", stages["stream.frame"].count/n, "count")
		rep.named("server.stream.frame.busy_ms", stages["stream.frame"].sec*1e3/n, "ms")
	}
	if st.designs > 0 {
		rep.named("server.stream.point_delivery_ratio", st.points/st.designs, "ratio")
	}
	rep.named("server.rejected", float64(st.rejected), "count")
	if h, ok := hitRatio(res.before, res.after, "mem"); ok {
		rep.named("store.hit_ratio", h, "ratio")
	} else {
		rep.absent("store.hit_ratio", "no mem tier in /metrics")
	}
	if h, ok := hitRatio(res.before, res.after, "perf."); ok {
		rep.named("perf.memo.hit_ratio", h, "ratio")
	} else {
		rep.absent("perf.memo.hit_ratio", "no perf.* tier in /metrics")
	}
	rep.named("loadgen.late_p99_ms", quantile(st.late, 0.99), "ms")
	rep.named("loadgen.offered_rps", float64(len(s.sync)+len(s.dse))/window.Seconds(), "1/s")
	rep.named("loadgen.achieved_rps", st.completed/st.elapsed, "1/s")
	rep.named("dse_first_frame_p50_ms", median(st.dseFirst), "ms")
	notApplicable(rep, "search.*", "no search layer in this workload")
	return outcome{attempted: st.attempted + plain.attempted, failed: st.failed + plain.failed, metrics: m}, nil
}
