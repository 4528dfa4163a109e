package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// The ledger splits end-to-end wall time over the program's layers from
// the spans and stage histograms the program records. A span's self time
// is the wall time during which it is running and none of its children
// is; when several such leaf spans run at once (the sweep's parallel
// workers), each gets an equal share of that instant. The shares of one
// operation therefore add up to the wall time its spans cover, and the
// rest of the end-to-end time is "unexplained". Work recorded only as a
// stage histogram (perf term fills, result-store probes) is carved out of
// its enclosing span's self time in proportion to its busy time there.

// stageSum is a stage histogram's sample count and total seconds.
type stageSum struct {
	count float64
	sec   float64
}

func stageSums(st []obs.StageStats) map[string]stageSum {
	out := make(map[string]stageSum, len(st))
	for _, s := range st {
		out[s.Stage] = stageSum{count: float64(s.Count), sec: s.MeanSec * float64(s.Count)}
	}
	return out
}

// stageDelta subtracts an earlier snapshot of the same recorder.
func stageDelta(after, before map[string]stageSum) map[string]stageSum {
	out := make(map[string]stageSum, len(after))
	for k, a := range after {
		b := before[k]
		out[k] = stageSum{count: a.count - b.count, sec: a.sec - b.sec}
	}
	return out
}

// ledger accumulates span attribution over many operations.
type ledger struct {
	ops     int
	e2e     float64            // Σ end-to-end seconds of the operations
	share   map[string]float64 // wall-time self share per span name
	busy    map[string]float64 // Σ span durations per span name
	count   map[string]float64 // spans per span name
	evalSim float64            // Σ sim.simulate durations nested in dse.evaluate
	stages  map[string]stageSum
	carve   *carving // nil: carve by this ledger's own busy times
}

// carving is the share of sim-phase self time spent in perf term fills
// and of dse.evaluate self time spent in result-store calls.
type carving struct{ perf, store float64 }

func (l *ledger) carving() carving {
	if l.carve != nil {
		return *l.carve
	}
	ratio := func(part, whole float64) float64 {
		if whole <= 0 || part <= 0 {
			return 0
		}
		return min(part/whole, 1)
	}
	return carving{
		perf:  ratio(l.stages["ir.backend"].sec, l.busy["sim.prefill"]+l.busy["sim.decode"]),
		store: ratio(l.storeGetSec()+l.storePutSec(), l.busy["dse.evaluate"]-l.evalSim),
	}
}

// ratioFrom carves this ledger's spans with another ledger's ratios — for
// a ledger over part of a window whose stage histograms cover all of it.
func (l *ledger) ratioFrom(o *ledger) {
	c := o.carving()
	l.carve = &c
}

func newLedger() *ledger {
	return &ledger{
		share:  map[string]float64{},
		busy:   map[string]float64{},
		count:  map[string]float64{},
		stages: map[string]stageSum{},
	}
}

// addStages adds stage-histogram totals recorded during the operations.
func (l *ledger) addStages(st map[string]stageSum) {
	for k, v := range st {
		s := l.stages[k]
		s.count += v.count
		s.sec += v.sec
		l.stages[k] = s
	}
}

// addSpans attributes one timeline's spans. background spans (a stream
// handler blocked on its job) only receive time when no other span runs.
func (l *ledger) addSpans(spans []obs.SpanRecord, background func(name string) bool) {
	n := len(spans)
	if n == 0 {
		return
	}
	idx := make(map[string]int, n)
	for i, s := range spans {
		idx[s.Span] = i
	}
	parent := make([]int, n)
	children := make([][]int, n)
	for i, s := range spans {
		parent[i] = -1
		if p, ok := idx[s.Parent]; ok && s.Parent != "" {
			parent[i] = p
			children[p] = append(children[p], i)
		}
		d := s.DurationSec
		l.busy[s.Name] += d
		l.count[s.Name]++
		if s.Name == "sim.simulate" && parent[i] >= 0 && spans[parent[i]].Name == "dse.evaluate" {
			l.evalSim += d
		}
	}
	type event struct {
		at    time.Time
		span  int
		start bool
	}
	events := make([]event, 0, 2*n)
	for i, s := range spans {
		end := s.Start.Add(time.Duration(s.DurationSec * float64(time.Second)))
		events = append(events, event{s.Start, i, true}, event{end, i, false})
	}
	sort.Slice(events, func(a, b int) bool {
		if !events[a].at.Equal(events[b].at) {
			return events[a].at.Before(events[b].at)
		}
		return !events[a].start && events[b].start // ends first
	})
	active := make([]bool, n)
	kids := make([]int, n) // active children
	leaves := map[int]bool{}
	bgLeaves := map[int]bool{}
	setLeaf := func(i int, on bool) {
		m := leaves
		if background != nil && background(spans[i].Name) {
			m = bgLeaves
		}
		if on {
			m[i] = true
		} else {
			delete(m, i)
		}
	}
	for e := 0; e < len(events); e++ {
		ev := events[e]
		i := ev.span
		if ev.start {
			active[i] = true
			for _, c := range children[i] {
				if active[c] {
					kids[i]++
				}
			}
			if kids[i] == 0 {
				setLeaf(i, true)
			}
			if p := parent[i]; p >= 0 && active[p] {
				kids[p]++
				setLeaf(p, false)
			}
		} else if active[i] {
			active[i] = false
			setLeaf(i, false)
			if p := parent[i]; p >= 0 && active[p] {
				kids[p]--
				if kids[p] == 0 {
					setLeaf(p, true)
				}
			}
		}
		if e+1 == len(events) {
			break
		}
		dt := events[e+1].at.Sub(ev.at).Seconds()
		if dt <= 0 {
			continue
		}
		set := leaves
		if len(set) == 0 {
			set = bgLeaves
		}
		for j := range set {
			l.share[spans[j].Name] += dt / float64(len(set))
		}
	}
}

// isRoute reports whether a span name is an acrserve route ("POST /v1/dse").
func isRoute(name string) bool { return strings.Contains(name, " /") }

func isStreamRoute(name string) bool { return isRoute(name) && strings.HasSuffix(name, "/stream") }

// layers folds the span shares into the repository's layers, in seconds.
func (l *ledger) layers() map[string]float64 {
	out := map[string]float64{}
	c := l.carving()
	perfShare := (l.share["sim.prefill"] + l.share["sim.decode"]) * c.perf
	storeShare := l.share["dse.evaluate"] * c.store
	for name, v := range l.share {
		switch {
		case name == "dse.lower":
			out["ir"] += v
		case name == "sim.simulate", name == "sim.prefill", name == "sim.decode":
			out["sim"] += v
		case name == "dse.sweep", name == "dse.evaluate":
			out["dse"] += v
		case name == "dse.batch":
			out["batch"] += v
		case strings.HasPrefix(name, "search."):
			out["search"] += v
		case name == "queue.wait":
			out["server.queue"] += v
		case name == "dse.job":
			out["server.job"] += v
		case isStreamRoute(name):
			out["server.stream"] += v
		case isRoute(name):
			out["server.http"] += v
		default:
			out["other"] += v
		}
	}
	out["sim"] -= perfShare
	out["perf"] += perfShare
	out["dse"] -= storeShare
	out["store"] += storeShare
	return out
}

func (l *ledger) storeGetSec() float64 {
	return l.stages["store.get.mem"].sec + l.stages["store.get.disk"].sec
}
func (l *ledger) storePutSec() float64 {
	return l.stages["store.put.mem"].sec + l.stages["store.put.disk"].sec
}

// ledgerOrder is the print order of the layers.
var ledgerOrder = []string{"loadgen", "server.http", "server.queue", "server.job", "server.stream",
	"search", "dse", "batch", "store", "ir", "sim", "perf", "other"}

// print writes the "end to end = Σ layer self + unexplained" line, per
// operation, and returns the unexplained share of end to end.
func (l *ledger) print(rep *report, unit string, extra map[string]float64) float64 {
	lay := l.layers()
	for k, v := range extra {
		lay[k] += v
	}
	per := 1.0
	if l.ops > 0 {
		per = float64(l.ops)
	}
	var explained float64
	line := ""
	for _, k := range ledgerOrder {
		v, ok := lay[k]
		if !ok {
			continue
		}
		explained += v
		line += " + " + k + " " + fmtMS(v/per)
	}
	unexplained := l.e2e - explained
	ratio := 0.0
	if l.e2e > 0 {
		ratio = unexplained / l.e2e
	}
	rep.printf("  ledger per %s: end to end %s =%s + unexplained %s (%.1f%%)",
		unit, fmtMS(l.e2e/per), strings.TrimPrefix(line, " +"), fmtMS(unexplained/per), 100*ratio)
	if ratio > 0.15 {
		rep.printf("  FINDING: unexplained share %.1f%% is above 15%% of end to end", 100*ratio)
	}
	return ratio
}

func fmtMS(sec float64) string { return fmt.Sprintf("%.3fms", sec*1e3) }
