// Command acrbench is the repository's end-to-end benchmark. It drives the
// three ways the system is used — an acrdse-style grid sweep, an adaptive
// search, and acrserve HTTP traffic — checks every output against an
// independent oracle, and prints one JSON result line.
//
//	acrbench --workload sweep|search|serve --seed N --seconds S --trace 0|1
//
// With --trace 0 the run is timed with each surface's shipped defaults and
// reports the end-to-end metrics. With --trace 1 a separate traced run
// splits each operation's time over the program's layers (from the spans,
// stage histograms and counters the program already exposes) and reports
// the per-layer metrics, the tracing overhead and the
// "end to end = Σ layer self time + unexplained" ledger.
//
// Human-readable report lines go to stdout first; the last stdout line is
// the JSON result {"correct","attempted","failed","metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload run hands back to main.
type outcome struct {
	attempted int
	failed    int
	metrics   map[string]metric
}

// report collects the human-readable lines printed before the JSON result.
type report struct{ lines []string }

func (r *report) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// named prints one metric under the name the benchmark's notes use for it.
func (r *report) named(name string, v float64, unit string) {
	r.printf("  %-36s %14.6g %s", name, v, unit)
}

// absent prints a metric that this program does not expose.
func (r *report) absent(name, why string) {
	r.printf("  %-36s %14s (%s)", name, "absent", why)
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
}

func main() {
	if w := os.Getenv(setupEnv); w != "" {
		if err := setupProbe(w); err != nil {
			fail(err.Error())
		}
		return
	}
	var o options
	var traceFlag int
	var saturation bool
	flag.StringVar(&o.workload, "workload", "", "workload: sweep, search or serve")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed (inputs are generated from it)")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured window per run, in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "0: timed end-to-end run; 1: traced per-layer run")
	flag.BoolVar(&saturation, "saturation", false, "serve only: measure the rates at which the server saturates")
	flag.Parse()
	o.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 {
		fail("--trace must be 0 or 1")
	}
	if o.seconds <= 0 {
		fail("--seconds must be positive")
	}
	run, ok := workloads[o.workload]
	if !ok {
		fail(fmt.Sprintf("unknown workload %q (sweep, search, serve)", o.workload))
	}
	if saturation {
		if o.workload != "serve" {
			fail("--saturation applies to the serve workload only")
		}
		run = measureSaturation
	}
	rep := &report{}
	rep.printf("acrbench workload=%s seed=%d seconds=%g trace=%v go=%s GOMAXPROCS=%d",
		o.workload, o.seed, o.seconds, o.trace, runtime.Version(), runtime.GOMAXPROCS(0))
	out, err := run(o, rep)
	for _, l := range rep.lines {
		fmt.Println(l)
	}
	if err != nil {
		fail(err.Error())
	}
	if out.attempted < 1 {
		fail("no operation was attempted")
	}
	fmt.Println(resultLine(out))
}

// workloads maps each --workload name to its runner.
var workloads = map[string]func(options, *report) (outcome, error){
	"sweep":  runSweep,
	"search": runSearch,
	"serve":  runServe,
}

// resultLine renders the final JSON line; the encoder sorts the metric
// names.
func resultLine(out outcome) string {
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{out.failed == 0, out.attempted, out.failed, out.metrics})
	if err != nil {
		fail(err.Error())
	}
	return string(b)
}

func fail(msg string) {
	fmt.Fprintln(os.Stderr, "acrbench:", msg)
	os.Exit(1)
}

// deadline returns the end of a measured window starting now.
func deadline(seconds float64) time.Time {
	return time.Now().Add(time.Duration(seconds * float64(time.Second)))
}
