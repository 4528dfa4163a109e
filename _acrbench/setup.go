package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"time"

	"repro/internal/dse"
	"repro/internal/model"
	"repro/internal/search"
	"repro/internal/server"
)

// setup_s is the program's set-up as a user meets it: the time from
// starting a fresh process to its first result. The benchmark starts
// setupReps copies of itself as set-up probes and reports the median. A
// probe does only the program's work: the sweep probe runs one 512-design
// Table 3 sweep on a new explorer, the search probe one nsga2 search on
// that space at the workload's budget, and the serve probe starts
// server.New on a loopback listener and sends its first requests (one of
// each sync kind and one streamed 64-design DSE job). The benchmark's own
// preparation — schedules, oracles, warm-up — is not part of it.

// setupEnv names the environment variable that makes a process a set-up
// probe for the workload it names.
const setupEnv = "ACRBENCH_SETUP_PROBE"

const setupReps = 21

// coldSetup returns the median set-up time of setupReps probes.
func coldSetup(workload string) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	times := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		sec, err := probe(exe, workload)
		if err != nil {
			return 0, fmt.Errorf("%s set-up probe: %w", workload, err)
		}
		times = append(times, sec)
	}
	return median(times), nil
}

// probe starts one probe process and times it from start until it
// reports ready; it then waits for the process to exit.
func probe(exe, workload string) (float64, error) {
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), setupEnv+"="+workload)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	rd := bufio.NewReader(out)
	line, _ := rd.ReadString('\n')
	sec := time.Since(start).Seconds()
	io.Copy(io.Discard, rd) //nolint:errcheck // drained so the probe can exit
	if err := cmd.Wait(); err != nil {
		return 0, fmt.Errorf("%v: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	if line != "ready\n" {
		return 0, fmt.Errorf("probe printed %q", line)
	}
	return sec, nil
}

// setupProbe is the body of a probe process: the workload's program
// set-up up to its first result, then "ready" on stdout.
func setupProbe(workload string) error {
	ctx := context.Background()
	space := dse.Table3(4800, []float64{600})
	w := model.PaperWorkload(model.GPT3_175B())
	switch workload {
	case "sweep":
		if _, err := dse.NewExplorer().RunContext(ctx, space, w); err != nil {
			return err
		}
	case "search":
		prob := search.Problem{Space: search.FromGrid(space), Workload: w, Objectives: search.ObjectivesLatencyArea()}
		eng, err := search.New("nsga2", prob.Space, 1)
		if err != nil {
			return err
		}
		if _, err := (&search.Runner{}).Run(ctx, prob, eng, searchBudget, 1); err != nil {
			return err
		}
	case "serve":
		ls, err := startServer(0)
		if err != nil {
			return err
		}
		defer ls.close()
		if err := firstRequests(ls.base, 1); err != nil {
			return err
		}
	default:
		return fmt.Errorf("no set-up probe for workload %q", workload)
	}
	fmt.Println("ready")
	return nil
}

// firstRequests sends rounds of one request of every sync kind, then one
// 64-design DSE job streamed to its summary. Its designs use a 128 KB L1,
// which no scheduled design has, so it leaves nothing in the result cache
// that a scheduled request could hit.
func firstRequests(base string, rounds int) error {
	c := newClient()
	defer c.CloseIdleConnections()
	cfg := dse.Table3(4800, []float64{600}).Expand()[17]
	cfg.L1KB = 128
	reqs := []struct {
		path string
		body any
	}{
		{"/v1/classify", map[string]any{"tpp": 4800, "device_bw_gbs": 600, "die_area_mm2": 800}},
		{"/v1/simulate", map[string]any{"config": configRequest(cfg), "workload": map[string]any{"model": "gpt3"}}},
		{"/v1/audit", map[string]any{"config": configRequest(cfg)}},
	}
	for i := 0; i < rounds; i++ {
		for _, r := range reqs {
			if status, _, err := do(c, http.MethodPost, base+r.path, mustJSON(r.body)); err != nil || status != http.StatusOK {
				return fmt.Errorf("first request %s: %d %v", r.path, status, err)
			}
		}
	}
	grid := server.GridRequest{
		Name: "warmup", TPPTarget: 4800, SystolicDims: []int{16, 32}, LanesPerCore: []int{1, 2, 4, 8},
		L1KB: []int{128}, L2MB: []int{32, 64}, HBMBandwidthGBs: []float64{2000, 3200}, DeviceBWGBs: []float64{600},
	}
	var d dseDone
	dseOne(c, base, mustJSON(server.DSERequest{Grid: &grid}), time.Now(), &d)
	if d.err != nil {
		return fmt.Errorf("first dse job: %w", d.err)
	}
	return nil
}
