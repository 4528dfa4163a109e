package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"time"

	"repro/internal/compliance"
	"repro/internal/ir"
	"repro/internal/policy"
	"repro/internal/server"
)

// bodyNumbers decodes a 2xx JSON body and returns its numbers in a fixed
// order (object keys sorted), failing unless every one is finite and
// non-negative.
func bodyNumbers(b []byte) ([]float64, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}
	var nums []float64
	var walk func(path string, v any) error
	walk = func(path string, v any) error {
		switch x := v.(type) {
		case map[string]any:
			keys := make([]string, 0, len(x))
			for k := range x {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				if err := walk(path+"."+k, x[k]); err != nil {
					return err
				}
			}
		case []any:
			for i, e := range x {
				if err := walk(fmt.Sprintf("%s[%d]", path, i), e); err != nil {
					return err
				}
			}
		case json.Number:
			f, err := x.Float64()
			if err != nil || math.IsNaN(f) || math.IsInf(f, 0) || f < 0 {
				return fmt.Errorf("%s = %s is not a finite non-negative number", path, x)
			}
			nums = append(nums, f)
		}
		return nil
	}
	return nums, walk("", v)
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkSync compares one sync response with its oracle.
func checkSync(r syncReq, body []byte) error {
	switch r.kind {
	case "classify":
		var got server.ClassifyResponse
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		m := *r.class
		m.Segment = policy.DataCenter
		dc := policy.Oct2023(m)
		m.Segment = policy.NonDataCenter
		ndc := policy.Oct2023(m)
		m.Segment = policy.DataCenter
		if got.Oct2022 != policy.Oct2022(m).String() || got.Oct2023DataCenter != dc.String() ||
			got.Oct2023Consumer != ndc.String() ||
			got.Restricted != (policy.Oct2022(m).Restricted() || dc.Restricted()) ||
			!sameBits(got.PerformanceDensity, m.PerformanceDensity()) {
			return fmt.Errorf("classify verdict differs from internal/policy for %+v", *r.class)
		}
	case "simulate":
		var got server.SimulateResponse
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		g, err := ir.Lower(r.wl)
		if err != nil {
			return err
		}
		ref, err := referencePoint(r.cfg, g)
		if err != nil {
			return err
		}
		if !sameBits(got.TTFTMS, ref.TTFT()*1e3) || !sameBits(got.TBTMS, ref.TBT()*1e3) ||
			!sameBits(got.AreaMM2, ref.AreaMM2) || !sameBits(got.TPP, ref.TPP) ||
			!sameBits(got.PD, ref.PD) || !sameBits(got.DieCostUSD, ref.DieCostUSD) ||
			!sameBits(got.GoodDieUSD, ref.GoodDieCostUSD) || got.FitsReticle != ref.FitsReticle ||
			got.Oct2023Class != ref.Oct2023Class.String() {
			return fmt.Errorf("simulate %s differs from the reference evaluation", r.cfg.Name)
		}
	case "audit":
		var got server.AuditResponse
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		a, err := compliance.Run(r.cfg)
		if err != nil {
			return err
		}
		if !sameBits(got.TPP, a.TPP) || !sameBits(got.AreaMM2, a.AreaMM2) || !sameBits(got.PD, a.PD) ||
			got.Oct2022 != a.Oct2022.String() || got.Oct2023DC != a.Oct2023DC.String() ||
			got.Oct2023NDC != a.Oct2023NDC.String() || got.Compliant != a.Compliant() ||
			len(got.Remediations) != len(a.Remediations) {
			return fmt.Errorf("audit %s differs from internal/compliance", r.cfg.Name)
		}
	}
	return nil
}

// summaryWire is the part of the terminal stream frame the check reads.
type summaryWire struct {
	Type   string `json:"type"`
	Status *struct {
		State  string          `json:"state"`
		Error  string          `json:"error"`
		Result json.RawMessage `json:"result"`
	} `json:"status"`
}

// checkDSE verifies a DSE stream: every frame is well formed and the
// summary matches the precomputed oracle.
func checkDSE(g *dseGrid, d dseDone) error {
	if len(d.frames) == 0 {
		return fmt.Errorf("empty stream")
	}
	for _, f := range d.frames {
		if _, err := bodyNumbers(f); err != nil {
			return fmt.Errorf("frame: %w", err)
		}
	}
	var sum summaryWire
	if err := json.Unmarshal(d.frames[len(d.frames)-1], &sum); err != nil {
		return err
	}
	if sum.Type != "summary" || sum.Status == nil {
		return fmt.Errorf("stream ended without a summary frame")
	}
	if sum.Status.State != "succeeded" {
		return fmt.Errorf("job %s: %s", sum.Status.State, sum.Status.Error)
	}
	var res server.DSEResult
	if err := json.Unmarshal(sum.Status.Result, &res); err != nil {
		return err
	}
	if res.Designs != g.designs || res.Admissible != g.admissible || len(res.Top) != len(g.top) {
		return fmt.Errorf("%s: %d designs/%d admissible/%d top, oracle %d/%d/%d", g.req.Grid.Name,
			res.Designs, res.Admissible, len(res.Top), g.designs, g.admissible, len(g.top))
	}
	for i, t := range res.Top {
		p := g.top[i]
		if t.Config != p.Config.Name || !sameBits(t.TTFTMS, p.TTFT()*1e3) || !sameBits(t.TBTMS, p.TBT()*1e3) ||
			!sameBits(t.AreaMM2, p.AreaMM2) || !sameBits(t.PD, p.PD) || !sameBits(t.DieCostUSD, p.DieCostUSD) {
			return fmt.Errorf("%s rank %d differs from the oracle", g.req.Grid.Name, i+1)
		}
	}
	return nil
}

// serveStats is one window's client-side measurements after the checks.
type serveStats struct {
	attempted, failed, rejected int
	syncLat, syncRT, dseFirst   []float64 // ms
	dseLat, late                []float64 // ms
	points, designs             float64
	completed                   float64
	busy                        float64 // s, Σ round trips of the completed requests
	elapsed                     float64 // s, window start to last completion
	repeats                     int
	dig                         digest
}

func evaluateRun(s *schedule, res runResult, rep *report) serveStats {
	st := serveStats{dig: newDigest()}
	last := time.Duration(0)
	rejected := func(status int) bool {
		return status == http.StatusServiceUnavailable || status == http.StatusTooManyRequests || status >= 500
	}
	for i, r := range s.sync {
		d := res.sync[i]
		st.attempted++
		var err error
		switch {
		case d.skipped:
			err = fmt.Errorf("not sent: more than %v late", maxLag)
		case d.err != nil:
			err = d.err
		case d.status != http.StatusOK:
			err = fmt.Errorf("status %d: %s", d.status, bytes.TrimSpace(d.body))
		default:
			var nums []float64
			if nums, err = bodyNumbers(d.body); err == nil {
				err = checkSync(r, d.body)
			}
			for _, f := range nums {
				st.dig.float(f)
			}
		}
		if rejected(d.status) {
			st.rejected++
		}
		if err != nil {
			st.failed++
			rep.printf("  FAILED %s #%d: %v", r.path, i, err)
			continue
		}
		st.syncLat = append(st.syncLat, ms(d.done-d.sent+d.ready-r.due))
		st.syncRT = append(st.syncRT, ms(d.done-d.sent))
		st.late = append(st.late, ms(d.sent-d.ready))
		st.completed++
		st.busy += (d.done - d.sent).Seconds()
		last = max(last, d.done)
	}
	for i, r := range s.dse {
		d := res.dse[i]
		g := s.grids[r.grid]
		st.attempted++
		if r.repeat {
			st.repeats++
		}
		var err error
		switch {
		case d.skipped:
			err = fmt.Errorf("not sent: more than %v late", maxLag)
		case d.err != nil:
			err = d.err
		default:
			err = checkDSE(g, d)
		}
		if rejected(d.status) {
			st.rejected++
		}
		if err != nil {
			st.failed++
			rep.printf("  FAILED /v1/dse #%d: %v", i, err)
			continue
		}
		for _, p := range g.top { // the summary's ranking, checked bit-equal above
			st.dig.point(p)
		}
		st.dseLat = append(st.dseLat, ms(d.done-d.sent+d.ready-r.due))
		st.dseFirst = append(st.dseFirst, ms(d.first-d.sent+d.ready-r.due))
		st.late = append(st.late, ms(d.sent-d.ready))
		st.points += float64(d.points)
		st.designs += float64(g.designs)
		st.completed++
		st.busy += (d.done - d.sent).Seconds()
		last = max(last, d.done)
	}
	st.elapsed = last.Seconds()
	return st
}
